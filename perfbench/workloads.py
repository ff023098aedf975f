"""Seeded request lists for the three benchmark workloads.

Each builder writes the presentation files a workload needs into `workdir`
and returns the plan: a list of request dicts, executed in order by
`worker.py`.  A request is either a CLI call (`argv`, run through
`coxbound.cli.main`) or, where no command exists, a library call
(`coset` -> `todd_coxeter_enumerate`, `normal_form` -> `tits_normal_form`).
Every request carries the outcome the generator planted (`expect`), which the
worker checks outside the timed intervals.

The generator does not import coxbound: verdicts are planted by construction,
so the program under test never grades itself.  Request *shapes* (ranks,
label multisets, radii, caps, levels) are fixed per workload so that the work
per run does not drift with the seed; the seed chooses names, generator
order, label placement, words, k5 seeds and (classify-sweep) request order.
"""

from __future__ import annotations

import json
import random
import string
from itertools import combinations
from pathlib import Path

WORKLOADS = ("classify-sweep", "word-problem", "carpet-k5")

# Documented CLI exit codes (coxbound/cli.py): 0 ok, 1 input error,
# 2 OutOfScope verdict, 3 routing failure.
EXIT_OK, EXIT_INPUT, EXIT_OUT_OF_SCOPE = 0, 1, 2


class _Files:
    """Writes numbered presentation files under workdir/in/."""

    def __init__(self, workdir: Path):
        self.dir = workdir / "in"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.count = 0

    def write(self, text: str) -> str:
        self.count += 1
        rel = f"in/{self.count:05d}.cox"
        (self.dir.parent / rel).write_text(text)
        return rel


def _names(rng: random.Random, n: int) -> list[str]:
    """n distinct generator names in one of three styles, in random order."""
    style = rng.randrange(3)
    if style == 0:
        names = [f"s{i + 1}" for i in range(n)]
    elif style == 1:
        names = list(string.ascii_lowercase[:n])
    else:
        names = set()
        while len(names) < n:
            names.add(rng.choice(string.ascii_lowercase)
                      + "".join(rng.choice(string.ascii_lowercase + string.digits)
                                for _ in range(rng.randrange(1, 3))))
        names = sorted(names)
    rng.shuffle(names)
    return names


def _presentation(rng: random.Random, gens: list[str], labels: dict,
                  write_inf: bool = True) -> str:
    """Presentation text; pairs missing from `labels` are infinite by default.
    Label value "inf" is written explicitly when write_inf, else omitted."""
    lines = ["gens " + " ".join(gens)]
    pairs = list(labels.items())
    rng.shuffle(pairs)
    for (s, t), m in pairs:
        if m == "inf" and not write_inf:
            continue
        if rng.random() < 0.5:
            s, t = t, s
        line = f"{s} {t} {m}"
        if rng.random() < 0.05:
            line += "  # edge"
        lines.append(line)
    if rng.random() < 0.2:
        lines.insert(0, "# generated presentation")
    return "\n".join(lines) + "\n"


def _complete(rng: random.Random, gens: list[str], label_values) -> dict:
    """Labels for every pair of gens, drawn from the given multiset in
    random placement (a list is consumed in shuffled order, a range sampled)."""
    pairs = list(combinations(gens, 2))
    if isinstance(label_values, range):
        return {p: rng.choice(label_values) for p in pairs}
    vals = list(label_values)
    assert len(vals) == len(pairs)
    rng.shuffle(vals)
    return dict(zip(pairs, vals))


# --- finite Coxeter diagrams ---------------------------------------------------

def finite_diagram(kind: str, k: int) -> list[tuple[int, int, int]]:
    """Edges (i, j, m) with m >= 3 of an irreducible finite diagram on k nodes."""
    path = [(i, i + 1, 3) for i in range(k - 1)]
    if kind == "A":
        return path
    if kind == "B":
        return [(0, 1, 4)] + path[1:]
    if kind == "D":       # path 0..k-2 plus a fork at k-3
        return path[:-1] + [(k - 3, k - 1, 3)]
    if kind == "E":       # path 0..k-2 plus a branch at node 2
        return path[:-1] + [(2, k - 1, 3)]
    if kind == "F":
        return [(0, 1, 3), (1, 2, 4), (2, 3, 3)]
    if kind == "H":
        return [(0, 1, 5)] + path[1:]
    if kind == "I":       # k is the label here; the diagram has 2 nodes
        return [(0, 1, k)]
    raise ValueError(kind)


def _finite_components(rng: random.Random, rank: int) -> list[tuple[str, int]]:
    """Random product of irreducible finite types with total rank `rank`."""
    comps = []
    left = rank
    while left:
        options = [("A", k) for k in range(1, min(left, 8) + 1)]
        options += [("B", k) for k in range(2, min(left, 8) + 1)]
        options += [("D", k) for k in range(4, min(left, 8) + 1)]
        options += [("E", k) for k in (6, 7, 8) if k <= left]
        options += [("F", 4)] * (left >= 4) + [("H", 3)] * (left >= 3) + [("H", 4)] * (left >= 4)
        options += [("I", m) for m in (5, 7, 8, 10, 12)] * (left >= 2)
        kind, k = rng.choice(options)
        comps.append((kind, k))
        left -= 2 if kind == "I" else k
    return comps


def _product_labels(rng: random.Random, gens: list[str], comps) -> dict:
    """Labels of a product of finite components laid out on gens: diagram
    edges inside components, 2 on every other pair (written explicitly,
    because an unlisted pair would mean infinity)."""
    labels = {p: 2 for p in combinations(gens, 2)}
    pos = 0
    for kind, k in comps:
        size = 2 if kind == "I" else k
        block = gens[pos:pos + size]
        for i, j, m in finite_diagram(kind, k):
            a, b = block[i], block[j]
            labels[(a, b) if (a, b) in labels else (b, a)] = m
        pos += size
    return labels


# --- classify-sweep -----------------------------------------------------------

BOUNDARY_BY_RANK = {3: "Circle", 4: "SierpinskiCarpet"}   # n >= 5: MengerCurve
SPHERICAL_TRIPLES = [(2, 2, m) for m in range(3, 9)] + [(2, 3, 3), (2, 3, 4), (2, 3, 5)]

MALFORMED = [
    lambda text, g: "".join(ln + "\n" for ln in text.splitlines()
                            if not ln.startswith("gens")),                  # no gens line
    lambda text, g: text + f"{g[0]} {g[1]} x\n",                            # bad label
    lambda text, g: text + f"{g[0]} {g[1]} 1\n",                            # label < 2
    lambda text, g: text + f"{g[0]} zz_unknown 3\n",                        # unknown generator
    lambda text, g: text + f"{g[0]} {g[0]} 3\n",                            # diagonal pair
    lambda text, g: text + f"{g[0]} {g[1]}\n",                              # missing field
    lambda text, g: text.replace("gens ", f"gens {g[0]} ", 1),             # duplicate generator
    lambda text, g: "# nothing here\n\n",                                   # no gens at all
]


def classify_sweep(rng: random.Random, workdir: Path, size: int = 2000) -> list[dict]:
    """~2,000 classify requests on ranks 3-12.

    Mix: 60 % in scope (labels 3-8, trichotomy by n), 10 % OutOfScope by an
    inf label, 10 % OutOfScope by a planted spherical triple, 18 % planted
    finite products, 2 % malformed files.
    """
    files = _Files(workdir)
    shares = [("in_scope", 0.60), ("inf", 0.10), ("spherical", 0.10),
              ("finite", 0.18), ("malformed", 0.02)]
    plan = []
    for category, share in shares:
        ranks = range(4, 13) if category == "spherical" else range(3, 13)
        for i in range(round(size * share)):
            rank = ranks[i % len(ranks)]
            gens = _names(rng, rank)
            if category == "in_scope":
                text = _presentation(rng, gens, _complete(rng, gens, range(3, 9)))
                expect = {"exit": EXIT_OK, "boundary": BOUNDARY_BY_RANK.get(rank, "MengerCurve")}
            elif category == "inf":
                labels = _complete(rng, gens, range(3, 9))
                for pair in rng.sample(sorted(labels), rng.randint(1, max(1, rank // 3))):
                    labels[pair] = "inf"
                text = _presentation(rng, gens, labels, write_inf=rng.random() < 0.5)
                expect = {"exit": EXIT_OUT_OF_SCOPE, "boundary": "OutOfScope"}
            elif category == "spherical":
                # every other pair >= 3 and rank >= 4: the fourth generator closes
                # a cycle with the triple's one or two diagram edges, so the whole
                # group stays infinite and the nerve gains a 2-simplex
                labels = _complete(rng, gens, range(3, 9))
                triple = rng.sample(gens, 3)
                ms = list(rng.choice(SPHERICAL_TRIPLES))
                rng.shuffle(ms)
                for (a, b), m in zip(combinations(triple, 2), ms):
                    labels[(a, b) if (a, b) in labels else (b, a)] = m
                text = _presentation(rng, gens, labels)
                expect = {"exit": EXIT_OUT_OF_SCOPE, "boundary": "OutOfScope"}
            elif category == "finite":
                labels = _product_labels(rng, gens, _finite_components(rng, rank))
                text = _presentation(rng, gens, labels)
                expect = {"exit": EXIT_OK, "boundary": "EmptyOrFinite"}
            else:
                small = gens[:max(3, rank // 2)]
                valid = _presentation(rng, small, _complete(rng, small, range(3, 9)))
                text = MALFORMED[i % len(MALFORMED)](valid, small)
                expect = {"exit": EXIT_INPUT}
            path = files.write(text)
            plan.append({"kind": "classify", "argv": ["classify", "--input", path],
                         "expect": expect})
    rng.shuffle(plan)
    return _number(plan)


# --- word-problem -------------------------------------------------------------

# (rank, labels, radius): radius >= max label, so the identity is an interior
# vertex whose link is checked; each ball takes roughly 0.05-1 s pure Python.
DAVIS_BALLS = [
    (3, (3, 3, 3), 12), (3, (3, 3, 4), 10), (3, (3, 4, 5), 9), (3, (4, 4, 4), 8),
    (3, (4, 5, 6), 8), (3, (6, 6, 6), 8), (3, (3, 5, "inf"), 9),
    (4, (3,) * 6, 5), (4, (3,) * 6, 6), (4, (3, 3, 4, 4, 5, 5), 5), (4, (4,) * 6, 5),
    (4, (5,) * 6, 5), (4, (3, 4, 5, 3, 4, "inf"), 5),
    (5, (3,) * 10, 4), (5, (3, 4) * 5, 4), (5, (3, 4, 3, 4, 3, 4, 3, 4, "inf", "inf"), 4),
]
DIHEDRAL_BALLS = (5, 7, 9)           # I2(m), radius m: the whole group of order 2m

# The four cases of benchmarks/bench_coset.py, verbatim (names, order, caps),
# with whether the group is finite.
BENCH_COSET_CASES = [
    ("s1 s2 s3", {("s1", "s2"): 2, ("s1", "s3"): 3, ("s2", "s3"): 5}, 100_000, True),
    ("s1 s2 s3", {("s1", "s2"): 2, ("s1", "s3"): 3, ("s2", "s3"): 7}, 50_000, False),
    ("s1 s2 s3", {("s1", "s2"): 3, ("s1", "s3"): 3, ("s2", "s3"): 3}, 100_000, False),
    ("s1 s2 s3 s4", {p: 3 for p in combinations(("s1", "s2", "s3", "s4"), 2)}, 100_000,
     False),
]
FINITE_COSETS = [("A", 5), ("A", 6), ("A", 7), ("B", 5), ("D", 5), ("F", 4),
                 ("H", 3), ("H", 4), ("I", 8)]
FINITE_ORDERS = {("A", 5): 720, ("A", 6): 5040, ("A", 7): 40320, ("B", 5): 3840,
                 ("D", 5): 1920, ("F", 4): 1152, ("H", 3): 120, ("H", 4): 14400,
                 ("I", 8): 16}
# (rank, labels, subset size, cap): infinite special subgroups, cap-bound
INFINITE_COSETS = [(4, (3, 4, 5, 6, 3, 4), 4, 10_000), (5, (3, 4) * 5, 4, 10_000),
                   (3, (4, 5, 6), 3, 20_000), (4, (3, 3, 3, 3, 3, 3), 3, 20_000)]
# (rank, labels): normal-form batch systems
NORMAL_FORM_SYSTEMS = [(3, (3, 3, 3)), (3, (3, 3, 4)), (3, (4, 5, 6)), (4, (3,) * 6),
                       (4, (3, 3, 3, 3, 4, 4)), (4, (3, 4, 5, 6, 3, 4)), (5, (3,) * 10),
                       (5, (3, 4) * 5)]
NORMAL_FORM_BATCH = 80
# (labels, depth): spherical, Euclidean and hyperbolic triangle groups
TESSELLATIONS = [((2, 3, 5), 15), ((3, 3, 3), 16), ((2, 4, 4), 16), ((2, 3, 6), 16),
                 ((2, 3, 7), 16), ((3, 3, 4), 10), ((4, 5, 6), 8)]


def _word(rng: random.Random, gens: list[str], length: int) -> list[str]:
    w = [rng.choice(gens)]
    while len(w) < length:
        g = rng.choice(gens)
        if g != w[-1]:
            w.append(g)
    return w


def word_problem(rng: random.Random, workdir: Path) -> list[dict]:
    """Davis balls, coset enumerations, normal-form batches and tessellations.

    Target time split: about half Davis balls, a third coset enumeration,
    the rest normal forms and rendering.
    """
    files = _Files(workdir)
    plan = []
    for rank, labels, radius in DAVIS_BALLS:
        gens = _names(rng, rank)
        path = files.write(_presentation(rng, gens, _complete(rng, gens, labels),
                                         write_inf=rng.random() < 0.5))
        plan.append({"kind": "davis-ball", "argv": ["davis-ball", "--input", path,
                                                    "--radius", str(radius)],
                     "expect": {"exit": EXIT_OK, "order": None}})
    for m in DIHEDRAL_BALLS:
        gens = _names(rng, 2)
        path = files.write(_presentation(rng, gens, {tuple(gens): m}))
        plan.append({"kind": "davis-ball", "argv": ["davis-ball", "--input", path,
                                                    "--radius", str(m)],
                     "expect": {"exit": EXIT_OK, "order": 2 * m}})

    for gens_line, labels, cap, finite in BENCH_COSET_CASES:
        gens = gens_line.split()
        path = files.write(_presentation(random.Random(0), gens, labels))
        plan.append({"kind": "coset", "system": path, "subset": gens, "cap": cap,
                     "expect": {"finite": finite}})
    for kind, k in FINITE_COSETS:
        size = 2 if kind == "I" else k
        extra = rng.randint(0, 2)               # generators outside the subset
        gens = _names(rng, size + extra)
        sub = gens[:size]
        labels = _product_labels(rng, sub, [(kind, k)])
        for g in gens[size:]:
            for h in gens:
                if h != g and (h, g) not in labels:
                    labels[(g, h)] = rng.choice(range(3, 7))
        order = list(gens)
        rng.shuffle(order)                      # generator order drives HLT
        path = files.write(_presentation(rng, order, labels))
        plan.append({"kind": "coset", "system": path, "subset": sorted(sub), "cap": 200_000,
                     "expect": {"finite": True, "order": FINITE_ORDERS[(kind, k)]}})
    for rank, labels, sub_size, cap in INFINITE_COSETS:
        gens = _names(rng, rank)
        path = files.write(_presentation(rng, gens, _complete(rng, gens, labels)))
        plan.append({"kind": "coset", "system": path,
                     "subset": sorted(rng.sample(gens, sub_size)), "cap": cap,
                     "expect": {"finite": False}})

    for rank, labels in NORMAL_FORM_SYSTEMS:
        gens = _names(rng, rank)
        path = files.write(_presentation(rng, gens, _complete(rng, gens, labels)))
        words = [_word(rng, gens, rng.randint(12, 16)) for _ in range(NORMAL_FORM_BATCH)]
        plan.append({"kind": "normal_form", "system": path, "words": words})

    for labels, depth in TESSELLATIONS:
        gens = _names(rng, 3)
        path = files.write(_presentation(rng, gens, _complete(rng, gens, labels)))
        plan.append({"kind": "tessellate", "argv": ["tessellate", "--input", path,
                                                    "--depth", str(depth)],
                     "expect": {"exit": EXIT_OK, "depth": depth}})

    # invalid requests: the first two escape the current CLI as ValueError
    # tracebacks (ROADMAP item 5), so they count as failed requests
    k4 = _names(rng, 4)
    k4_path = files.write(_presentation(rng, k4, _complete(rng, k4, range(3, 7))))
    k3 = _names(rng, 3)
    k3_path = files.write(_presentation(rng, k3, _complete(rng, k3, range(3, 7))))
    bad = files.write(MALFORMED[rng.randrange(len(MALFORMED))](
        _presentation(rng, k3, _complete(rng, k3, range(3, 7))), k3))
    plan += [
        {"kind": "invalid", "argv": ["davis-ball", "--input", k3_path, "--radius", "0"]},
        {"kind": "invalid", "argv": ["tessellate", "--input", k4_path, "--depth", "4"]},
        {"kind": "invalid", "argv": ["davis-ball", "--input", bad, "--radius", "3"]},
        {"kind": "invalid", "argv": ["tessellate", "--input", "in/missing.cox"]},
    ]
    for req in plan:
        if req["kind"] == "invalid":
            req["expect"] = {"exit": EXIT_INPUT}
    # fixed order: the _contexts memo only grows, so the peak RSS depends on
    # when the large coset tables are built relative to the Davis balls
    return _number(plan)


# --- carpet-k5 ------------------------------------------------------------------

K5_LEVEL2_SEEDS = 8          # drawn from 0-11, which all route at level 2


def carpet_k5(rng: random.Random, workdir: Path) -> list[dict]:
    """k5 scaffolds at level 2 (seeded) and 3, carpets at levels 4-5 in JSON
    and SVG, and one invalid carpet level."""
    plan = [{"kind": "k5", "argv": ["k5", "--level", "2", "--seed", str(s)],
             "expect": {"exit": EXIT_OK}}
            for s in sorted(rng.sample(range(12), K5_LEVEL2_SEEDS))]
    plan.append({"kind": "k5", "argv": ["k5", "--level", "3"], "expect": {"exit": EXIT_OK}})
    for level in (4, 5):
        for fmt in ("json", "svg"):
            plan.append({"kind": "carpet",
                         "argv": ["carpet", "--level", str(level), "--format", fmt],
                         "expect": {"exit": EXIT_OK, "level": level, "format": fmt}})
    # escapes the current CLI as a ValueError traceback (ROADMAP item 5)
    plan.append({"kind": "invalid", "argv": ["carpet", "--level", "9"],
                 "expect": {"exit": EXIT_INPUT}})
    return _number(plan)          # fixed order, so the peak RSS does not depend on it


def _number(plan: list[dict]) -> list[dict]:
    """Assign request ids and --out targets (the CLI writes files, not stdout)."""
    for i, req in enumerate(plan):
        req["id"] = i
        if "argv" in req:
            ext = "" if req["kind"] == "k5" else (
                ".svg" if "svg" in req["argv"] or req["kind"] == "tessellate" else ".json")
            req["out"] = f"out/{i:05d}{ext}"
            req["argv"] = req["argv"] + ["--out", req["out"]]
    return plan


BUILDERS = {"classify-sweep": classify_sweep, "word-problem": word_problem,
            "carpet-k5": carpet_k5}


def build_plan(workload: str, seed: int, workdir: Path, **sizes) -> list[dict]:
    """Write the workload's inputs for `seed` into workdir and return its plan."""
    workdir.mkdir(parents=True, exist_ok=True)
    plan = BUILDERS[workload](random.Random(f"{workload}:{seed}"), workdir, **sizes)
    (workdir / "plan.json").write_text(json.dumps(plan))
    return plan
