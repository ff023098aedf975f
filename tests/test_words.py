import random
import tracemalloc
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from coxbound.system import INF, complete_graph_system, make_system, subgroup_order
from coxbound.words import (MAX_RING_ORDER, WordContext, _CyclotomicRing,
                            _cyclotomic_polynomial, _enumerate_cosets, cayley_ball,
                            coxeter_relators, spherical_triangle_order, tits_normal_form,
                            todd_coxeter_enumerate, word_context, words_equal)


def triangle(a, b, c):
    return make_system("xyz", {("x", "y"): a, ("y", "z"): b, ("x", "z"): c})


def random_word(rng, gens, max_len):
    return [rng.choice(gens) for _ in range(rng.randrange(max_len + 1))]


def test_normal_form_basics():
    sysm = triangle(3, 3, 3)
    assert tits_normal_form(sysm, []).word == ()
    assert tits_normal_form(sysm, "xx").word == ()
    assert tits_normal_form(sysm, "xyx").word == tits_normal_form(sysm, "yxy").word
    assert words_equal(sysm, "xyxyxy", [])  # (xy)^3 = 1


def test_normal_form_properties_random():
    rng = random.Random(7)
    sysm = complete_graph_system(3)
    gens = list(sysm.generators)
    for _ in range(300):
        w = random_word(rng, gens, 10)
        nf = tits_normal_form(sysm, w).word
        # idempotence
        assert tits_normal_form(sysm, nf).word == nf
        # involution cancellation
        s = rng.choice(gens)
        assert tits_normal_form(sysm, list(w) + [s, s]).word == nf
        # left-multiplication consistency: nf(sw) has length within 1 of nf(w)
        assert abs(tits_normal_form(sysm, [s] + list(w)).length - len(nf)) == 1


def test_long_word_normal_form():
    # (ab)^30 = (ab)^2 in I2(7); no word-length bound applies
    sysm = make_system("ab", {("a", "b"): 7})
    assert tits_normal_form(sysm, "ab" * 30).word == ("a", "b", "a", "b")


def test_dihedral_normal_forms():
    m = 5
    sysm = make_system("ab", {("a", "b"): m})
    forms = set()
    for k in range(2 * m + 4):
        for start in "ab":
            w = [("ab" if start == "a" else "ba")[i % 2] for i in range(k)]
            forms.add(tits_normal_form(sysm, w).word)
    assert len(forms) == 2 * m  # I2(5) has order 10


@pytest.mark.parametrize("triple,order", [
    ((2, 3, 3), 24), ((2, 3, 4), 48), ((2, 3, 5), 120), ((2, 2, 2), 8),
])
def test_todd_coxeter_spherical(triple, order):
    sysm = triangle(*triple)
    table = todd_coxeter_enumerate(sysm, "xyz")
    assert table.complete and table.order == order
    assert spherical_triangle_order(*triple) == order


def test_spherical_triangle_order_matches_fraction_formula():
    for a, b, c in product(range(2, 31), repeat=3):
        excess = Fraction(1, a) + Fraction(1, b) + Fraction(1, c) - 1
        expected = int(4 / excess) if excess > 0 else None
        assert spherical_triangle_order(a, b, c) == expected, (a, b, c)


def test_todd_coxeter_incomplete_on_affine():
    table = todd_coxeter_enumerate(triangle(3, 3, 3), "xyz", cap=10_000)
    assert not table.complete
    assert table.order is None


def test_enumeration_and_ball_bounds_rejected():
    sysm = triangle(3, 3, 3)
    with pytest.raises(ValueError, match="^cap must be >= 1$"):
        todd_coxeter_enumerate(sysm, "xyz", cap=0)
    with pytest.raises(ValueError, match="^radius must be >= 0$"):
        cayley_ball(sysm, -1)


def test_todd_coxeter_subsets():
    sysm = complete_graph_system(4)
    assert todd_coxeter_enumerate(sysm, []).order == 1
    assert todd_coxeter_enumerate(sysm, ["s1"]).order == 2
    assert todd_coxeter_enumerate(sysm, ["s1", "s3"]).order == 6


def test_todd_coxeter_rejects_names_outside_the_system():
    sysm = complete_graph_system(3)
    with pytest.raises(ValueError, match="^'bogus' is not a generator$"):
        todd_coxeter_enumerate(sysm, ["bogus"])
    with pytest.raises(ValueError, match="^'bogus' is not a generator$"):
        todd_coxeter_enumerate(sysm, ["s1", "bogus"])
    with pytest.raises(ValueError, match="^'x' is not a generator$"):
        todd_coxeter_enumerate(sysm, iter(["s2", "x", "y"]))


def test_todd_coxeter_subset_may_be_any_iterable():
    sysm = complete_graph_system(4, labels={("s2", "s4"): 2})
    for gens, order in ((["s1", "s3"], 6), (["s2", "s3", "s4"], 24)):
        expected = todd_coxeter_enumerate(sysm, gens)
        assert expected.subset == tuple(gens) and expected.order == order
        assert todd_coxeter_enumerate(sysm, iter(gens)) == expected
        assert todd_coxeter_enumerate(sysm, (g for g in gens)) == expected


def test_cayley_ball_dihedral():
    sysm = make_system("ab", {("a", "b"): 4})
    ball = cayley_ball(sysm, 6)
    # I2(4): sphere sizes 1,2,2,2,1 then empty
    assert ball.sphere_sizes == (1, 2, 2, 2, 1)
    assert ball.size == 8
    for g, gs, s in ball.edges:
        assert len(gs) == len(g) + 1


def test_cayley_ball_counts_match_enumeration():
    sysm = triangle(2, 3, 3)   # order 24
    ball = cayley_ball(sysm, 12)
    assert ball.size == todd_coxeter_enumerate(sysm, "xyz").order


def test_ring_budget_edge():
    """2 lcm(labels >= 3) = 2520 is the largest ring the small-root table
    builds; 2522 is refused before any ring work."""
    at_budget = make_system("abcd", {("a", "b"): 4, ("a", "c"): 5, ("a", "d"): 7,
                                     ("b", "c"): 9, ("b", "d"): 2, ("c", "d"): 2})
    assert MAX_RING_ORDER == 2520
    assert WordContext(at_budget).small_root_count > 4
    with pytest.raises(ValueError, match=r"label set \{1261\} needs .*Z\[zeta_2522\]"):
        WordContext(make_system("ab", {("a", "b"): 1261}))


def test_cayley_ball_deterministic():
    sysm = complete_graph_system(3)
    b1 = cayley_ball(sysm, 4)
    b2 = cayley_ball(sysm, 4)
    assert b1 == b2


# --- the small-root engine against the braid-closure oracle ----------------------

def braid_closure_normal_form(m, word):
    """ShortLex normal form by Tits' solution: a word is not reduced iff some
    sequence of braid moves exposes an adjacent equal pair, and the reduced
    words of an element are connected by braid moves (Matsumoto), so the
    normal form is the least word of the braid closure of a reduced word.
    Exponential in the word length; `m` is the Coxeter matrix, 0 for inf."""
    cur = tuple(word)
    while True:
        closure = _braid_closure(m, cur)
        shorter = next((u[:i] + u[i + 2:] for u in closure for i in range(len(u) - 1)
                        if u[i] == u[i + 1]), None)
        if shorter is None:
            return min(closure)
        cur = shorter


def _braid_closure(m, word):
    seen = {word}
    stack = [word]
    L = len(word)
    while stack:
        w = stack.pop()
        for i in range(L - 1):
            a, b = w[i], w[i + 1]
            k = m[a][b] if a != b else 0
            if k == 0 or i + k > L:
                continue
            if all(w[i + j] == (a if j % 2 == 0 else b) for j in range(2, k)):
                repl = tuple(b if j % 2 == 0 else a for j in range(k))
                w2 = w[:i] + repl + w[i + k:]
                if w2 not in seen:
                    seen.add(w2)
                    stack.append(w2)
    return seen


LABELS = [2, 3, 4, 5, 6, INF]


@st.composite
def systems(draw, max_rank=4):
    n = draw(st.integers(1, max_rank), label="rank")
    gens = "abcd"[:n]
    labels = {(gens[i], gens[j]): draw(st.sampled_from(LABELS))
              for i in range(n) for j in range(i + 1, n)}
    return make_system(gens, labels)


def coxeter_matrix(sysm):
    gens = sysm.generators
    return [[0 if s == t or sysm.m(s, t) == INF else int(sysm.m(s, t)) for t in gens]
            for s in gens]


@settings(max_examples=60, deadline=None)
@given(systems(), st.integers(0, 5))
@example(make_system("ab", {("a", "b"): 5}), 9)                      # I2(5): longest at 5
@example(complete_graph_system(3, labels={("s1", "s3"): 2}), 10)     # A3: longest at 6
def test_cayley_ball_edges_are_the_up_edges(sysm, radius):
    """The Davis faces climb these edges: every (g, gs, s) with |g| < radius
    and |gs| = |g| + 1, each once, also where a finite group's ball stops
    growing before the radius.  The vertices are then the identity and the
    ends of up-edges, which by induction on length is every element of
    length at most `radius`."""
    ball = cayley_ball(sysm, radius)
    ctx = word_context(sysm)
    up = set()
    for g in ball.vertices:
        for s, name in enumerate(sysm.generators):
            gs = ctx.decode(ctx.multiply(ctx.encode(g), s))
            if len(g) < radius and len(gs) == len(g) + 1:
                up.add((g, gs, name))
    assert sorted(ball.edges) == sorted(up)
    assert sorted(ball.vertices) == sorted({()} | {gs for _, gs, _ in up})


_PROPERTY = settings(max_examples=150, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


@_PROPERTY
@given(st.data())
def test_normal_form_matches_braid_closure_oracle(data):
    sysm = data.draw(systems(), label="system")
    ctx = word_context(sysm)
    words = st.lists(st.integers(0, sysm.rank - 1), max_size=9)
    for _ in range(5):
        w = data.draw(words, label="word")
        assert ctx.normal_form(w) == braid_closure_normal_form(coxeter_matrix(sysm), w)


@_PROPERTY
@given(st.data())
def test_normal_form_idempotent_and_braid_invariant(data):
    sysm = data.draw(systems(), label="system")
    ctx = word_context(sysm)
    w = data.draw(st.lists(st.integers(0, sysm.rank - 1), max_size=40), label="word")
    nf = ctx.normal_form(w)
    assert ctx.normal_form(nf) == nf
    s = data.draw(st.integers(0, sysm.rank - 1), label="s")
    assert ctx.normal_form(w + [s, s]) == nf
    assert ctx.normal_form([s, s] + w) == nf
    finite = [(i, j, int(sysm.m(sysm.generators[i], sysm.generators[j])))
              for i in range(sysm.rank) for j in range(i + 1, sysm.rank)
              if sysm.m(sysm.generators[i], sysm.generators[j]) != INF]
    if finite:
        i, j, m = data.draw(st.sampled_from(finite), label="pair")
        k = data.draw(st.integers(0, len(w)), label="position")
        braid_ij = [i if n % 2 == 0 else j for n in range(m)]
        braid_ji = [j if n % 2 == 0 else i for n in range(m)]
        assert (ctx.normal_form(w[:k] + braid_ij + w[k:])
                == ctx.normal_form(w[:k] + braid_ji + w[k:]))


def path_system(labels, branch=None):
    """Generators s1..sn on a path with the given labels; `branch` = (i, m)
    adds s(n+1) joined to s_i by m (for D and E diagrams)."""
    n = len(labels) + 1
    gens = [f"s{k + 1}" for k in range(n + (branch is not None))]
    lab = {(g, h): 2 for a, g in enumerate(gens) for h in gens[a + 1:]}
    for k, m in enumerate(labels):
        lab[(gens[k], gens[k + 1])] = m
    if branch is not None:
        lab[(gens[branch[0] - 1], gens[-1])] = branch[1]
    return make_system(gens, lab)


FINITE_TYPES = [
    *[(f"A{n}", path_system([3] * (n - 1)), n * (n + 1) // 2) for n in range(2, 7)],
    *[(f"B{n}", path_system([4] + [3] * (n - 2)), n * n) for n in range(2, 6)],
    *[(f"D{n}", path_system([3] * (n - 2), branch=(n - 2, 3)), n * (n - 1)) for n in range(4, 7)],
    ("E6", path_system([3] * 4, branch=(3, 3)), 36),
    ("E7", path_system([3] * 5, branch=(3, 3)), 63),
    ("E8", path_system([3] * 6, branch=(3, 3)), 120),
    ("F4", path_system([3, 4, 3]), 24),
    ("H3", path_system([5, 3]), 15),
    ("H4", path_system([5, 3, 3]), 60),
    *[(f"I2({m})", path_system([m]), m) for m in range(3, 13)],
]


@pytest.mark.parametrize("name,sysm,reflections", FINITE_TYPES,
                         ids=[name for name, _, _ in FINITE_TYPES])
def test_small_roots_of_finite_types_are_all_positive_roots(name, sysm, reflections):
    assert subgroup_order(sysm, sysm.generators) is not None
    assert word_context(sysm).small_root_count == reflections


def reordered(sysm, generators):
    """`sysm` with its generators listed in the order `generators`."""
    return make_system(generators, {(s, t): sysm.m(s, t)
                                    for s, t in combinations(sysm.generators, 2)})


# (name, system, cap, complete, order, cosets_defined).  cosets_defined pins
# the kernel's definition order (each coset's row filled in generator order,
# then the (st)^m relators scanned in pair order), which the benchmark's
# word-problem digest hashes.  The first four are the word-problem workload's
# BENCH_COSET_CASES, with their caps.  Generator order drives HLT, so H4 is
# pinned in both orders.
COSET_PINS = [
    ("(2,3,5)", complete_graph_system(3, labels={("s1", "s2"): 2, ("s1", "s3"): 3,
                                                 ("s2", "s3"): 5}), 100_000, True, 120, 120),
    ("(2,3,7)", complete_graph_system(3, labels={("s1", "s2"): 2, ("s1", "s3"): 3,
                                                 ("s2", "s3"): 7}), 50_000, False, None, 50_000),
    ("K3 all-3", complete_graph_system(3), 100_000, False, None, 100_000),
    ("K4 all-3", complete_graph_system(4), 100_000, False, None, 100_000),
    ("A5", path_system([3] * 4), 100_000, True, 720, 785),
    ("A6", path_system([3] * 5), 100_000, True, 5040, 6061),
    ("A7", path_system([3] * 6), 100_000, True, 40320, 52771),
    ("B5", path_system([4, 3, 3, 3]), 100_000, True, 3840, 4519),
    ("D5", path_system([3, 3, 3], branch=(3, 3)), 100_000, True, 1920, 1967),
    ("F4", path_system([3, 4, 3]), 100_000, True, 1152, 1198),
    ("H3", path_system([5, 3]), 100_000, True, 120, 120),
    ("H4", path_system([5, 3, 3]), 100_000, True, 14400, 15902),
    ("H4 reversed", reordered(path_system([5, 3, 3]), ["s4", "s3", "s2", "s1"]), 100_000,
     True, 14400, 15757),
]


@pytest.mark.parametrize("name,sysm,cap,complete,order,defined", COSET_PINS,
                         ids=[pin[0] for pin in COSET_PINS])
def test_todd_coxeter_cosets_defined_pinned(name, sysm, cap, complete, order, defined):
    table = todd_coxeter_enumerate(sysm, sysm.generators, cap=cap)
    assert (table.complete, table.order, table.cosets_defined) == (complete, order, defined)


def test_coset_kernel_memory_follows_the_cosets_defined():
    # K4 all-3 runs to the cap and meets no coincidence, so the kernel holds
    # only its columns, its marks and one int per coset: 6.67 MiB traced on
    # CPython 3.11.  A union-find entry per coset, about 40 B more each,
    # breaks the bound.
    sysm = complete_graph_system(4)
    tracemalloc.start()
    try:
        table = todd_coxeter_enumerate(sysm, sysm.generators, cap=100_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert table.cosets_defined == 100_000 and not table.complete
    assert peak < 8 * 2**20


# --- the coset kernel against its row-table oracle ---------------------------------
#
# The body below is the kernel as it ran before it stored its table by columns
# and skipped the scans of closed (st)^m cycles: one row list per coset, each
# relator a word in generator indices, every relator scanned at every live
# coset.  It defines the same cosets in the same order.

def _row_table_enumerate_cosets(n_gens, relators, cap):
    table = [[-1] * n_gens]
    p = [0]

    def rep(k):
        while p[k] != k:
            k = p[k]
        return k

    def merge(a, b, queue):
        a, b = rep(a), rep(b)
        if a != b:
            if a > b:
                a, b = b, a
            p[b] = a
            queue.append(b)

    def coincidence(a, b):
        queue = []
        merge(a, b, queue)
        i = 0
        while i < len(queue):
            g = queue[i]
            i += 1
            row = table[g]
            for x in range(n_gens):
                d = row[x]
                if d == -1:
                    continue
                table[d][x] = -1
                row[x] = -1
                mu, nu = rep(g), rep(d)
                if table[mu][x] != -1:
                    merge(nu, table[mu][x], queue)
                elif table[nu][x] != -1:
                    merge(mu, table[nu][x], queue)
                else:
                    table[mu][x] = nu
                    table[nu][x] = mu

    def define(a, x):
        if len(table) >= cap:
            return -1
        n = len(table)
        table.append([-1] * n_gens)
        p.append(n)
        table[a][x] = n
        table[n][x] = a
        return n

    def scan_and_fill(a, w):
        f, i = a, 0
        b, j = a, len(w) - 1
        while True:
            while i <= j and table[f][w[i]] != -1:
                f = table[f][w[i]]
                i += 1
            if i > j:
                if f != b:
                    coincidence(f, b)
                return True
            while j >= i and table[b][w[j]] != -1:
                b = table[b][w[j]]
                j -= 1
            if j < i:
                coincidence(f, b)
                return True
            if j == i:
                table[f][w[i]] = b
                table[b][w[i]] = f
                return True
            if define(f, w[i]) == -1:
                return False

    alpha = 0
    while alpha < len(table):
        if p[alpha] != alpha:
            alpha += 1
            continue
        for x in range(n_gens):
            if table[alpha][x] == -1:
                if define(alpha, x) == -1:
                    return False, 0, len(table)
        for w in relators:
            if not scan_and_fill(alpha, w):
                return False, 0, len(table)
            if p[alpha] != alpha:
                break
        if p[alpha] == alpha:
            for x in range(n_gens):
                if table[alpha][x] == -1:
                    if define(alpha, x) == -1:
                        return False, 0, len(table)
        alpha += 1

    order = sum(1 for k in range(len(p)) if p[k] == k)
    return True, order, len(table)


def row_table_enumerate(sysm, cap):
    """(complete, order, cosets_defined) of the whole group by the oracle."""
    words = [[s, t] * m for s, t, m in coxeter_relators(sysm, sysm.generators)]
    complete, order, defined = _row_table_enumerate_cosets(sysm.rank, words, cap)
    return complete, order if complete else None, defined


@st.composite
def shuffled_systems(draw):
    """Systems of rank 1-6 with their generators in random order: labels 2-7
    or inf at random, or a finite diagram of rank 4-6, whose enumerations meet
    coincidences (random labels seldom do)."""
    if draw(st.booleans(), label="finite type"):
        sysm = draw(st.sampled_from([s for _, s, _ in FINITE_TYPES if 4 <= s.rank <= 6]))
    else:
        names = [f"g{k}" for k in range(draw(st.integers(1, 6), label="rank"))]
        sysm = make_system(names, {pair: draw(st.sampled_from([2, 3, 4, 5, 6, 7, INF]))
                                   for pair in combinations(names, 2)})
    return reordered(sysm, draw(st.permutations(sysm.generators), label="order"))


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(shuffled_systems(), st.integers(1, 5_000))
@example(path_system([3] * 4), 3)         # the cap is hit in the row fill
@example(complete_graph_system(3), 100)   # inside a scan
@example(path_system([3] * 4), 700)       # inside a scan, after coincidences
def test_coset_kernel_matches_row_table_oracle(sysm, cap):
    table = todd_coxeter_enumerate(sysm, sysm.generators, cap=cap)
    assert (table.complete, table.order, table.cosets_defined) == row_table_enumerate(sysm, cap)


@st.composite
def repeated_pair_relators(draw):
    """(n, relators): 2-4 generators and (s, t, m) relators, m in 2-7, with at
    least one pair named twice.  A Coxeter system gives one relator per pair,
    and its enumerations never reach the kernel's coincidence paths below;
    two relators on one pair collapse the group and reach all of them."""
    n = draw(st.integers(2, 4), label="n")
    pairs = [(s, t) for s in range(n) for t in range(s + 1, n)]
    relator = st.tuples(st.sampled_from(pairs), st.integers(2, 7)).map(lambda r: (*r[0], r[1]))
    relators = draw(st.lists(relator, min_size=1, max_size=5), label="relators")
    s, t, _ = draw(st.sampled_from(relators), label="repeated")
    at = draw(st.integers(0, len(relators)), label="at")
    relators.insert(at, (s, t, draw(st.integers(2, 7), label="m")))
    return n, relators


@settings(max_examples=300, deadline=None)
@given(repeated_pair_relators(), st.integers(1, 2_000))
# each example runs a path of the kernel that Coxeter relators do not reach;
# the comment gives the path and the (complete, order, cosets_defined) result
# rep walks two links of `dead`: (True, 2, 10)
@example((2, [(0, 1, 5), (0, 1, 3)]), 2_000)
# merge(mu, col[nu]) in a coincidence: (True, 2, 16)
@example((3, [(0, 1, 5), (1, 2, 3), (1, 2, 2), (0, 2, 2)]), 2_000)
# the forward walk reads the whole word and ends on f != alpha: (True, 2, 4)
@example((2, [(0, 1, 2), (0, 1, 5)]), 2_000)
# alpha, the coset being scanned, is in `dead` after a coincidence: (True, 2, 8)
@example((3, [(0, 2, 2), (0, 1, 2), (0, 1, 5), (1, 2, 3)]), 2_000)
# all four, where a no-op in place of merge(mu, col[nu]) never closes the table:
# (True, 8, 204)
@example((4, [(2, 3, 4), (0, 3, 7), (0, 2, 3), (0, 3, 4), (0, 1, 4)]), 2_000)
def test_coset_kernel_matches_row_table_oracle_on_repeated_pairs(case, cap):
    n, relators = case
    words = [[s, t] * m for s, t, m in relators]
    assert _enumerate_cosets(n, relators, cap) == _row_table_enumerate_cosets(n, words, cap)



BALL_TYPES = [t for t in FINITE_TYPES if t[0] in ("A4", "B4", "D4", "F4", "H3")]


@pytest.mark.parametrize("name,sysm,reflections", BALL_TYPES,
                         ids=[name for name, _, _ in BALL_TYPES])
def test_cayley_ball_is_whole_finite_group(name, sysm, reflections):
    # the longest element has length = number of reflections
    ball = cayley_ball(sysm, reflections + 1)
    assert ball.size == subgroup_order(sysm, sysm.generators)
    assert ball.sphere_sizes[-1] == 1


def test_cyclotomic_polynomials_multiply_to_x_n_minus_1():
    for n in range(1, 61):
        prod = [1]
        for d in range(1, n + 1):
            if n % d == 0:
                phi = _cyclotomic_polynomial(d)
                out = [0] * (len(prod) + len(phi) - 1)
                for i, a in enumerate(prod):
                    for j, b in enumerate(phi):
                        out[i + j] += a * b
                prod = out
        assert prod == [-1] + [0] * (n - 1) + [1]


def test_sign_beyond_float_resolution(monkeypatch):
    """g = 2cos(pi/5) is the golden ratio, and L_k - g^k = (-1/g)^k with the
    Lucas number L_k is far below the float bound of its coefficients, so
    only the exact fallback can give its sign."""
    ring = _CyclotomicRing(10)
    fallback = []
    exact = ring._sign_mpmath
    monkeypatch.setattr(ring, "_sign_mpmath", lambda x, l1: fallback.append(x) or exact(x, l1))
    power, lucas = {0: 1}, [2, 1]
    for k in range(1, 61):
        power = ring.times_twocos(power, 5)
        lucas.append(lucas[-1] + lucas[-2])
        x = {e: -c for e, c in power.items()}
        x[0] = x.get(0, 0) + lucas[k]
        x = {e: c for e, c in x.items() if c}
        assert ring.sign(x) == (-1) ** k
    assert len(fallback) > 10
