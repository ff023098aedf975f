"""Span and counter recorder for the traced benchmark run.

coxbound has no instrumentation of its own, so the recorder wraps its public
functions from outside, at every name their callers look them up by (for
example `coxbound.nerve.is_finite_type` as well as
`coxbound.system.is_finite_type`), and restores the originals on `uninstall`.

Three kinds of wrapper:

* span: one record per call (name, start, end, parent span, request id,
  self time), kept in memory and written out at the end of the run;
* leaf: functions called up to millions of times per run (`is_finite_type`,
  `normal_form`, ...) are aggregated into per-name call counts and time
  instead of individual records; their time is still charged to the
  enclosing span as child time, so every self time stays exact;
* count: call counts only, for the cheapest leaves (`multiply`, the segment
  predicates), where two clock reads would cost more than the call.

Self time is a span's duration minus the time covered by its child spans and
leaves; calls are sequential (one thread), so children never overlap.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []        # (id, name, start, end, parent, request, self)
        self.leaves: dict[str, list] = defaultdict(lambda: [0, 0.0])   # name -> [calls, s]
        self.counts: Counter = Counter()
        self.request = None                 # id of the request being served
        self._stack: list[list] = []        # open spans: [id, name, start, child_s]
        self._opened = 0                    # span ids are numbered in opening order
        self._patches: list[tuple] = []     # (owner, attribute, original)
        self._in_multiply = 0

    # --- span bookkeeping -------------------------------------------------------

    def enter(self, name: str) -> list:
        frame = [self._opened, name, 0.0, 0.0]
        self._opened += 1
        self._stack.append(frame)
        frame[2] = _clock()
        return frame

    def exit(self, frame: list) -> None:
        end = _clock()
        self._stack.pop()
        duration = end - frame[2]
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        self.spans.append((frame[0], frame[1], frame[2], end,
                           parent[0] if parent else None, self.request, duration - frame[3]))

    def _span(self, name, fn, on_result):
        def wrapper(*args, **kwargs):
            frame = self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit(frame)
            if on_result is not None:
                on_result(self, result)
            return result
        return wrapper

    def _leaf(self, name, fn):
        agg = self.leaves[name]
        stack = self._stack

        def wrapper(*args, **kwargs):
            t0 = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = _clock() - t0
                agg[0] += 1
                agg[1] += dt
                if stack:
                    stack[-1][3] += dt
        return wrapper

    def _count(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # --- installation -----------------------------------------------------------

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _wrap_everywhere(self, original, replacement):
        """Rebind every coxbound module global that refers to `original`."""
        for modname, mod in list(sys.modules.items()):
            if modname == "coxbound" or modname.startswith("coxbound."):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, replacement)

    def install(self) -> None:
        import coxbound.carpet as carpet
        import coxbound.words as words

        for (module, fname), (kind, name, hook) in TARGETS.items():
            fn = getattr(sys.modules[module], fname)
            if kind == "span":
                wrapped = self._span(name, fn, hook)
            elif kind == "leaf":
                wrapped = self._leaf(name, fn)
            else:
                wrapped = self._count(name, fn)
            self._wrap_everywhere(fn, wrapped)

        # WordContext methods: multiply is counted, and normal_form calls made
        # from inside multiply are its memo misses
        ctx = words.WordContext
        multiply, normal_form = ctx.multiply, ctx.normal_form
        timed_nf = self._leaf("words.normal_form", normal_form)
        counts = self.counts
        tracer = self

        def traced_multiply(this, nf, s):
            counts["words.multiply.calls"] += 1
            tracer._in_multiply += 1
            try:
                return multiply(this, nf, s)
            finally:
                tracer._in_multiply -= 1

        def traced_normal_form(this, word):
            if tracer._in_multiply:
                counts["words.multiply.memo_misses"] += 1
            return timed_nf(this, word)

        self._patch(ctx, "multiply", traced_multiply)
        self._patch(ctx, "normal_form", traced_normal_form)

        # the router calls nx.node_disjoint_paths through carpet's `nx` name
        self._patch(carpet, "nx", _RouterNetworkx(self, carpet.nx))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # --- results ----------------------------------------------------------------

    def span_totals(self) -> dict[str, list]:
        """name -> [calls, total seconds, self seconds]."""
        out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for _, name, start, end, _, _, self_s in self.spans:
            agg = out[name]
            agg[0] += 1
            agg[1] += end - start
            agg[2] += self_s
        return out

    def dump(self, path) -> None:
        """Write every span as one tab-separated line."""
        with open(path, "w") as fh:
            fh.write("id\tname\tstart\tend\tparent\trequest\tself\n")
            for row in self.spans:
                fh.write("\t".join("" if v is None else str(v) for v in row) + "\n")


class _RouterNetworkx:
    """Stands in for the networkx module inside coxbound.carpet: forwards every
    attribute, and records each node_disjoint_paths call (one router
    candidate) as a span that covers consuming its paths."""

    def __init__(self, tracer: Tracer, nx):
        self._tracer = tracer
        self._nx = nx

    def __getattr__(self, attr):
        return getattr(self._nx, attr)

    def node_disjoint_paths(self, *args, **kwargs):
        frame = self._tracer.enter("carpet.router.paths")
        try:
            return list(self._nx.node_disjoint_paths(*args, **kwargs))
        finally:
            self._tracer.exit(frame)


def _add(key, measure):
    def hook(tracer: Tracer, result):
        tracer.counts[key] += measure(result)
    return hook


def _coset_hook(tracer: Tracer, table):
    tracer.counts["words.todd_coxeter_enumerate.cosets_defined"] += table.cosets_defined
    if table.complete:
        tracer.counts["coset.complete_orders"] += table.order
        tracer.counts["coset.complete_defined"] += table.cosets_defined
    else:
        tracer.counts["words.todd_coxeter_enumerate.cap_hits"] += 1


def _utf8_len(text: str) -> int:
    return len(text.encode())


# (module, function) -> (kind, metric name, result hook)
TARGETS = {
    ("coxbound.system", "parse_system"): ("span", "system.parse_system", None),
    ("coxbound.system", "is_finite_type"): ("leaf", "system.is_finite_type", None),
    ("coxbound.system", "triangle_type"): ("leaf", "system.triangle_type", None),
    ("coxbound.nerve", "build_nerve"): (
        "span", "nerve.build_nerve", _add("nerve.simplices", lambda n: len(n.simplices))),
    ("coxbound.classify", "classify_boundary"): ("span", "classify.classify_boundary", None),
    ("coxbound.classify", "report_to_json"): (
        "span", "classify.report_to_json", _add("classify.report_to_json.bytes", _utf8_len)),
    ("coxbound.words", "tits_normal_form"): ("span", "words.tits_normal_form", None),
    ("coxbound.words", "todd_coxeter_enumerate"): (
        "span", "words.todd_coxeter_enumerate", _coset_hook),
    ("coxbound.words", "cayley_ball"): (
        "span", "words.cayley_ball", _add("words.cayley_ball.vertices", lambda b: b.size)),
    ("coxbound.davis", "build_davis_ball"): (
        "span", "davis.build_davis_ball", _add("davis.faces", lambda b: len(b.faces))),
    ("coxbound.davis", "ball_to_json"): (
        "span", "davis.ball_to_json", _add("davis.ball_to_json.bytes", _utf8_len)),
    ("coxbound.davis", "tessellation_svg"): (
        "span", "davis.tessellation_svg",
        _add("davis.tessellation_svg.triangles", lambda svg: svg.count("<polygon"))),
    ("coxbound.carpet", "build_carpet_approx"): (
        "span", "carpet.build_carpet_approx",
        _add("carpet.squares_materialised", lambda c: len(c.kept) + len(c.removed))),
    ("coxbound.carpet", "null_family_check"): ("span", "carpet.null_family_check", None),
    ("coxbound.carpet", "carpet_svg"): (
        "span", "carpet.carpet_svg", _add("carpet.carpet_svg.bytes", _utf8_len)),
    ("coxbound.carpet", "build_k5_scaffold"): ("span", "carpet.build_k5_scaffold", None),
    ("coxbound.carpet", "embed_star_in_carpet"): ("span", "carpet.embed_star_in_carpet", None),
    ("coxbound.carpet", "verify_star_in_carpet"): (
        "span", "carpet.verify_star_in_carpet", None),
    ("coxbound.carpet", "verify_k5_graph"): ("span", "carpet.verify_k5_graph", None),
    ("coxbound.carpet", "scaffold_to_json"): ("span", "carpet.scaffold_to_json", None),
    ("coxbound.carpet", "scaffold_svg"): ("span", "carpet.scaffold_svg", None),
    ("coxbound.geometry", "segment_common"): ("count", "geometry.segment_common.calls", None),
    ("coxbound.geometry", "segment_in_box"): ("count", "geometry.segment_in_box.calls", None),
}


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics of one traced pass (times in ms)."""
    spans = tracer.span_totals()
    leaves = tracer.leaves
    c = tracer.counts

    def ms(x):
        return x * 1000.0

    def span(name):
        return spans.get(name, (0, 0.0, 0.0))

    def leaf(name):
        return leaves.get(name, (0, 0.0))

    mul = c["words.multiply.calls"]
    defined = c["coset.complete_defined"]
    return {
        "cli.self_ms": ms(span("cli.main")[2]),
        "system.parse_system.ms": ms(span("system.parse_system")[1]),
        "system.is_finite_type.calls": leaf("system.is_finite_type")[0],
        "system.is_finite_type.ms": ms(leaf("system.is_finite_type")[1]),
        "system.triangle_type.calls": leaf("system.triangle_type")[0],
        "system.triangle_type.ms": ms(leaf("system.triangle_type")[1]),
        "nerve.build_nerve.calls": span("nerve.build_nerve")[0],
        "nerve.build_nerve.self_ms": ms(span("nerve.build_nerve")[2]),
        "nerve.simplices": c["nerve.simplices"],
        "classify.classify_boundary.self_ms": ms(span("classify.classify_boundary")[2]),
        "classify.report_to_json.ms": ms(span("classify.report_to_json")[1]),
        "classify.report_to_json.bytes": c["classify.report_to_json.bytes"],
        "words.normal_form.calls": leaf("words.normal_form")[0],
        "words.normal_form.self_ms": ms(leaf("words.normal_form")[1]),
        "words.multiply.calls": mul,
        "words.multiply.memo_miss_ratio": c["words.multiply.memo_misses"] / mul if mul else 0.0,
        "words.cayley_ball.self_ms": ms(span("words.cayley_ball")[2]),
        "words.cayley_ball.vertices": c["words.cayley_ball.vertices"],
        "words.tits_normal_form.ms": ms(span("words.tits_normal_form")[1]),
        "words.todd_coxeter_enumerate.ms": ms(span("words.todd_coxeter_enumerate")[1]),
        "words.todd_coxeter_enumerate.cosets_defined":
            c["words.todd_coxeter_enumerate.cosets_defined"],
        "words.todd_coxeter_enumerate.cap_hits": c["words.todd_coxeter_enumerate.cap_hits"],
        "words.todd_coxeter_enumerate.useful_ratio":
            c["coset.complete_orders"] / defined if defined else 0.0,
        "davis.build_davis_ball.self_ms": ms(span("davis.build_davis_ball")[2]),
        "davis.faces": c["davis.faces"],
        "davis.ball_to_json.ms": ms(span("davis.ball_to_json")[1]),
        "davis.ball_to_json.bytes": c["davis.ball_to_json.bytes"],
        "davis.tessellation_svg.ms": ms(span("davis.tessellation_svg")[1]),
        "davis.tessellation_svg.triangles": c["davis.tessellation_svg.triangles"],
        "carpet.build_carpet_approx.ms": ms(span("carpet.build_carpet_approx")[1]),
        "carpet.squares_materialised": c["carpet.squares_materialised"],
        "carpet.null_family_check.ms": ms(span("carpet.null_family_check")[1]),
        "carpet.carpet_svg.ms": ms(span("carpet.carpet_svg")[1]),
        "carpet.carpet_svg.bytes": c["carpet.carpet_svg.bytes"],
        "carpet.embed_star_in_carpet.self_ms": ms(span("carpet.embed_star_in_carpet")[2]),
        "carpet.router.candidates": span("carpet.router.paths")[0],
        "carpet.router.paths_ms": ms(span("carpet.router.paths")[1]),
        "carpet.verify_star_in_carpet.calls": span("carpet.verify_star_in_carpet")[0],
        "carpet.verify_star_in_carpet.ms": ms(span("carpet.verify_star_in_carpet")[1]),
        "carpet.verify_k5_graph.ms": ms(span("carpet.verify_k5_graph")[1]),
        "geometry.segment_common.calls": c["geometry.segment_common.calls"],
        "geometry.segment_in_box.calls": c["geometry.segment_in_box.calls"],
        "carpet.scaffold_to_json.ms": ms(span("carpet.scaffold_to_json")[1]),
        "carpet.scaffold_svg.ms": ms(span("carpet.scaffold_svg")[1]),
    }
