"""One pass of a benchmark plan, in a fresh interpreter with one client.

    python3 perfbench/worker.py --root ROOT --workdir DIR --trace 0|1 --result FILE
    python3 perfbench/worker.py --root ROOT --setup-only

Imports coxbound from ROOT/src and times the import plus building the CLI
parser (the program's set-up).  Then serves the plan in DIR/plan.json in
order, closed loop: CLI requests go through `coxbound.cli.main(argv)`
in-process (argparse, file I/O, emission and exit codes included), library
requests call `todd_coxeter_enumerate` / `tits_normal_form`.  Only the
requests are timed; input parsing for library calls and every output check
run outside the timed intervals, after the peak RSS has been read.

The host's CPU speed drifts by tens of percent over seconds (shared cores),
so between requests a fixed reference probe is timed every PROBE_EVERY_S.
Times are reported in reference seconds: measured seconds times
(PROBE_REF_S / the pass's median probe time) ** PROBE_EXPONENT.  The raw
total is kept too.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

_clock = time.perf_counter

PROBE_REF_S = 0.001        # probe time that defines one reference second
PROBE_EVERY_S = 0.05
# The probe's time swings more than the workloads' (a tight loop gains more
# from an idle host than code that waits on memory).  Regressing log pass time
# on log probe time over 50 passes of the three workloads gave slopes of
# 0.55-0.77 on a 2-vCPU shared host.
PROBE_EXPONENT = 0.7
SETUP_PROBES = 30          # probes after a set-up-only import


def _probe_work():
    """Fixed interpreter-bound work (about 1 ms) in the mix coxbound spends
    its time in: tuple keys, dict lookups, small ints, list and set building."""
    table = {}
    for i in range(1500):
        key = (i % 7, i % 11, i % 13)
        table[key] = table.get(key, 0) + (i & 15)
    xs = sorted((i * 7919) % 1000 for i in range(2000))
    return table, {tuple(xs[i:i + 3]) for i in range(0, 2000, 3)}


class HostSpeed:
    """Reference-probe timings taken between requests."""

    def __init__(self):
        self.samples: list[float] = []
        self._last = float("-inf")

    def probe(self) -> None:
        t0 = _clock()
        _probe_work()
        self._last = _clock()
        self.samples.append(self._last - t0)

    def maybe_probe(self) -> None:
        if _clock() - self._last >= PROBE_EVERY_S:
            self.probe()

    def scale(self) -> float:
        """Reference seconds per measured second over the pass."""
        return (PROBE_REF_S / statistics.median(self.samples)) ** PROBE_EXPONENT


def _import_program(root: Path) -> float:
    """Import coxbound from root/src and build the CLI parser; return seconds."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    t0 = _clock()
    import coxbound
    from coxbound import cli
    cli.build_parser()
    elapsed = _clock() - t0
    if Path(coxbound.__file__).resolve().parent != src / "coxbound":
        raise SystemExit(f"coxbound imported from {coxbound.__file__}, not from {src}")
    return elapsed


# --- serving ------------------------------------------------------------------

def _serve_cli(cli, req, tracer):
    err = io.StringIO()
    exc = None
    with contextlib.redirect_stderr(err):
        t0 = _clock()
        frame = tracer.enter("cli.main") if tracer else None
        try:
            code = cli.main(req["argv"])
        except SystemExit as e:            # argparse usage errors
            code = e.code
        except Exception as e:             # an escaped traceback is a failed request
            code, exc = None, f"{type(e).__name__}: {e}"
        finally:
            if tracer:
                tracer.exit(frame)
        elapsed = _clock() - t0
    return [elapsed], {"exit": code, "stderr": err.getvalue(), "exc": exc}


def _serve_library(words, system_cache, req):
    from coxbound.system import parse_system

    sysm = parse_system(Path(req["system"]).read_text())
    system_cache[req["id"]] = sysm
    latencies, results = [], []
    try:
        if req["kind"] == "coset":
            t0 = _clock()
            table = words.todd_coxeter_enumerate(sysm, req["subset"], cap=req["cap"])
            latencies.append(_clock() - t0)
            results.append(table)
        else:
            for word in req["words"]:
                t0 = _clock()
                nf = words.tits_normal_form(sysm, word)
                latencies.append(_clock() - t0)
                results.append(nf)
    except Exception as e:
        return latencies, {"exc": f"{type(e).__name__}: {e}", "results": results}
    return latencies, {"exc": None, "results": results}


# --- checking -------------------------------------------------------------------

class CheckFailed(Exception):
    pass


def _require(cond, msg):
    if not cond:
        raise CheckFailed(msg)


def _check_cli(req, outcome, system_of):
    """Validate one CLI request; return the bytes that enter the digest."""
    exp = req["expect"]
    _require(outcome["exc"] is None, f"uncaught {outcome['exc']}")
    _require(outcome["exit"] == exp["exit"],
             f"exit {outcome['exit']}, expected {exp['exit']}: {outcome['stderr'].strip()[:200]}")
    out = Path(req["out"])
    if exp["exit"] == 1:
        _require(outcome["stderr"].startswith("error:"), "no 'error:' line on stderr")
        return b""
    kind = req["kind"]
    if kind == "k5":
        _require("verify_k5_graph: pass" in outcome["stderr"], "verify_k5_graph did not pass")
        data = (out / "scaffold.json").read_bytes()
        svg = (out / "scaffold.svg").read_bytes()
        scaffold = json.loads(data)
        _require(scaffold["adjacency"] == [[int(i != j) for j in range(5)] for i in range(5)],
                 "scaffold adjacency is not K5")
        _require(svg.startswith(b"<svg") and svg.rstrip().endswith(b"</svg>"), "bad scaffold svg")
        return data + svg
    data = out.read_bytes()
    if kind == "classify":
        report = json.loads(data)
        tag = report["boundary"].split("(")[0]
        _require(tag == exp["boundary"], f"boundary {report['boundary']}, planted {exp['boundary']}")
    elif kind == "carpet":
        level = exp["level"]
        removed = (8 ** level - 1) // 7
        if exp["format"] == "json":
            payload = json.loads(data)
            _require(payload == {"level": level, "kept": 8 ** level, "removed": removed,
                                 "null_family_exceeding_1_5": 1}, f"carpet payload {payload}")
        else:
            _require(data.count(b"<rect") == removed + 1, "carpet svg square count")
    elif kind == "davis-ball":
        _check_davis(data, system_of(req), exp)
    elif kind == "tessellate":
        from coxbound.words import cayley_ball

        triangles = data.count(b"<polygon")
        expected = cayley_ball(system_of(req), exp["depth"]).size
        _require(triangles == expected,
                 f"{triangles} triangles, ball of radius {exp['depth']} has {expected}")
    return data


def _check_davis(data, sysm, exp):
    from coxbound.davis import DavisBall, link_matches_nerve, vertex_link
    from coxbound.nerve import build_nerve
    from coxbound.system import INF, subgroup_order

    raw = json.loads(data)

    def vertex(text):
        return tuple(text.split())

    ball = DavisBall(
        sysm, raw["radius"], tuple(vertex(v) for v in raw["vertices"]),
        tuple((vertex(a), vertex(b), s) for a, b, s in raw["edges"]),
        tuple((f["pair"][0], f["pair"][1], tuple(vertex(c) for c in f["cycle"]))
              for f in raw["faces"]))
    nerve = build_nerve(sysm, max_dim=2)
    max_m = max(int(m) for m in (sysm.m(s, t) for s, t in sysm.pairs()) if m != INF)
    interior = [v for v in ball.vertices if len(v) <= ball.radius - max_m]
    _require(interior, "ball has no interior vertex to check")
    for v in interior:
        _require(link_matches_nerve(vertex_link(ball, v), nerve),
                 f"link at {' '.join(v) or 'identity'} does not match the nerve")
    if exp["order"] is not None:
        order = subgroup_order(sysm, sysm.generators)
        _require(len(ball.vertices) == order == exp["order"],
                 f"finite ball has {len(ball.vertices)} vertices, group order {order}")


def _check_library(req, outcome, sysm):
    from coxbound.system import subgroup_order
    from coxbound.words import tits_normal_form

    _require(outcome["exc"] is None, f"uncaught {outcome['exc']}")
    if req["kind"] == "coset":
        (table,) = outcome["results"]
        if req["expect"]["finite"]:
            order = subgroup_order(sysm, req["subset"])
            _require(table.complete and table.order == order,
                     f"coset table complete={table.complete} order={table.order}, "
                     f"subgroup_order {order}")
            _require(req["expect"].get("order", order) == order, f"planted order differs: {order}")
        else:
            _require(not table.complete, "infinite group reported complete")
        return f"{table.complete} {table.order} {table.cosets_defined}".encode()
    lines = []
    for word, nf in zip(req["words"], outcome["results"]):
        _require(len(nf.word) <= len(word) and (len(word) - len(nf.word)) % 2 == 0,
                 f"normal form {nf.word} has the wrong length for {word}")
        _require(tits_normal_form(sysm, nf.word) == nf, f"normal form of {word} not idempotent")
        lines.append(" ".join(nf.word))
    return "\n".join(lines).encode()


# --- main -----------------------------------------------------------------------

def setup_only(root: Path) -> dict:
    raw = _import_program(root)
    speed = HostSpeed()
    for _ in range(SETUP_PROBES):
        speed.probe()
    return {"setup_s": raw * speed.scale(), "raw_setup_s": raw}


def run_pass(root: Path, workdir: Path, traced: bool, spans_path: Path | None) -> dict:
    raw_setup_s = _import_program(root)
    import coxbound
    import coxbound.words as words
    import networkx
    import numpy
    from coxbound import cli
    from coxbound.system import parse_system

    plan = json.loads((workdir / "plan.json").read_text())
    os.chdir(workdir)
    shutil.rmtree("out", ignore_errors=True)
    os.mkdir("out")

    tracer = None
    if traced:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    systems: dict = {}
    speed = HostSpeed()
    outcomes, timed = [], []
    for req in plan:
        speed.maybe_probe()
        if tracer:
            tracer.request = req["id"]
        if "argv" in req:
            lat, outcome = _serve_cli(cli, req, tracer)
        else:
            lat, outcome = _serve_library(words, systems, req)
        timed.append((req["kind"], lat))
        outcomes.append(outcome)
    speed.probe()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.uninstall()

    latencies: dict[str, list] = {}      # kind -> reference seconds, request order
    scale = speed.scale()
    for kind, lat in timed:
        latencies.setdefault(kind, []).extend(x * scale for x in lat)
    raw_wall_s = sum(sum(lat) for _, lat in timed)

    def system_of(req):
        return parse_system(Path(req["argv"][req["argv"].index("--input") + 1]).read_text())

    digest = hashlib.sha256()
    failures = []
    for req, outcome in zip(plan, outcomes):
        try:
            if "argv" in req:
                payload = _check_cli(req, outcome, system_of)
            else:
                payload = _check_library(req, outcome, systems[req["id"]])
        except CheckFailed as e:
            failures.append({"id": req["id"], "kind": req["kind"], "error": str(e)})
            payload = b"FAILED"
        except Exception as e:             # a malformed output is a failed request
            failures.append({"id": req["id"], "kind": req["kind"],
                             "error": f"unreadable output: {e!r}"})
            payload = b"FAILED"
        head = {k: outcome.get(k) for k in ("exit", "exc", "stderr")}
        digest.update(json.dumps([req["id"], req["kind"], head]).encode() + b"\0" + payload + b"\0")

    result = {
        "setup_s": raw_setup_s * scale,
        "raw_setup_s": raw_setup_s,
        "wall_s": sum(sum(v) for v in latencies.values()),
        "raw_wall_s": raw_wall_s,
        "probe_ms": statistics.median(speed.samples) * 1e3,
        "peak_rss_mb": peak_rss_mb,
        "latencies": latencies,
        "attempted": len(plan),
        "failures": failures,
        "digest": digest.hexdigest(),
        "env": {"coset_backend": coxbound.COSET_BACKEND,
                "python": platform.python_version(),
                "numpy": numpy.__version__, "networkx": networkx.__version__},
    }
    if tracer:
        from tracing import layer_metrics

        result["layers"] = layer_metrics(tracer)
        if spans_path is not None:
            tracer.dump(spans_path)
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True, type=Path)
    ap.add_argument("--workdir", type=Path)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--result", type=Path)
    ap.add_argument("--spans", type=Path)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    root = args.root.resolve()
    if args.setup_only:
        print(json.dumps(setup_only(root)))
        return 0
    result_path = args.result.resolve()        # before run_pass changes directory
    result = run_pass(root, args.workdir.resolve(), bool(args.trace),
                      args.spans.resolve() if args.spans else None)
    result_path.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
