"""coxbound benchmark: three closed-loop workloads, one client each.

    python3 perfbench/run.py --workload classify-sweep|word-problem|carpet-k5|all
                             --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the program is imported from
./src).  The seed makes the workload's inputs (see workloads.py).  Each pass
serves the workload's fixed request list in a fresh interpreter (worker.py);
passes start until --seconds have elapsed (the last one runs to completion),
and the run reports medians over passes.  Set-up (import coxbound + build the CLI parser) is also
timed in SETUP_PROBES extra interpreters.  Times are in reference seconds,
corrected for the host's speed drift (see worker.py); raw_* are as measured.

--trace 0 prints the end-to-end metrics; --trace 1 alternates traced and
untraced passes and prints the per-layer metrics plus the tracing overhead.
The last stdout line is one JSON object {correct, attempted, failed,
metrics}; the full result (all latency percentiles, tails, output digest,
environment) is written to .perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, build_plan  # noqa: E402

SETUP_PROBES = 5
RUN_LIMIT_S = 170          # every run must end within 180 s

# End-to-end metrics declared in BENCHMARK.json, reported on every workload.
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

# Request kind -> (latency metric prefix, unit scale, unit).
LATENCY = {
    "classify": ("classify", 1e3, "ms"),
    "davis-ball": ("davis_ball", 1e3, "ms"),
    "normal_form": ("normal_form", 1e6, "us"),
    "coset": ("coset", 1e3, "ms"),
    "tessellate": ("tessellate", 1e3, "ms"),
    "k5": ("k5", 1e3, "ms"),
    "carpet": ("carpet", 1e3, "ms"),
}
TAIL_PERCENTILES = (99.9, 99, 95, 90, 75)


def percentile(values, p):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def tail_percentile(n: int):
    """Highest of TAIL_PERCENTILES with at least ten of n samples beyond it."""
    for p in TAIL_PERCENTILES:
        if n * (1 - p / 100) >= 10:
            return p
    return None


def layer_unit(name: str) -> str:
    if name.endswith("ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith(".bytes"):
        return "bytes"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


class RunFailed(Exception):
    pass


class Runner:
    def __init__(self, root: Path, deadline: float):
        self.root = root
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONHASHSEED="0")

    def worker(self, *args) -> subprocess.CompletedProcess:
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise RunFailed("time limit reached")
        try:
            proc = subprocess.run([sys.executable, str(HERE / "worker.py"),
                                   "--root", str(self.root), *args],
                                  capture_output=True, text=True, timeout=timeout,
                                  env=self.env)
        except subprocess.TimeoutExpired as exc:
            raise RunFailed("worker exceeded the run's time limit") from exc
        if proc.returncode != 0:
            raise RunFailed(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        return proc

    def setup_probe(self) -> dict:
        return json.loads(self.worker("--setup-only").stdout)

    def one_pass(self, workdir: Path, traced: bool, index: int) -> dict:
        result = workdir / f"pass{index}.json"
        args = ["--workdir", str(workdir), "--trace", str(int(traced)), "--result", str(result)]
        if traced:
            args += ["--spans", str(workdir / f"spans{index}.tsv")]
        t0 = time.monotonic()
        self.worker(*args)
        out = json.loads(result.read_text())
        out["traced"] = traced
        out["elapsed_s"] = time.monotonic() - t0
        return out


def measure(runner: Runner, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Generate the workload, time set-up and passes, aggregate one run."""
    workdir = runner.root / ".perfbench" / "work" / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(workdir, ignore_errors=True)
    build_plan(workload, seed, workdir)

    setups = [runner.setup_probe() for _ in range(SETUP_PROBES)]
    passes: list[dict] = []
    start = time.monotonic()
    # a traced run needs at least one traced and one untraced pass
    while time.monotonic() - start < seconds or (trace and len(passes) < 2):
        traced = trace and len(passes) % 2 == 0       # traced runs alternate modes
        passes.append(runner.one_pass(workdir, traced, len(passes)))
    setups += passes
    plain = [p for p in passes if not p["traced"]]
    traced_passes = [p for p in passes if p["traced"]]

    attempted = sum(p["attempted"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    digests = {p["digest"] for p in passes}
    # `correct`: every valid request's output passed its check and every pass
    # produced the same output digest.  Invalid requests that break the exit
    # code contract count as failed requests (error_rate) but not as wrong output.
    correct = len(digests) == 1 and all(f["kind"] == "invalid" for f in failures)

    def med(key, group):
        return statistics.median(p[key] for p in group)

    metrics = {"setup_s": (med("setup_s", setups), "s"),
               "raw_setup_s": (med("raw_setup_s", setups), "s"),
               "wall_s": (med("wall_s", plain), "s"),
               "raw_wall_s": (med("raw_wall_s", plain), "s"),
               "peak_rss_mb": (med("peak_rss_mb", plain), "MB")}
    tails = {}
    for kind, (prefix, scale, unit) in LATENCY.items():
        per_pass = [p["latencies"][kind] for p in plain if kind in p["latencies"]]
        if not per_pass:
            continue
        metrics[f"{prefix}_p50_{unit}"] = (
            statistics.median(percentile(v, 50) for v in per_pass) * scale, unit)
        if kind == "classify":
            metrics[f"{prefix}_p99_{unit}"] = (
                statistics.median(percentile(v, 99) for v in per_pass) * scale, unit)
        n = len(per_pass[0])
        p = tail_percentile(n)
        if p is not None:
            value = statistics.median(percentile(v, p) for v in per_pass) * scale
            metrics[f"{prefix}_tail_{unit}"] = (value, unit)
            tails[f"{prefix}_tail_{unit}"] = {"percentile": p, "samples": n}
    metrics["error_rate"] = (len(failures) / attempted, "ratio")

    layers = {}
    if trace:
        for name in traced_passes[0]["layers"]:
            # median_low keeps exact counts integral
            layers[name] = (statistics.median_low(p["layers"][name] for p in traced_passes),
                            layer_unit(name))
        layers["trace.overhead_s"] = (med("wall_s", traced_passes) - med("wall_s", plain), "s")
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "passes": len(passes), "setup_samples": len(setups),
        "correct": correct, "attempted": attempted, "failed": len(failures),
        "metrics": metrics, "tails": tails, "layers": layers,
        "time_share": time_share(plain),
        "digest": sorted(digests)[0] if len(digests) == 1 else sorted(digests),
        "failures": failures[:20],
        "env": dict(passes[0]["env"], **host_env(runner.root)),
        "pass_summaries": [{k: p[k] for k in ("traced", "setup_s", "wall_s", "raw_wall_s",
                                              "probe_ms", "peak_rss_mb", "elapsed_s")}
                           for p in passes],
    }


def time_share(passes: list[dict]) -> dict:
    """Share of the timed work per request kind, summed over passes."""
    totals: dict[str, float] = {}
    for p in passes:
        for kind, lat in p["latencies"].items():
            totals[kind] = totals.get(kind, 0.0) + sum(lat)
    whole = sum(totals.values())
    return {k: v / whole for k, v in sorted(totals.items(), key=lambda kv: -kv[1])}


def host_env(root: Path) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    source = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            source.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return {"nproc": os.cpu_count(), "cpu": cpu, "git_commit": git_commit(root),
            "source_sha256": source.hexdigest()}


def git_commit(root: Path):
    """HEAD commit read from .git without running git; None outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def report(run: dict) -> None:
    """Human-readable lines: every metric with its unit."""
    env = run["env"]
    print(f"workload {run['workload']}  seed {run['seed']}  trace {run['trace']}  "
          f"passes {run['passes']}  set-up samples {run['setup_samples']}")
    for name, (value, unit) in run["metrics"].items():
        extra = ""
        if name in run["tails"]:
            t = run["tails"][name]
            extra = f"  (p{t['percentile']:g} of {t['samples']} samples)"
        print(f"  {name:28s} {value:14.4f} {unit}{extra}")
    shares = "  ".join(f"{k} {v:.0%}" for k, v in run["time_share"].items())
    print(f"  time share: {shares}")
    print(f"  {'failed / attempted':28s} {run['failed']:>9d} / {run['attempted']}")
    for f in run["failures"][:5]:
        print(f"    failed request {f['id']} ({f['kind']}): {f['error'][:160]}")
    for name, (value, unit) in run["layers"].items():
        print(f"  {name:44s} {value:14.4f} {unit}")
    print(f"  output digest sha256:{run['digest']}")
    print(f"  env backend={env['coset_backend']} python={env['python']} "
          f"numpy={env['numpy']} networkx={env['networkx']} nproc={env['nproc']} "
          f"cpu={env['cpu']!r} commit={env['git_commit']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd().resolve()
    if not (root / "src" / "coxbound" / "__init__.py").is_file():
        print(f"error: {root} holds no coxbound source tree (src/coxbound)", file=sys.stderr)
        return 2
    runner = Runner(root, time.monotonic() + RUN_LIMIT_S)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    runs = []
    try:
        for workload in workloads:
            runs.append(measure(runner, workload, args.seed, args.seconds, bool(args.trace)))
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    results = root / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    for run in runs:
        report(run)
        name = f"{run['workload']}-seed{run['seed']}-trace{run['trace']}.json"
        (results / name).write_text(json.dumps(run, indent=1))

    declared = END_TO_END if not args.trace else None
    metrics = {}
    for run in runs:
        source = run["metrics"] if not args.trace else run["layers"]
        prefix = "" if len(runs) == 1 else run["workload"] + "."
        for name, (value, unit) in source.items():
            if declared is None or name in declared:
                metrics[prefix + name] = {"value": value, "unit": unit}
    print(json.dumps({"correct": all(r["correct"] for r in runs),
                      "attempted": sum(r["attempted"] for r in runs),
                      "failed": sum(r["failed"] for r in runs),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
