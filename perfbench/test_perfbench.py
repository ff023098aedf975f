"""Tests of the benchmark itself (not part of the package's tier-1 suite).

    python3 -m pytest -q perfbench/test_perfbench.py

Run from the repository root.  Each workload is served twice on a reduced
plan in fresh interpreters; exact counts and output digests must repeat.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import layer_metrics, Tracer  # noqa: E402


def test_benchmark_json_matches_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    layers = list(layer_metrics(Tracer())) + ["trace.overhead_s"]
    assert [m["name"] for m in spec["per_layer"]] == layers
    assert all(m["unit"] == run.layer_unit(m["name"]) for m in spec["per_layer"])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_plan_depends_only_on_seed(workload, tmp_path):
    a = workloads.build_plan(workload, 7, tmp_path / "a")
    b = workloads.build_plan(workload, 7, tmp_path / "b")
    c = workloads.build_plan(workload, 8, tmp_path / "c")
    assert a == b
    assert sorted(p.read_text() for p in (tmp_path / "a").rglob("*.cox")) == \
        sorted(p.read_text() for p in (tmp_path / "b").rglob("*.cox"))
    assert a != c


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(2000) == 99
    assert run.tail_percentile(640) == 95
    assert run.tail_percentile(40) == 75
    assert run.tail_percentile(19) is None
    assert run.percentile(list(range(1, 101)), 99) == 99


def _reduced_plan(workload, workdir):
    """The workload's plan with its slowest requests dropped."""
    if workload == "classify-sweep":
        return workloads.build_plan(workload, 3, workdir, size=100)
    plan = workloads.build_plan(workload, 3, workdir)
    slow = {"coset": lambda r: r["cap"] > 20_000 or r["expect"].get("order", 0) > 20_000,
            "davis-ball": lambda r: int(r["argv"][r["argv"].index("--radius") + 1]) > 5
            and r["expect"]["order"] is None,
            "k5": lambda r: "3" in r["argv"],
            "carpet": lambda r: r["expect"]["level"] > 4}
    plan = [r for r in plan if not slow.get(r["kind"], lambda r: False)(r)]
    (workdir / "plan.json").write_text(json.dumps(plan))
    return plan


def _traced_pass(workdir, index):
    result = workdir / f"pass{index}.json"
    subprocess.run([sys.executable, str(HERE / "worker.py"), "--root", str(ROOT),
                    "--workdir", str(workdir), "--trace", "1", "--result", str(result)],
                   check=True, timeout=300)
    return json.loads(result.read_text())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_counts_and_digest_repeat_exactly(workload, tmp_path):
    plan = _reduced_plan(workload, tmp_path)
    first, second = _traced_pass(tmp_path, 0), _traced_pass(tmp_path, 1)
    assert first["digest"] == second["digest"]
    counts = [{k: v for k, v in p["layers"].items() if run.layer_unit(k) in ("count", "bytes")}
              for p in (first, second)]
    assert counts[0] == counts[1]
    # only the documented exit-code escapes may fail; every output check holds
    assert all(f["kind"] == "invalid" for f in first["failures"]), first["failures"]
    kinds = {r["kind"] for r in plan}
    if "classify" in kinds:
        assert counts[0]["system.is_finite_type.calls"] > 0
    if "coset" in kinds:
        assert counts[0]["words.todd_coxeter_enumerate.cosets_defined"] > 0
        assert counts[0]["words.multiply.calls"] > 0
    if "k5" in kinds:
        assert counts[0]["carpet.router.candidates"] > 0
        assert counts[0]["geometry.segment_in_box.calls"] > 0


def test_compare_refuses_other_backend():
    base = {"env": {"coset_backend": "python", "python": "3.11.7"}, "workload": "w",
            "trace": 0, "seed": 1, "metrics": {"wall_s": (1.0, "s")}, "layers": {},
            "digest": "x"}
    new = json.loads(json.dumps(base))
    new["metrics"]["wall_s"] = (1.5, "s")
    lines = compare.compare(base, new, {"wall_s": (0.1, "lower")})
    assert any("WORSE THAN BOUND" in ln for ln in lines)
    new["env"]["coset_backend"] = "cython"
    with pytest.raises(ValueError):
        compare.compare(base, new, {})
