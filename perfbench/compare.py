"""Compare two benchmark results written by run.py.

    python3 perfbench/compare.py BASE.json NEW.json

Both files come from .perfbench/results/.  Results measured with a different
coset backend or Python version are not comparable: the script refuses them
(exit 2).  Otherwise it prints every metric of both runs with the relative
change, flags end-to-end metrics that got worse by more than their bound in
BENCHMARK.json, reports whether the output digests agree, and lists exact
counts (traced runs) that differ.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BOUNDED = ("coset_backend", "python")


def load_bounds(root: Path) -> dict:
    spec = root / "BENCHMARK.json"
    if not spec.is_file():
        return {}
    return {m["name"]: (m["bound"], m["better"])
            for m in json.loads(spec.read_text())["end_to_end"]}


def compare(base: dict, new: dict, bounds: dict) -> list[str]:
    for key in BOUNDED:
        if base["env"][key] != new["env"][key]:
            raise ValueError(f"refusing to compare: {key} differs "
                             f"({base['env'][key]} vs {new['env'][key]})")
    if (base["workload"], base["trace"]) != (new["workload"], new["trace"]):
        raise ValueError("refusing to compare different workloads or trace modes")
    lines = [f"workload {base['workload']}  seeds {base['seed']} -> {new['seed']}"]
    for section in ("metrics", "layers"):
        for name, (old, unit) in base[section].items():
            if name not in new[section]:
                lines.append(f"  {name:44s} missing in NEW")
                continue
            value = new[section][name][0]
            change = (value - old) / old if old else 0.0
            flag = ""
            if name in bounds:
                bound, better = bounds[name]
                worse = change > bound if better == "lower" else -change > bound
                flag = "  WORSE THAN BOUND" if worse else ""
            exact = unit in ("count", "bytes")
            if exact and value != old:
                flag += "  COUNT DIFFERS"
            lines.append(f"  {name:44s} {old:14.4f} -> {value:14.4f} {unit:6s} "
                         f"{change:+8.1%}{flag}")
    same = base["digest"] == new["digest"]
    lines.append(f"  output digest {'identical' if same else 'DIFFERS'}")
    return lines


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    base, new = (json.loads(Path(a).read_text()) for a in argv)
    try:
        lines = compare(base, new, load_bounds(Path.cwd()))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
