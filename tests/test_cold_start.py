"""No command loads numpy, networkx, dataclasses or inspect.

Each command runs through `cli.main` in a fresh interpreter that imports the
package from `src`, and then reports which of the four modules it loaded.
`tessellate` draws its triangles in plain floats, and the carpet router of
`k5` runs on integer arrays, so neither needs numpy or networkx; both are
test dependencies only.  The library's records are `NamedTuple`s and plain
classes, so no command loads `dataclasses`, nor the `inspect` it pulls in.
`tests/test_networkx_guard.py` checks that no library module imports numpy,
networkx or dataclasses.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from coxbound import carpet
from coxbound.carpet import build_k5_scaffold, scaffold_to_json

SRC = Path(__file__).resolve().parent.parent / "src"

K4_TEXT = "gens a b c d\n" + "".join(
    f"{s} {t} 3\n" for s, t in
    [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "d")])
K3_TEXT = "gens a b c\na b 2\na c 3\nb c 5\n"

PROBE = """
import json, sys
argv = json.loads(sys.argv[1])
if argv is None:
    import coxbound
    code = 0
else:
    from coxbound import cli
    code = cli.main(argv)
print(json.dumps({"exit": code, "numpy": "numpy" in sys.modules,
                  "networkx": "networkx" in sys.modules,
                  "dataclasses": "dataclasses" in sys.modules,
                  "inspect": "inspect" in sys.modules}))
"""


def _loaded(argv, cwd):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", PROBE, json.dumps(argv)], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


# (argv with {k4}, {k3} and {out} placeholders, numpy loaded, networkx loaded)
COMMANDS = {
    "import": (None, False, False),
    "classify": (["classify", "--input", "{k4}", "--out", "{out}"], False, False),
    "sweep": (["sweep", "--n-min", "3", "--n-max", "4", "--out", "{out}"], False, False),
    "nerve": (["nerve", "--input", "{k4}", "--out", "{out}"], False, False),
    "davis-ball": (["davis-ball", "--input", "{k4}", "--radius", "2", "--out", "{out}"],
                   False, False),
    "carpet": (["carpet", "--level", "2", "--format", "svg", "--out", "{out}"], False, False),
    "tessellate": (["tessellate", "--input", "{k3}", "--depth", "3", "--out", "{out}"],
                   False, False),
    "k5": (["k5", "--level", "2", "--out", "{out}"], False, False),
}


@pytest.mark.parametrize("name", list(COMMANDS))
def test_command_loads_only_what_it_uses(name, tmp_path):
    argv, numpy_loaded, networkx_loaded = COMMANDS[name]
    (tmp_path / "k4.cox").write_text(K4_TEXT)
    (tmp_path / "k3.cox").write_text(K3_TEXT)
    paths = {"k4": str(tmp_path / "k4.cox"), "k3": str(tmp_path / "k3.cox"),
             "out": str(tmp_path / "out")}
    if argv is not None:
        argv = [arg.format(**paths) for arg in argv]
    seen = _loaded(argv, tmp_path)
    assert seen["exit"] == 0
    if argv is not None:
        assert (tmp_path / "out").exists()
    assert seen["networkx"] is networkx_loaded
    assert seen["numpy"] is numpy_loaded
    assert seen["dataclasses"] is False
    assert seen["inspect"] is False


def test_carpet_nx_attribute_reaches_the_router():
    """The router looks its flow routine up as `carpet.nx.node_disjoint_paths`
    at call time, so a stand-in assigned to `carpet.nx` sees every call."""
    with pytest.raises(AttributeError):
        carpet.no_such_attribute

    calls = []
    original = carpet.nx

    class CountingRouter:
        def node_disjoint_paths(self, *args, **kwargs):
            calls.append(args[1])
            return original.node_disjoint_paths(*args, **kwargs)

    # a seeded scaffold routes five distinct stars
    expected = scaffold_to_json(build_k5_scaffold(2, seed=0))
    carpet.nx = CountingRouter()
    try:
        routed = scaffold_to_json(build_k5_scaffold(2, seed=0))
    finally:
        carpet.nx = original
    assert len(calls) >= 5                # at least one candidate center per star
    assert routed == expected
    # the unseeded one marks every copy alike, so its five copies share one star
    unseeded = build_k5_scaffold(2)
    assert all(star is unseeded.stars[0] for star in unseeded.stars)
