"""Byte pins on the rendered outputs: SHA-256 digests of tessellation, carpet
and K5-scaffold documents.  The digests were computed from the code before
the tessellation's two orbit walks became one, so a refactor of the
rendering paths has to keep every byte."""

import hashlib

from coxbound.carpet import (build_carpet_approx, build_k5_scaffold, carpet_svg,
                             scaffold_svg, scaffold_to_json)
from coxbound.davis import tessellation_svg
from coxbound.system import make_system

# labels (m_ab, m_bc, m_ac) and depth of each triangle group that the
# word-problem benchmark workload renders (perfbench/workloads.py)
TESSELLATIONS = [((2, 3, 5), 15), ((3, 3, 3), 16), ((2, 4, 4), 16), ((2, 3, 6), 16),
                 ((2, 3, 7), 16), ((3, 3, 4), 10), ((4, 5, 6), 8)]

DIGESTS = {
    "tessellation_svg abc (2, 3, 5) depth 15":
        "90b6fc7b4faae4585a0b230d1b17101cee95c68e755adab562825ff2a791a2b8",
    "tessellation_svg cab (2, 3, 5) depth 15":
        "469094a4cef06b460a48cb0af350abfec1e89545ba450d7d2809c4e20b3b4000",
    "tessellation_svg abc (3, 3, 3) depth 16":
        "61dab40b6771898a0b37463ac2f598af32266d9f8a14b5895fe27e3f6f09c975",
    "tessellation_svg cab (3, 3, 3) depth 16":
        "61dab40b6771898a0b37463ac2f598af32266d9f8a14b5895fe27e3f6f09c975",
    "tessellation_svg abc (2, 4, 4) depth 16":
        "77a944841996e0a712eb246f5f681c8775ed6b642e50e3848ee269dc47d7e1d4",
    "tessellation_svg cab (2, 4, 4) depth 16":
        "0ed16038db28f41a93fc2d85cd6f53b2d1b2e83ca41ca9a8c9babb185ec5fde6",
    "tessellation_svg abc (2, 3, 6) depth 16":
        "7d888127549f87c31fdb7cadf7a2287063a590910ace81b1fba14c556ca1ee89",
    "tessellation_svg cab (2, 3, 6) depth 16":
        "f664d83480e3869f048917187cc8975ac8a705c86ab86214f8c96b24ca2b66b0",
    "tessellation_svg abc (2, 3, 7) depth 16":
        "57179db8fa192e26fd776ee3be393967a8829bdd6106edb32245376dcc7566b0",
    "tessellation_svg cab (2, 3, 7) depth 16":
        "58f55849873d2352420f6e59ef32098200d3e0dc37c5954a18b0dbc74622b118",
    "tessellation_svg abc (3, 3, 4) depth 10":
        "2085f8975532ed4fb21e52742b7881aafd8bfcf639f37ba80f164e70b1471233",
    "tessellation_svg cab (3, 3, 4) depth 10":
        "0d75eb68daa0d4f38daac60cce5bfb08983cdcce53053b535d4deb710a25ce1b",
    "tessellation_svg abc (4, 5, 6) depth 8":
        "9b90a427a196e9fc4d860b4857823b51f39936bc7c65e7682b21d000785467f1",
    "tessellation_svg cab (4, 5, 6) depth 8":
        "520e390e6090faf7e5607717a0cceea0a5ac36320b90508a0a08ba0cdc1137f5",
    "carpet_svg level 3":
        "bfe0fcbcf73d2844ef66daf58b046e94253634327855eb918bae511bc236e95b",
    "scaffold_to_json level 2":
        "15f4b8d33531ac3fa0faed8897c80e92f74e94cb1f18f1a58f2b6febcbeb0d55",
    "scaffold_svg level 2":
        "e6f57542a40e85dbbbba2dbad58405729338ce00839280a3b55fa3138689472c",
}


def _outputs():
    for (ab, bc, ac), depth in TESSELLATIONS:
        # two generator orders: the chamber and the reflection order follow it
        for gens in ("abc", "cab"):
            sysm = make_system(gens, {("a", "b"): ab, ("b", "c"): bc, ("a", "c"): ac})
            yield f"tessellation_svg {gens} {(ab, bc, ac)} depth {depth}", \
                tessellation_svg(sysm, depth)
    yield "carpet_svg level 3", carpet_svg(build_carpet_approx(3))
    scaffold = build_k5_scaffold(2)
    yield "scaffold_to_json level 2", scaffold_to_json(scaffold)
    yield "scaffold_svg level 2", scaffold_svg(scaffold)


def test_output_bytes_pinned():
    got = {name: hashlib.sha256(text.encode()).hexdigest() for name, text in _outputs()}
    assert got == DIGESTS
