"""Byte pins on the rendered outputs: SHA-256 digests of tessellation, carpet
and K5-scaffold documents, and of classify reports and nerve documents.  The
rendering digests were computed from the code before the tessellation's two
orbit walks became one, and the level-3 and seeded scaffold digests from the
code before the carpet kept only its level; the report and nerve digests from
the code before the nerve was decided from the labels and the report got its
own JSON writer; the level-4 and level-5 carpet and level-3 scaffold drawings
from the code that still drew them from `Fraction` squares; the level-4
scaffold from the code that still routed one star per copy; the six
hyperbolic tessellations from the code that framed the Klein disk by the
cosine matrix's LDL^T, each the earlier picture under one Lorentz map.  The
scaffold pins without "corner legs" in their names are those of the code
that wrote a leg through every cell centre of its path: they now hash the
library's scaffold with its legs expanded back to every centre (`_expanded`),
and the "corner legs" pins, computed once that oracle held, hash the
library's own documents, whose legs keep only the centres where the path
turns.  A refactor of those paths has to keep every byte."""

import hashlib
from itertools import combinations

from coxbound.carpet import (build_carpet_approx, build_k5_scaffold, carpet_svg,
                             scaffold_svg, scaffold_to_json)
from coxbound.classify import classify_boundary, report_to_json
from coxbound.davis import ball_to_json, build_davis_ball, tessellation_svg
from coxbound.nerve import build_nerve, nerve_to_json
from coxbound.system import make_system, parse_system
from test_carpet import _expanded

# labels (m_ab, m_bc, m_ac) and depth of each triangle group that the
# word-problem benchmark workload renders (perfbench/workloads.py)
TESSELLATIONS = [((2, 3, 5), 15), ((3, 3, 3), 16), ((2, 4, 4), 16), ((2, 3, 6), 16),
                 ((2, 3, 7), 16), ((3, 3, 4), 10), ((4, 5, 6), 8)]

# (rank, labels in `combinations` order of g0 g1 ..., radius) of each Davis
# ball that the word-problem workload builds (perfbench/workloads.py), then
# its dihedral balls I2(m) at radius m
DAVIS_BALLS = [
    (3, (3, 3, 3), 12), (3, (3, 3, 4), 10), (3, (3, 4, 5), 9), (3, (4, 4, 4), 8),
    (3, (4, 5, 6), 8), (3, (6, 6, 6), 8), (3, (3, 5, "inf"), 9),
    (4, (3,) * 6, 5), (4, (3,) * 6, 6), (4, (3, 3, 4, 4, 5, 5), 5), (4, (4,) * 6, 5),
    (4, (5,) * 6, 5), (4, (3, 4, 5, 3, 4, "inf"), 5),
    (5, (3,) * 10, 4), (5, (3, 4) * 5, 4), (5, (3, 4, 3, 4, 3, 4, 3, 4, "inf", "inf"), 4),
] + [(2, (m,), m) for m in (5, 7, 9)]

# (level, seed, writers) of each pinned K5 scaffold
BOTH = (scaffold_to_json, scaffold_svg)
SCAFFOLDS = [(2, None, BOTH), (3, None, BOTH), (2, 1, (scaffold_to_json,)), (4, None, BOTH)]

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
        "bb9592bf8bc4f5fb38aefb6110afd36ca2c6597d949223d88dc7f83831135a62",
    "tessellation_svg cab (2, 3, 7) depth 16":
        "bebdbbd4f3ba2e0570d6cde8434a21c98b6e5651f9e4c9274c8a7e929137d5f3",
    "tessellation_svg abc (3, 3, 4) depth 10":
        "d73f366ab5e0a6e0deaa3d25b0c89d5316816357e7c42bc830ac59eabb833c75",
    "tessellation_svg cab (3, 3, 4) depth 10":
        "b0dad1a20ead2632d54d5dedb124805086d38a1a8beee5cf5e8ce56564ff49be",
    "tessellation_svg abc (4, 5, 6) depth 8":
        "a1b5c678ec5474255fbd2cbba7bcf932c54d32317a941808ed5bcf0be7787b8c",
    "tessellation_svg cab (4, 5, 6) depth 8":
        "15ab431059811e2022cd9b1240a3a063249bc2ff5aad9263395779cf55a161e6",
    "carpet_svg level 3":
        "bfe0fcbcf73d2844ef66daf58b046e94253634327855eb918bae511bc236e95b",
    "carpet_svg level 4":
        "bfedacbf6839d2838de0979bc522e38277e438ceeed1ca13372b325008a1422b",
    "carpet_svg level 5":
        "d029fb4461ddad7f45c1955745011de6bfe3da1f7399ad42f3db9e217b1c8adf",
    "scaffold_to_json level 2":
        "15f4b8d33531ac3fa0faed8897c80e92f74e94cb1f18f1a58f2b6febcbeb0d55",
    "scaffold_svg level 2":
        "e6f57542a40e85dbbbba2dbad58405729338ce00839280a3b55fa3138689472c",
    "scaffold_to_json level 3":
        "af31d6e15094613059ce071bd4acf8cbf659573a2752ca6327592dc41b5fd2e0",
    "scaffold_svg level 3":
        "d2af9b9d05f54992d7cff3fc3098dcd18b8a96c385e72fd1ca3393ac42edca54",
    "scaffold_to_json level 2 seed 1":
        "14f4d8e4ef65b52604f16b961663b427744a19f98e25bfb603d6fc6ebb8e736b",
    "scaffold_to_json level 4":
        "e64ef0fb9b4c9e28c616b1ff16701d44cb45802024f7b280c3544dcd1a9feb69",
    "scaffold_svg level 4":
        "24629fb95740c170b32231ceb3df4a89617dd5108030dabeeee1d76650e82afc",
    "scaffold_to_json level 2 corner legs":
        "29e3a6c9f36c159b477c83bf0cda101e6b93c7dce7f6eeba5f1acb4191aab803",
    "scaffold_svg level 2 corner legs":
        "1c65f8d413594f134de86683ef1186a8e6c77789bea077457c118427ecb20e9a",
    "scaffold_to_json level 3 corner legs":
        "db230159f9ef5e02e510f428fc682bae423ea82b7d9a4bf23b6a85649fc7a82e",
    "scaffold_svg level 3 corner legs":
        "449d91b60f4ec2fc1bdc3584068a3cb0aec7e314695754f6076f670de29ca6d5",
    "scaffold_to_json level 2 seed 1 corner legs":
        "02dc42d40a2f2583ec90321bf5c305f1edfb8cb97e59b274604b2ca892c05b5e",
    "scaffold_to_json level 4 corner legs":
        "8e938cfb33070416c7e8f4de2aa36f70375ec010e3e7e3d013559143c7367363",
    "scaffold_svg level 4 corner legs":
        "7610982d8b7bc6e47c189a6396620e66fa7713b6d17c73e2e592e06293d990c0",
    "ball_to_json g0 g1 g2 (3, 3, 3) radius 12":
        "5a7432f692b0cee1080f0979204b5247fc249e515560ae33d8a859d047074ce0",
    "ball_to_json g0 g1 g2 (3, 3, 4) radius 10":
        "999c702be9d5c01e8af66d0d1536f0070e9213b251f7107ae34c527bccb5a9e2",
    "ball_to_json g0 g1 g2 (3, 4, 5) radius 9":
        "ca46c97af94daf108919cc5151885ff18008cb63759ddfc92f8ebe0eb95aaa38",
    "ball_to_json g0 g1 g2 (4, 4, 4) radius 8":
        "0668635fb01c15dd5b40ddf0445270e3586bd29941ce686fed2741c6ca05308d",
    "ball_to_json g0 g1 g2 (4, 5, 6) radius 8":
        "4f2066c3123a3f7968f668420ff30808b1387a4761e6cbf7be28ff2a0bcf881e",
    "ball_to_json g0 g1 g2 (6, 6, 6) radius 8":
        "3100cbc361b7fac7e6522ec3b059ac7ec86e75d0ccd7124f2200b4f78ba796a6",
    "ball_to_json g0 g1 g2 (3, 5, 'inf') radius 9":
        "8519b787d013860f9119467a0112b1cfc7ef98b8d799a9ba103beb22bb5ed7b5",
    "ball_to_json g0 g1 g2 g3 (3, 3, 3, 3, 3, 3) radius 5":
        "df4e570ca4ada353b4d9e8afc1a730f6d8fe93dafdcaffbe03a0eb549fd65c0e",
    "ball_to_json g0 g1 g2 g3 (3, 3, 3, 3, 3, 3) radius 6":
        "3e551a937a5ccfbd3c0ba07e0b4d5a300d3bde2b2871109f37855a2f92167c68",
    "ball_to_json g0 g1 g2 g3 (3, 3, 4, 4, 5, 5) radius 5":
        "708b6f2a1a04c1768bbeefbdce8b1db67357e7662d110b03a3a4533e02bdc14e",
    "ball_to_json g0 g1 g2 g3 (4, 4, 4, 4, 4, 4) radius 5":
        "ca901ae7c7614808cc33ad90b62deb90792a2be4168c69232c94f08b099fe59c",
    "ball_to_json g0 g1 g2 g3 (5, 5, 5, 5, 5, 5) radius 5":
        "431a4cc2cc3cc8e82928c64d44a796ce850feeb2827c51e551f0c43936be8e89",
    "ball_to_json g0 g1 g2 g3 (3, 4, 5, 3, 4, 'inf') radius 5":
        "77d4a41b4e5cda3570b1df3b875c4791adf8d6c14b886282fc123ccd287a6ee8",
    "ball_to_json g0 g1 g2 g3 g4 (3, 3, 3, 3, 3, 3, 3, 3, 3, 3) radius 4":
        "3305d591098266427845a4d0dd91018758980296788be6369b41c5610e4d165f",
    "ball_to_json g0 g1 g2 g3 g4 (3, 4, 3, 4, 3, 4, 3, 4, 3, 4) radius 4":
        "638e16a99632f7924662856b48dc9ba49c5b593b62502c2818d6d900d1aa6d17",
    "ball_to_json g0 g1 g2 g3 g4 (3, 4, 3, 4, 3, 4, 3, 4, 'inf', 'inf') radius 4":
        "8dd12274444799cf5d4517faeaafc5ef776542e235b92527a9d1d024e5fb237f",
    "ball_to_json g0 g1 (5,) radius 5":
        "519b135a47aa0aca0b4950d60c1f6f2b7b33830542d4f725f9601ee64f308856",
    "ball_to_json g0 g1 (7,) radius 7":
        "9e35ebfb60b155a7850e9869e8b1826a632bbe1757366444b3da632ae98ace62",
    "ball_to_json g0 g1 (9,) radius 9":
        "be2ff05726cc9db70cd0dca893cad4377592c33c737956ffbd345bbdac1db99e",
    "ball_to_json g2 g1 g0 (3, 3, 3) radius 12":
        "430219db9178553480c0d213a33c102c6a8d00b52f68c09021c8a4dbde733d31",
    "ball_to_json g2 g1 g0 (3, 3, 4) radius 10":
        "c1c005027bee1a5ae00f2e0ea020c23480c0a4c0057c4112cc03fcbdd3e20205",
    "ball_to_json g2 g1 g0 (3, 4, 5) radius 9":
        "7590a8123b13a69df93e60b16219d68aa902cef278920cb22d3ecda290b2884e",
    "ball_to_json g2 g1 g0 (4, 4, 4) radius 8":
        "971f655b2dbbfe5885d231d53ec42797936e879d8195bec18bd953fed02e2c06",
    "ball_to_json g2 g1 g0 (4, 5, 6) radius 8":
        "529bd146ec5a5132245ce071dfdfecc92fbb0e11f80edec6e9863edef436144b",
    "ball_to_json g2 g1 g0 (6, 6, 6) radius 8":
        "1ca2ed03d6d46567cebe43d8d68dbe698a68131829e89f5f4771bf0deb6546bd",
    "ball_to_json g2 g1 g0 (3, 5, 'inf') radius 9":
        "f0a9532fdd6c018a301f9417c4b6d1ceb6d1f92cfb687e5265c86db67af7cc8e",
    "ball_to_json g3 g2 g1 g0 (3, 3, 3, 3, 3, 3) radius 5":
        "53b51b8b20d37d3d7b34b77f48b61a646cea97457f893cda61b80d2744a12c34",
    "ball_to_json g3 g2 g1 g0 (3, 3, 3, 3, 3, 3) radius 6":
        "b3e16ab5e22cdfe63b032338522b7eb326ac18e4169122197aedbf5dea2f134f",
    "ball_to_json g3 g2 g1 g0 (3, 3, 4, 4, 5, 5) radius 5":
        "7594770c0bfa4f9f4472894362ea86e3e983dd31507e996e626263cf2ad42779",
    "ball_to_json g3 g2 g1 g0 (4, 4, 4, 4, 4, 4) radius 5":
        "3215e49f164440e6633de988bf8a3d7de0cdfd8e56820a80fc80421f07592328",
    "ball_to_json g3 g2 g1 g0 (5, 5, 5, 5, 5, 5) radius 5":
        "e467819c02f00c2ac4d18bd921214a82ecd471aa451b10aa0d8a41fb39d506ce",
    "ball_to_json g3 g2 g1 g0 (3, 4, 5, 3, 4, 'inf') radius 5":
        "db4e4c92e329bb1a723096fc9c6e3408d35eb8917d20ca4d87b955a248ef1d5f",
    "ball_to_json g4 g3 g2 g1 g0 (3, 3, 3, 3, 3, 3, 3, 3, 3, 3) radius 4":
        "cb582c4d749bbf566e72507cabedf86c96d6f3689046518e51ce5fe70a6e09f8",
    "ball_to_json g4 g3 g2 g1 g0 (3, 4, 3, 4, 3, 4, 3, 4, 3, 4) radius 4":
        "0b3c2a1af44c0dfe14d71de3d36cd91e410a207d87b576b4fcc5ceb0d17288fe",
    "ball_to_json g4 g3 g2 g1 g0 (3, 4, 3, 4, 3, 4, 3, 4, 'inf', 'inf') radius 4":
        "a5152652a3efe1627fa0e2819ccca45210ad1103f63280415ee9b6ee7239cb6a",
}


def _outputs():
    for (ab, bc, ac), depth in TESSELLATIONS:
        # two generator orders: the chamber and the reflection order follow it
        for gens in ("abc", "cab"):
            sysm = make_system(gens, {("a", "b"): ab, ("b", "c"): bc, ("a", "c"): ac})
            yield f"tessellation_svg {gens} {(ab, bc, ac)} depth {depth}", \
                tessellation_svg(sysm, depth)
    for level in (3, 4, 5):
        yield f"carpet_svg level {level}", carpet_svg(build_carpet_approx(level))
    for level, seed, writers in SCAFFOLDS:
        scaffold = build_k5_scaffold(level, seed)
        name = f"level {level}" + ("" if seed is None else f" seed {seed}")
        for writer in writers:
            yield f"{writer.__name__} {name} corner legs", writer(scaffold)
            # the cell-path document, legs expanded back to every cell centre
            yield f"{writer.__name__} {name}", writer(_expanded(scaffold))
    for rank, labels, radius in DAVIS_BALLS:
        gens = [f"g{i}" for i in range(rank)]
        given = {pair: m for pair, m in zip(combinations(gens, 2), labels) if m != "inf"}
        # from rank 3 also reversed: face rotation and edge order follow the names
        for order in (gens, gens[::-1]) if rank >= 3 else (gens,):
            ball = build_davis_ball(make_system(order, given), radius)
            yield f"ball_to_json {' '.join(order)} {labels} radius {radius}", ball_to_json(ball)


def test_output_bytes_pinned():
    got = {name: hashlib.sha256(text.encode()).hexdigest() for name, text in _outputs()}
    assert got == DIGESTS


# presentations, " / " standing for a line break; K3-K7 are in scope with
# label-2 edges and Euclidean triples, the rest cover the other verdicts
SYSTEMS = {
    "K3": "gens a b c / a b 2 / a c 4 / b c 4",
    "K4": "gens a b c d / a b 6 / a c 3 / a d 4 / b c 2 / b d 6 / c d 3",
    "K5": "gens a b c d e / a b 3 / a c 6 / a d 3 / a e 2 / b c 4 / b d 3 / b e 6"
          " / c d 3 / c e 5 / d e 7",
    "K6": "gens a b c d e f / a b 4 / a c 3 / a d 7 / a e 3 / a f 7 / b c 3 / b d 7"
          " / b e 4 / b f 6 / c d 5 / c e 3 / c f 2 / d e 7 / d f 4 / e f 7",
    "K7": "gens a b c d e f g / a b 6 / a c 7 / a d 5 / a e 7 / a f 4 / a g 4 / b c 4"
          " / b d 6 / b e 4 / b f 2 / b g 3 / c d 6 / c e 4 / c f 4 / c g 5 / d e 4"
          " / d f 3 / d g 4 / e f 6 / e g 5 / f g 6",
    "K4 escaped names": "gens a \"q\" b\\s \u03b4\x07 / a \"q\" 3 / a b\\s 3 / a \u03b4\x07 6"
                        " / \"q\" b\\s 3 / \"q\" \u03b4\x07 2 / b\\s \u03b4\x07 7",
    "H3": "gens a b c / a b 5 / b c 3 / a c 2",
    "nerve dimension 2": "gens a b c d / a b 2 / b c 3 / a c 3 / a d 7 / b d 7 / c d 7",
    "infinite edge": "gens a b c d / a b 3 / a c 4 / b c 5 / a d 3 / b d 3",
    "B5": "gens a b c d e / a b 3 / b c 3 / c d 3 / d e 4 / a c 2 / a d 2 / a e 2"
          " / b d 2 / b e 2 / c e 2",
}

CLASSIFY_DIGESTS = {
    "report_to_json K3":
        "362fb6c35377222419bfa3811f6324101422a44784ebf7a9bcfe0a2295415b31",
    "nerve_to_json K3":
        "899d1803b9dce6ec63410dad12d19fd03d42b70d952ac0841de8f123aa19c0c5",
    "nerve_to_json max_dim 3 K3":
        "89fbe4e5d5224e4aadd864d2ea985ae7a9e5cc57298b7f8e2cb0bbbcb3c1c3c6",
    "report_to_json K4":
        "3fc66a7f99b19825de1e21c57ef87e31c663111401170693d233597777a09ecd",
    "nerve_to_json K4":
        "2fa5dc3e07d8fae80382e8fa76ccaa326467b13e86ad8e31c7bdf58bbb055ce0",
    "nerve_to_json max_dim 3 K4":
        "73fd8d30f622ace132296c06f6f4741fb08f527298f04f9bd628d4ad835f9fd1",
    "report_to_json K5":
        "3de7c7313b24a1612a476fba5010f568d47dd6a027e62fd9ffe5c9a7e5918ee8",
    "nerve_to_json K5":
        "75c0e86daa0f3c3eecad61aa42e595e4418df68af77712b9eace3f1ab77103e3",
    "nerve_to_json max_dim 3 K5":
        "9d1a7dff4ab8c26338f03e9e43925e5c08e0356b66531a0f6bc78bf93c00e287",
    "report_to_json K6":
        "e17b22bc7a593f532bf5c8413d86af65e79000f879b4eb29b804d7b13e1b6350",
    "nerve_to_json K6":
        "6a74a34834035edf75b2dece09c807e1ce84aab2389b20c729944fda07406ca0",
    "nerve_to_json max_dim 3 K6":
        "aea144070223d2d6f63bd1770cac5e4d3596dc78d03ce9a135d0aa40a3f5ca9f",
    "report_to_json K7":
        "ab000bb2cc6893aaa4d636372d18f4234f3cf66e4f02085f6e8447da92a3f3be",
    "nerve_to_json K7":
        "cc96865497946cfffc3a262f1064286c364b1cf3875a7aa03fd79bc385eb5f4c",
    "nerve_to_json max_dim 3 K7":
        "1cad63f140aec9621aa9b111eca78eb7a90718f3e776acf0c38957ad159f240a",
    "report_to_json K4 escaped names":
        "51900fea70e1e127a6c1a24d2ef6625f226a0e1d0a59c2b2989e5626e1c056e6",
    "nerve_to_json K4 escaped names":
        "e7f9a2414012938a6789e1c248e85f27a26ce89a000789bd54e3002225ef8acc",
    "nerve_to_json max_dim 3 K4 escaped names":
        "eda0f6100f8ae770eb7c53ab8369d09e908e79f726ee7cfa6980cb336e5be7b6",
    "report_to_json H3":
        "4bb8d00b4689abf534a1aba46c9fc61c7aa6c8a71dbbb96c3e4ee09e5d4f0b55",
    "nerve_to_json H3":
        "1c59752b7bebcbf93108db018c740895b34047afb23e2d6011b31435cb02e5f3",
    "nerve_to_json max_dim 3 H3":
        "f998ff7fa8e62b085d620fb0f8ed1c41887582707061951a3a64f5e0a1385973",
    "report_to_json nerve dimension 2":
        "60a7a29493abdc98309ec39d084fbf6cc769f9ebceec29d48d8743245c68c674",
    "nerve_to_json nerve dimension 2":
        "527257273771c7a354055587eb5e09221420ab1d12514b3b6e5f6f4b5ffce53b",
    "nerve_to_json max_dim 3 nerve dimension 2":
        "1d455903d74b6236f4d5f5576f1adbf3054def771ed2f999e7f8c771a8c05d39",
    "report_to_json infinite edge":
        "be7ac1a1e9245808d0658f6b4988c601da7bf78331fb68e7e4697a417b7b88c9",
    "nerve_to_json infinite edge":
        "3a8b3342b0019a7620e0169f8bfe7f11ef3576ae6346ef1887c828fb2363c3dc",
    "nerve_to_json max_dim 3 infinite edge":
        "cb9cdd75736facb2ab8c30d29eb0bb9f297eb3e301150f5a75d1f66ca78f5d82",
    "report_to_json B5":
        "affdc19d3d3cc6b9ee24aaf72d84aaed241f5c89feb20b0c0d9d6f147aacceee",
    "nerve_to_json B5":
        "2268513b05d8e264693ead27144cf676a7c9e6fe1c2a15e63927642b297c4cce",
    "nerve_to_json max_dim 3 B5":
        "c07554fc1408adb239a9021fb5da20e209dbd451e00a35bd4704512cc179ae22",
}


def _classify_outputs():
    for name, text in SYSTEMS.items():
        sysm = parse_system(text.replace(" / ", "\n"))
        yield f"report_to_json {name}", report_to_json(classify_boundary(sysm))
        yield f"nerve_to_json {name}", nerve_to_json(sysm, build_nerve(sysm))
        yield f"nerve_to_json max_dim 3 {name}", nerve_to_json(sysm, build_nerve(sysm, 3))


def test_classify_and_nerve_bytes_pinned():
    got = {name: hashlib.sha256(text.encode()).hexdigest()
           for name, text in _classify_outputs()}
    assert got == CLASSIFY_DIGESTS
