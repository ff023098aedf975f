import json
import random
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coxbound.classify
import coxbound.nerve
import coxbound.system
from coxbound.classify import (BoundaryClass, ClassificationReport,
                               classify_boundary, euclidean_triple_scan,
                               isolated_flats_check, report_to_json,
                               serre_fa_criterion)
from coxbound.nerve import build_nerve, is_complete_1d_nerve
from coxbound.system import (EUCLIDEAN, INF, _triangle, complete_graph_system,
                             is_finite_type, make_system)
from test_system import fraction_kind


def report_to_dict(r):
    """`report_to_json`'s oracle: the JSON-stable view of a report, read
    through the name-keyed labels, for `json.dumps(..., indent=2)`."""
    return {
        "system": {
            "generators": list(r.system.generators),
            "labels": [
                [s, t, "inf" if r.system.m(s, t) == INF else int(r.system.m(s, t))]
                for s, t in r.system.pairs()
            ],
        },
        "n": r.n,
        "boundary": str(r.boundary),
        "serre_fa": r.serre_fa,
        "euclidean_triples": [list(t) for t, kind in r.triangle_census if kind == EUCLIDEAN],
        "hyperbolic": r.hyperbolic,
        "isolated_flats": r.isolated_flats,
        "citations": list(r.citations),
    }


def test_trichotomy_all3():
    expected = {3: "Circle", 4: "SierpinskiCarpet", 5: "MengerCurve", 6: "MengerCurve"}
    for n, tag in expected.items():
        report = classify_boundary(complete_graph_system(n))
        assert report.boundary.tag == tag
        assert report.n == n


def test_verdict_label_independent():
    for labels in ({}, {("s1", "s2"): 4}, {("s1", "s2"): 6, ("s3", "s4"): 5}):
        report = classify_boundary(complete_graph_system(4, labels=labels))
        assert report.boundary.tag == "SierpinskiCarpet"


def test_finite_system_empty_or_finite():
    sysm = make_system("xyz", {("x", "y"): 2, ("y", "z"): 3, ("x", "z"): 5})  # H3
    report = classify_boundary(sysm)
    assert report.boundary.tag == "EmptyOrFinite"


def test_out_of_scope_infinite_label():
    sysm = make_system("ab", {("a", "b"): INF})
    report = classify_boundary(sysm)
    assert report.boundary.tag == "OutOfScope"
    assert report.boundary.reason
    assert "OutOfScope(" in str(report.boundary)


def test_out_of_scope_nerve_with_triangle():
    # contains the spherical triple (2,3,3): nerve is 2-dimensional
    sysm = make_system("xyz", {("x", "y"): 2, ("y", "z"): 3, ("x", "z"): 3})
    # ... but this one is finite outright, so it's EmptyOrFinite, not OutOfScope
    assert classify_boundary(sysm).boundary.tag == "EmptyOrFinite"
    # rank 4 with a spherical triple inside an infinite group: 2-dim nerve
    labels = {("s1", "s2"): 2}
    sysm = complete_graph_system(4, labels=labels)
    report = classify_boundary(sysm)
    assert report.boundary.tag == "OutOfScope"


def test_serre_fa():
    assert serre_fa_criterion(complete_graph_system(5))
    assert not serre_fa_criterion(make_system("ab", {("a", "b"): INF}))


def test_euclidean_triples():
    assert len(euclidean_triple_scan(complete_graph_system(5))) == 10      # C(5,3)
    assert euclidean_triple_scan(complete_graph_system(5, label=4)) == []
    sysm = make_system("abc", {("a", "b"): 2, ("b", "c"): 4, ("a", "c"): 4})
    assert euclidean_triple_scan(sysm) == [("a", "b", "c")]


def test_euclidean_triples_match_fraction_scan():
    """Seeded complete systems of rank 3-8: the scan and the report's
    euclidean_triples both equal a brute-force Fraction reciprocal-sum scan."""
    rng = random.Random(505)
    found = 0
    for _ in range(120):
        n = rng.randint(3, 8)
        gens = [f"s{i + 1}" for i in range(n)]
        sysm = complete_graph_system(
            n, labels={p: rng.choice([2, 3, 3, 4, 4, 6, 6, 7, 12]) for p in combinations(gens, 2)})
        expected = [
            trip for trip in combinations(gens, 3)
            if sum(Fraction(1, int(sysm.m(s, t))) for s, t in combinations(trip, 2)) == 1
        ]
        assert euclidean_triple_scan(sysm) == expected
        euclidean = report_to_dict(classify_boundary(sysm))["euclidean_triples"]
        assert euclidean == [list(t) for t in expected]
        found += len(expected)
    assert found > 100


def test_hyperbolic_flag():
    assert not classify_boundary(complete_graph_system(5)).hyperbolic
    assert classify_boundary(complete_graph_system(5, label=4)).hyperbolic


def test_isolated_flats():
    sysm = complete_graph_system(4)
    assert isolated_flats_check(sysm, build_nerve(sysm))
    with pytest.raises(ValueError):
        bad = make_system("ab", {("a", "b"): INF})
        isolated_flats_check(bad, build_nerve(bad))
    # the nerve comes from the caller: a complete K_3 nerve given with a
    # system whose vertex a has two label-2 edges
    two_right_angles = make_system("abc", {("a", "b"): 2, ("a", "c"): 2, ("b", "c"): 5})
    message = "nerve inconsistency: vertex a has two incident edges labeled 2"
    with pytest.raises(AssertionError, match=f"^{message}$"):
        isolated_flats_check(two_right_angles, build_nerve(complete_graph_system(3)))


def test_report_json_schema():
    report = classify_boundary(complete_graph_system(5))
    d = json.loads(report_to_json(report))
    for key in ("system", "n", "boundary", "serre_fa", "euclidean_triples",
                "hyperbolic", "isolated_flats", "citations"):
        assert key in d, key
    assert d["boundary"] == "MengerCurve"
    assert d["n"] == 5
    assert isinstance(d["citations"], list) and d["citations"]
    assert report_to_dict(report) == report_to_dict(classify_boundary(complete_graph_system(5)))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_report_json_matches_json_dumps(data):
    # any generator names: non-ASCII, quotes, backslashes, control characters
    names = st.text(st.characters() | st.sampled_from('"\\\x00\x1f\x7f\u2028'),
                    min_size=1, max_size=5)
    gens = data.draw(st.lists(names, min_size=1, max_size=6, unique=True), label="gens")
    label = st.sampled_from([2, 3, 4, 5, 6, 7, INF])
    sysm = make_system(gens, {pair: data.draw(label) for pair in combinations(gens, 2)})
    report = classify_boundary(sysm)
    assert report_to_json(report) == json.dumps(report_to_dict(report), indent=2)


def test_classify_work_counts(monkeypatch):
    # the triangle type is computed once per distinct label triple, on the
    # label-3 triangles and the label-2 candidates only; the diagram matching
    # runs only for the whole group, and neither the census nor the nerve is built
    calls = {"is_finite_type": 0, "build_nerve": 0}
    originals = {"is_finite_type": coxbound.system.is_finite_type,
                 "build_nerve": coxbound.nerve.build_nerve}

    def counter(name):
        def counted(*args, **kwargs):
            calls[name] += 1
            return originals[name](*args, **kwargs)
        return counted

    for name in calls:
        for module in (coxbound.system, coxbound.nerve, coxbound.classify):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counter(name))
    _triangle.cache_clear()
    sysm = complete_graph_system(12)
    classify_boundary(sysm)
    info = _triangle.cache_info()
    assert info.misses == 1                  # every triple reads (3, 3, 3)
    assert info.hits + info.misses == 220    # the C(12, 3) label-3 triangles, no nerve pass
    assert calls["is_finite_type"] <= 1
    assert calls["build_nerve"] == 0


# --- the census-and-nerve pipeline as an oracle ---------------------------------
#
# `classify_boundary` as it was before it read the non-hyperbolic triples: the
# whole triangle census gives the Euclidean triples, and `build_nerve(sys, 2)`
# with `is_complete_1d_nerve` the nerve's dimension and completeness.  The
# census here is a brute-force `Fraction` reciprocal sum over the name-keyed
# labels, independent of the library's integer comparison.

def _fraction_census(sys):
    """(triple, kind) for every 3-subset, in `combinations` order, from the
    reciprocal sum 1/m_rs + 1/m_st + 1/m_rt as a `Fraction` compared with 1."""
    return tuple((trip, fraction_kind([sys.m(s, t) for s, t in combinations(trip, 2)]))
                 for trip in combinations(sys.generators, 3))


def _classify_oracle(sys):
    n = sys.rank
    citations = []
    census = _fraction_census(sys)
    fa = serre_fa_criterion(sys)
    euclidean = tuple(trip for trip, kind in census if kind == EUCLIDEAN)
    has_euc = bool(euclidean)
    nerve = build_nerve(sys, max_dim=2)
    complete1d, nverts = is_complete_1d_nerve(nerve)
    flats = isolated_flats_check(sys, nerve) if complete1d else False

    def report(boundary):
        return ClassificationReport(sys, boundary, n, fa, has_euc, not has_euc,
                                    flats, euclidean, tuple(citations))

    if is_finite_type(sys, sys.generators).finite:
        citations.append("whole generating set is finite type: finite group, empty or finite boundary")
        return report(BoundaryClass("EmptyOrFinite"))
    if not complete1d:
        if nerve.dimension != 1:
            reason = f"nerve dimension {nerve.dimension} != 1"
        else:
            reason = "nerve not complete (some m_st = inf)"
        citations.append("hypotheses of the complete-graph trichotomy not met: " + reason)
        return report(BoundaryClass("OutOfScope", reason))
    citations.append(f"nerve is the 1-dimensional complete graph K_{nverts}")
    citations.append("Serre criterion holds: all pairwise products have finite order"
                     if fa else "Serre criterion fails")
    citations.append("isolated flats: complete-graph nerve, no vertex with two label-2 edges")
    if has_euc:
        citations.append(f"{len(euclidean)} Euclidean triple(s) found: flats exist, group not hyperbolic")
    else:
        citations.append("no Euclidean triple: no flat sources in the 2-dimensional regime")
    if n == 3:
        citations.append(f"n=3: infinite triangle group ({census[0][1]}): circle boundary")
        return report(BoundaryClass("Circle"))
    if n == 4:
        citations.append("n=4: planar nerve, boundary is the Sierpinski carpet")
        return report(BoundaryClass("SierpinskiCarpet"))
    citations.append(f"n={n} >= 5: K_5 embeds in the boundary, boundary is the Menger curve")
    return report(BoundaryClass("MengerCurve"))


def _assert_matches_oracle(sysm):
    report = classify_boundary(sysm)
    expected = _classify_oracle(make_system(sysm.generators, sysm.orders))
    for f in ClassificationReport._fields:
        assert getattr(report, f) == getattr(expected, f), f
    assert report.triangle_census == _fraction_census(sysm)
    assert report_to_json(report) == report_to_json(expected)
    return report


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_classify_matches_census_and_nerve_oracle(data):
    rank = data.draw(st.integers(1, 8), label="rank")
    gens = [f"s{i + 1}" for i in range(rank)]
    # integer and float labels, 2 and infinity among them
    label = st.sampled_from([2, 3, 4, 5, 6, 7, INF, 2.0, 3.0, 4.0, 6.0])
    _assert_matches_oracle(
        make_system(gens, {pair: data.draw(label) for pair in combinations(gens, 2)}))


def test_classify_matches_oracle_on_every_rank4_system():
    # every rank-4 system over labels {2, 3, 6, inf}: every verdict, nerve
    # dimension 0, 1 and 2, and Euclidean (2, 3, 6), (3, 3, 3) and (2, 2, inf)
    gens = "abcd"
    pairs = list(combinations(gens, 2))
    tags = set()
    for labels in product([2, 3, 6, INF], repeat=len(pairs)):
        tags.add(str(_assert_matches_oracle(make_system(gens, dict(zip(pairs, labels)))).boundary))
    assert tags == {"EmptyOrFinite", "SierpinskiCarpet", "OutOfScope(nerve dimension 0 != 1)",
                    "OutOfScope(nerve dimension 2 != 1)",
                    "OutOfScope(nerve not complete (some m_st = inf))"}
