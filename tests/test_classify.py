import json
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coxbound.classify
import coxbound.nerve
import coxbound.system
from coxbound.classify import (classify_boundary, euclidean_triple_scan,
                               isolated_flats_check, report_to_json,
                               serre_fa_criterion)
from coxbound.nerve import build_nerve
from coxbound.system import (EUCLIDEAN, INF, _triangle, complete_graph_system,
                             make_system)


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
        "euclidean_triples": [list(t) for t, tt in r.triangle_census if tt.kind == EUCLIDEAN],
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
    # the triangle type is computed once per distinct label triple, and the
    # diagram matching runs only for the whole group
    calls = {"is_finite_type": 0}
    original = coxbound.system.is_finite_type

    def counted(*args):
        calls["is_finite_type"] += 1
        return original(*args)

    for module in (coxbound.system, coxbound.nerve, coxbound.classify):
        if hasattr(module, "is_finite_type"):
            monkeypatch.setattr(module, "is_finite_type", counted)
    _triangle.cache_clear()
    classify_boundary(complete_graph_system(12))
    info = _triangle.cache_info()
    assert info.misses == 1                  # every triple reads (3, 3, 3)
    assert info.hits + info.misses == 440    # C(12, 3) census entries + nerve candidates
    assert calls["is_finite_type"] <= 1
