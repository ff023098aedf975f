import json
import time

import pytest

from coxbound import carpet
from coxbound.cli import build_parser, main
from test_carpet import _no_carpet, _no_route


K4_TEXT = "gens a b c d\n" + "\n".join(
    f"{s} {t} 3" for s, t in
    [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "d")]) + "\n"


@pytest.fixture
def k4_file(tmp_path):
    p = tmp_path / "k4.cox"
    p.write_text(K4_TEXT)
    return str(p)


def test_classify_in_scope(k4_file, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["classify", "--input", k4_file, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["boundary"] == "SierpinskiCarpet"


def test_classify_out_of_scope(tmp_path):
    p = tmp_path / "dinf.cox"
    p.write_text("gens a b\na b inf\n")
    assert main(["classify", "--input", str(p)]) == 2


def test_classify_input_errors(tmp_path, capsys):
    """A missing file and each malformed presentation exit 1 with one
    `error:` line naming the fault."""
    assert main(["classify", "--input", str(tmp_path / "missing.cox")]) == 1
    assert capsys.readouterr().err.startswith("error: cannot read ")
    bad = tmp_path / "bad.cox"
    for text, message in (
            ("gens a b\na b 1\n", "line 2: off-diagonal label 1 forbidden"),
            ("gens\na b 3\n", "line 1: no generators"),
            ("gens a b\na b\n", "line 2: expected '<id> <id> <label>'"),
            ("gens a b\na b 3 4\n", "line 2: expected '<id> <id> <label>'"),
            ("gens a b\na a 3\n", "line 2: diagonal pair a a"),
            ("", "empty presentation: no 'gens' line"),
            ("# only a comment\n\n", "empty presentation: no 'gens' line")):
        bad.write_text(text)
        assert main(["classify", "--input", str(bad)]) == 1, text
        captured = capsys.readouterr()
        assert captured.out == "", text
        assert captured.err.startswith("error: " + message), (text, captured.err)
        assert captured.err.count("\n") == 1, captured.err


def test_parser_reused_across_calls(k4_file, tmp_path, capsys):
    """main keeps one parser per process; a rejected argv or a failed request
    leaves nothing behind that changes the next request."""
    first = main(["classify", "--input", k4_file])
    first_out = capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--no-such-flag"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert main(["classify", "--input", str(tmp_path / "missing.cox")]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    again = main(["classify", "--input", k4_file])
    assert (again, capsys.readouterr()) == (first, first_out)
    assert first == 0 and first_out.out
    assert build_parser() is not build_parser()


def test_sweep_csv(capsys):
    assert main(["sweep", "--n-min", "3", "--n-max", "6", "--labels", "3"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "n,labels,boundary,hyperbolic"
    verdicts = [line.split(",")[-2] for line in lines[1:]]
    assert verdicts == ["Circle", "SierpinskiCarpet", "MengerCurve", "MengerCurve"]


def test_sweep_json_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["sweep", "--n-min", "4", "--n-max", "4", "--labels", "3,4",
            "--limit", "8", "--format", "json"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    rows = json.loads(a.read_text())
    assert len(rows) == 8
    assert all(r["boundary"] == "SierpinskiCarpet" for r in rows)


def test_sweep_rejects_bad_range():
    assert main(["sweep", "--n-min", "2", "--n-max", "9"]) == 1
    assert main(["sweep", "--labels", "1,3"]) == 1


def test_nerve_command(k4_file, capsys):
    assert main(["nerve", "--input", k4_file]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["dimension"] == 1
    assert len(payload["edges"]) == 6


def test_davis_ball_command(k4_file, tmp_path):
    out = tmp_path / "ball.json"
    assert main(["davis-ball", "--input", k4_file, "--radius", "2", "--out", str(out)]) == 0
    ball = json.loads(out.read_text())
    assert ball["radius"] == 2
    assert ball["vertices"][0] == ""   # identity first


def test_tessellate_command(tmp_path):
    p = tmp_path / "t237.cox"
    p.write_text("gens a b c\na b 2\nb c 3\na c 7\n")
    out = tmp_path / "t.svg"
    assert main(["tessellate", "--input", str(p), "--depth", "4", "--out", str(out)]) == 0
    assert "<svg" in out.read_text()


def test_carpet_command(capsys):
    assert main(["carpet", "--level", "3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["kept"] == 512
    assert payload["removed"] == 73
    for level in (0, 7):
        assert main(["carpet", "--level", str(level), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kept"] == 8 ** level
        assert payload["removed"] == (8 ** level - 1) // 7
        assert payload["null_family_exceeding_1_5"] == (0 if level == 0 else 1)
    assert main(["carpet", "--level", "2", "--format", "svg"]) == 0
    assert "<svg" in capsys.readouterr().out


def test_k5_command(tmp_path, capsys):
    outdir = tmp_path / "k5"
    assert main(["k5", "--out", str(outdir)]) == 0
    scaffold = json.loads((outdir / "scaffold.json").read_text())
    assert len(scaffold["vertices"]) == 5
    assert len(scaffold["edges"]) == 10
    assert (outdir / "scaffold.svg").exists()


def test_k5_routing_failure_exit_code(capsys, monkeypatch):
    assert main(["k5", "--level", "1"]) == 1
    monkeypatch.setattr(carpet, "embed_star_in_carpet", _no_route)
    capsys.readouterr()
    assert main(["k5"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "routing failure (carpet 0): stub: no route\n"


def test_k5_level_below_2_is_input_error(capsys, monkeypatch):
    """`k5 --level` below 2 is refused as an input error before any carpet
    is built: exit 1, nothing on stdout and one `error:` line."""
    monkeypatch.setattr(carpet, "build_carpet_approx", _no_carpet)
    for level in ("-1", "0", "1"):
        assert main(["k5", "--level", level]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: scaffold needs carpets of level >= 2, got {level}\n"


def test_k5_byte_deterministic(tmp_path, capsys):
    """Two --out runs write the same files, and the stdout formats print
    their bytes as written: `--out` and stdout both end every artifact with
    exactly one newline."""
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["k5", "--out", str(a)]) == 0
    assert main(["k5", "--out", str(b)]) == 0
    assert (a / "scaffold.json").read_bytes() == (b / "scaffold.json").read_bytes()
    assert (a / "scaffold.svg").read_bytes() == (b / "scaffold.svg").read_bytes()
    capsys.readouterr()
    for fmt, tail in (("json", ""), ("svg", "")):
        assert main(["k5", "--format", fmt]) == 0
        captured = capsys.readouterr()
        assert captured.out == (a / f"scaffold.{fmt}").read_text() + tail
        assert captured.err == "verify_k5_graph: pass\n"


K3_TEXT = "gens a b c\na b 3\nb c 3\na c 3\n"


def test_out_file_holds_the_stdout_bytes(k4_file, tmp_path, capsys):
    """Every command writes the same bytes to `--out` as to stdout, ending
    with exactly one newline."""
    k3 = tmp_path / "k3.cox"
    k3.write_text("gens a b c\na b 2\nb c 3\na c 7\n")
    out = tmp_path / "out"
    capsys.readouterr()
    for argv in (["classify", "--input", k4_file], ["nerve", "--input", k4_file],
                 ["sweep", "--n-max", "3", "--labels", "2,3"],
                 ["sweep", "--n-max", "3", "--format", "json"],
                 ["davis-ball", "--input", str(k3), "--radius", "2"],
                 ["tessellate", "--input", str(k3), "--depth", "2"],
                 ["carpet", "--level", "1"], ["carpet", "--level", "1", "--format", "svg"]):
        assert main(argv) == 0, argv
        printed = capsys.readouterr().out
        assert main(argv + ["--out", str(out)]) == 0, argv
        assert capsys.readouterr().out == ""
        assert out.read_text() == printed, argv
        assert printed.endswith("\n") and not printed.endswith("\n\n"), argv


def test_davis_ball_large_radius(tmp_path):
    p = tmp_path / "k3.cox"
    p.write_text(K3_TEXT)
    out = tmp_path / "ball.json"
    assert main(["davis-ball", "--input", str(p), "--radius", "25", "--out", str(out)]) == 0
    ball = json.loads(out.read_text())
    assert max(len(v.split()) for v in ball["vertices"]) == 25


def test_davis_ball_radius_zero_is_input_error(k4_file, capsys):
    assert main(["davis-ball", "--input", k4_file, "--radius", "0"]) == 1
    assert capsys.readouterr().err.startswith("error: radius must be >= 1")


def test_tessellate_rank_4_is_input_error(k4_file, capsys):
    assert main(["tessellate", "--input", k4_file]) == 1
    assert capsys.readouterr().err.startswith("error: tessellation requires exactly 3")


def test_tessellate_input_errors(tmp_path, capsys):
    """An infinite label and a negative depth exit 1 with one `error:` line."""
    p = tmp_path / "t.cox"
    for text, depth, message in (
            ("gens a b c\na b inf\nb c 3\na c 3\n", "2",
             "tessellation requires a complete K_3 nerve"),
            ("gens a b c\na b 2\nb c 3\na c 7\n", "-1", "depth must be >= 0")):
        p.write_text(text)
        assert main(["tessellate", "--input", str(p), "--depth", depth]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: " + message) and \
            captured.err.count("\n") == 1, captured.err


def test_ring_beyond_budget_is_input_error(tmp_path, capsys):
    """Labels whose cyclotomic ring is past the small-root table's budget exit
    1 with one `error:` line, before any ring work: unguarded, the ring for
    17, 19, 23 costs tens of seconds and hundreds of MB, and for a label of
    1000003 far more."""
    p = tmp_path / "t.cox"
    for text, argv, message in (
            ("gens a b c\na b 17\nb c 19\na c 23\n", ["davis-ball"],
             "label set {17, 19, 23} needs the cyclotomic integers Z[zeta_14858]"),
            ("gens a b c\na b 17\nb c 19\na c 23\n", ["tessellate", "--depth", "2"],
             "label set {17, 19, 23} needs the cyclotomic integers Z[zeta_14858]"),
            ("gens a b\na b 1000003\n", ["davis-ball"],
             "label set {1000003} needs the cyclotomic integers Z[zeta_2000006]")):
        p.write_text(text)
        start = time.perf_counter()
        assert main(argv + ["--input", str(p)]) == 1
        assert time.perf_counter() - start < 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: " + message) and \
            captured.err.count("\n") == 1, captured.err


def test_carpet_level_beyond_guard_is_input_error(capsys):
    for level, message in (("9", "level 9 exceeds guard 7"), ("-1", "level must be >= 0")):
        assert main(["carpet", "--level", level]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {message}\n", captured.err


def test_unwritable_out_is_input_error(k4_file, tmp_path, capsys):
    existing = tmp_path / "existing.txt"
    existing.write_text("")
    for argv in (
            ["classify", "--input", k4_file, "--out", str(tmp_path / "missing" / "x.json")],
            ["carpet", "--level", "1", "--out", str(tmp_path)],      # a directory
            ["k5", "--out", str(existing)]):                         # a file, not a directory
        assert main(argv) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
    assert existing.read_text() == ""
