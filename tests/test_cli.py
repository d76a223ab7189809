import json

import pytest

from quivalg.cli import build_parser, main, paper_example, paper_example_text, parse_algebra
from quivalg.errors import AlgebraParseError, DisconnectedQuiverError, NotAdmissibleError


GOOD = """\
# comment line
vertices: 5
arrows: a1 1 2; a2 3 2   # trailing comment
arrows: a3 2 4; a4 2 5
relations: a1 a3; a2 a4
"""


def test_parse_algebra_roundtrip():
    a = parse_algebra(GOOD)
    assert a.quiver.vertex_count == 5
    assert len(a.quiver.arrows) == 4
    assert len(a.relations) == 2
    assert a.dimension == 11


def test_parse_algebra_matches_fixture(branching_algebra):
    assert parse_algebra(paper_example_text()) == branching_algebra


def test_parse_minimal():
    a = parse_algebra("vertices: 1")
    assert a.dimension == 1


@pytest.mark.parametrize("text,fragment", [
    ("arrows: a 1 2", "missing 'vertices:'"),
    ("vertices: 0", "line 1"),
    ("vertices: two", "line 1"),
    ("vertices: 2\nvertices: 2", "line 2"),
    ("vertices: 2\narrows: a 1", "line 2"),
    ("vertices: 2\narrows: a 1 3", "line 2"),
    ("vertices: 2\narrows: a 1 2; a 1 2", "duplicate arrow"),
    ("vertices: 2\narrows: a 1 2\nrelations: a b", "unknown arrow 'b'"),
    ("vertices: 3\narrows: a 1 2; b 1 3\nrelations: a b", "do not form a path"),
    ("vertices: 2\narrows: a 1 2\nrelations: a",
     "line 3: relation 'a' has length 1; relations need at least two arrows"),
    ("vertices: 2\nwidgets: 7", "unknown key"),
    ("vertices: 2\njust text", "expected"),
])
def test_parse_errors(text, fragment):
    with pytest.raises(AlgebraParseError) as err:
        parse_algebra(text)
    assert fragment in str(err.value)


def test_parse_surfaces_construction_errors():
    with pytest.raises(DisconnectedQuiverError):
        parse_algebra("vertices: 2")
    with pytest.raises(NotAdmissibleError):
        parse_algebra("vertices: 1\narrows: x 1 1")


def test_paper_example_record():
    record = paper_example()
    assert record["dominant_dimension"] == 1
    assert record["nakayama"] is False
    assert record["qf2_right"] is False
    assert record["min_faithful_proj_inj_right"] == [1, 3]
    assert record["base_algebra"] == "K x K"
    assert record["base_algebra_dimension"] == 2
    assert record["double_centralizer"] is False


def test_cli_paper_example_json(capsys):
    assert main(["paper-example", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["dominant_dimension"] == 1 and data["nakayama"] is False


def test_cli_check_and_domdim(tmp_path, capsys):
    path = tmp_path / "alg.txt"
    path.write_text(GOOD)
    assert main(["check", str(path)]) == 0
    out = capsys.readouterr().out
    assert "dimension: 11" in out
    assert main(["domdim", str(path)]) == 0
    assert "dominant dimension: 1" in capsys.readouterr().out


def test_cli_coresolve_nakayama_qf2(tmp_path, capsys):
    path = tmp_path / "alg.txt"
    path.write_text(GOOD)
    assert main(["coresolve", str(path), "--terms", "2"]) == 0
    out = capsys.readouterr().out
    assert "I_0" in out and "projective=yes" in out
    assert main(["nakayama", str(path)]) == 0
    assert "not a Nakayama" in capsys.readouterr().out
    assert main(["qf2", str(path), "--side", "right"]) == 0
    assert "QF-2 (right): False" in capsys.readouterr().out


def test_cli_qf2_prints_each_criterion_and_their_verdict(tmp_path, capsys):
    # the paper example is not QF-2: some projectives on each side have a
    # socle that is not simple
    path = tmp_path / "alg.txt"
    path.write_text(GOOD)
    algebra = parse_algebra(GOOD)
    assert main(["qf2", str(path), "--side", "both"]) == 0
    expected = [f"{s} socle at vertex {v + 1}: "
                f"{'simple' if work.socle_criterion(v) else 'not simple'}"
                for s, work in (("right", algebra), ("left", algebra.opposite()))
                for v in range(5)]
    assert algebra.is_qf2() is False
    assert any("not simple" in line for line in expected[:5])
    assert any("not simple" in line for line in expected[5:])
    assert capsys.readouterr().out.splitlines() == expected + ["QF-2 (both): False"]


def _run(argv, capsys):
    """(exit code, stdout, stderr) of one ``main`` call, usage exits included."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_parser_is_built_once_and_keeps_no_state(tmp_path, capsys):
    path = tmp_path / "alg.txt"
    path.write_text(GOOD)
    calls = [["domdim", str(path), "--cutoff", "0"], ["domdim", str(path)],
             ["--version"], ["domdim", str(path), "--cutoff", "0"]]
    build_parser.cache_clear()
    first = [_run(argv, capsys) for argv in calls]
    assert build_parser() is build_parser()
    assert first[0] == first[3] and first[0][0] == 1
    assert "must be at least 1" in first[0][2]
    assert first[1] == (0, "dominant dimension: 1\n", "")
    assert first[2][0] == 0 and first[2][1].startswith("quivalg ")
    # each call run alone on a freshly built parser gives the same result
    for argv, result in zip(calls, first):
        build_parser.cache_clear()
        assert _run(argv, capsys) == result


def test_cli_runs_a_command_replaced_after_the_parser_is_built(tmp_path, capsys, monkeypatch):
    from quivalg import cli as cli_module
    path = tmp_path / "alg.txt"
    path.write_text(GOOD)
    build_parser()
    monkeypatch.setattr(cli_module, "_cmd_check", lambda algebra: print(algebra.dimension))
    assert main(["check", str(path)]) == 0  # a command that returns no status succeeded
    assert capsys.readouterr().out == f"{parse_algebra(GOOD).dimension}\n"


def test_cli_keeps_no_algebra_between_calls(tmp_path, capsys):
    path = tmp_path / "alg.txt"
    path.write_text(GOOD)
    assert main(["domdim", str(path)]) == 0
    assert capsys.readouterr().out == "dominant dimension: 1\n"
    path.write_text("vertices: 1\narrows: x 1 1\nrelations: x x\n")  # selfinjective
    assert main(["domdim", str(path)]) == 0
    assert capsys.readouterr().out == "dominant dimension: infinity\n"


@pytest.mark.parametrize("terms,last_line", [
    (2, "truncated at 2 terms"),
    (3, "coresolution terminates after 3 terms"),
    (5, "coresolution terminates after 3 terms"),
])
def test_cli_coresolve_paper_example(tmp_path, capsys, terms, last_line):
    # I_0 is projective, I_1 and I_2 are not, and the third cokernel is zero
    path = tmp_path / "alg.txt"
    path.write_text(GOOD)
    assert main(["coresolve", str(path), "--terms", str(terms)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:min(terms, 3)] == [
        "I_0: dims (3, 6, 3, 3, 3) total 18 projective=yes",
        "I_1: dims (3, 3, 3, 0, 0) total 9 projective=no",
        "I_2: dims (1, 0, 1, 0, 0) total 2 projective=no",
    ][:terms]
    assert lines[min(terms, 3):] == [last_line]


def test_cli_base_and_dc(tmp_path, capsys):
    path = tmp_path / "alg.txt"
    path.write_text(GOOD)
    assert main(["base", str(path)]) == 0
    out = capsys.readouterr().out
    assert "K x K" in out and "idempotent vertices: [4, 5]" in out
    assert main(["dc", str(path)]) == 0
    assert "double centraliser: False" in capsys.readouterr().out


def test_cli_endo(capsys):
    code = main(["endo", "--kupisch", "cyclic:2",
                 "--summands", "P1 top=1,len=1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "kupisch: cyclic:3,2" in out
    assert "nakayama: True" in out


def test_cli_endo_summand_tokens(capsys):
    code = main(["endo", "--kupisch", "linear:3,2,1",
                 "--summands", "P1 P2 P3 I1 I2 I3 I2/s"])
    assert code == 0
    assert "summands: 5" in capsys.readouterr().out


def test_cli_endo_bad_token(capsys):
    assert main(["endo", "--kupisch", "cyclic:2", "--summands", "Q1"]) == 1
    assert "bad summand token" in capsys.readouterr().err


def test_cli_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("vertices: 2\narrows: a 1 5\n")
    assert main(["check", str(path)]) == 1
    assert "line 2" in capsys.readouterr().err


def test_cli_missing_file(capsys):
    assert main(["check", "/nonexistent/file.alg"]) == 1


def test_cli_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "not-a-suite"])
    assert exc.value.code == 1


@pytest.mark.parametrize("bounds", [["--max-vertices", "2"],
                                    ["--max-arrows", "1", "--max-rel-len", "2"]])
def test_cli_verify_partial_corpus_bounds_are_a_usage_error(capsys, bounds):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "qf2-chain"] + bounds)
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: quivalg ")
    assert err.splitlines()[-1] == (
        "quivalg: error: give all of --max-vertices/--max-arrows/--max-rel-len or none")


def test_cli_verify_pass(tmp_path, capsys):
    report_path = tmp_path / "r.json"
    csv_path = tmp_path / "r.csv"
    code = main(["verify", "qf2-chain", "--max-vertices", "2", "--max-arrows", "2",
                 "--max-rel-len", "2", "--report", str(report_path),
                 "--csv", str(csv_path)])
    assert code == 0
    data = json.loads(report_path.read_text())
    assert data["passed"] is True
    assert "suite,qf2-chain" in csv_path.read_text()


def test_cli_verify_report_failure_leaves_no_temporary_file(tmp_path, capsys):
    report_dir = tmp_path / "reports"
    report_dir.mkdir()
    code = main(["verify", "yamagata", "--max-n", "1", "--max-c", "1",
                 "--report", str(report_dir)])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("quivalg: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["reports"]
    assert list(report_dir.iterdir()) == []


def test_cli_verify_unusable_csv_path_fails_before_the_suite_runs(tmp_path, capsys):
    report_path = tmp_path / "r.json"
    csv_dir = tmp_path / "d"
    csv_dir.mkdir()
    code = main(["verify", "yamagata", "--max-n", "1", "--max-c", "1",
                 "--report", str(report_path), "--csv", str(csv_dir)])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("quivalg: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d"]
    assert list(csv_dir.iterdir()) == []


def test_cli_verify_stdout_json(capsys):
    code = main(["verify", "cross-checks", "--max-vertices", "1", "--max-arrows", "1",
                 "--max-rel-len", "2", "--max-n", "2", "--max-c", "2"])
    assert code == 0
    out = capsys.readouterr().out
    assert json.loads(out)["suite"] == "cross-checks"


def test_cli_verify_counterexample_exit(monkeypatch, capsys):
    from quivalg import cli as cli_module
    from quivalg.verify import VerificationReport

    def fake(*args, **kwargs):
        return [VerificationReport(suite="qf2-chain", bounds={}, counts={},
                                   counterexamples=[{"implication": "x"}])]

    monkeypatch.setattr(cli_module, "run_suites", fake)
    assert main(["verify", "qf2-chain"]) == 2


def test_cli_stdin(monkeypatch, capsys):
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO("vertices: 1\n"))
    assert main(["check", "-"]) == 0
    assert "dimension: 1" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["coresolve", "FILE", "--terms", "0"],
    ["domdim", "FILE", "--cutoff", "0"],
    ["domdim", "FILE", "--cutoff", "-3"],
])
def test_cli_rejects_nonpositive_counts(tmp_path, capsys, argv):
    path = tmp_path / "alg.txt"
    path.write_text(GOOD)
    argv = [str(path) if a == "FILE" else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert "must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("summands", ["", " "])
def test_cli_endo_no_summands(capsys, summands):
    assert main(["endo", "--kupisch", "linear:2,1", "--summands", summands]) == 1
    err = capsys.readouterr().err
    assert err == "quivalg: no summands given\n"


def test_cli_endo_uniserial_out_of_range(capsys):
    # vertices are named 1-based, as everywhere else in the CLI
    for token, message in [
            ("top=1,len=9", "no uniserial of length 9 with top at vertex 1"),
            ("top=1,len=0", "no uniserial of length 0 with top at vertex 1"),
            ("top=2,len=2", "no uniserial of length 2 with top at vertex 2"),
            ("top=1", "bad summand token 'top=1': missing len=<l>")]:
        assert main(["endo", "--kupisch", "linear:2,1", "--summands", token]) == 1
        assert capsys.readouterr().err == f"quivalg: {message}\n"


@pytest.mark.parametrize("token,vertex", [
    ("I0", 0), ("I5", 5), ("I5/s", 5), ("P0", 0), ("P3", 3), ("top=0,len=1", 0),
    ("top=3,len=1", 3),
])
def test_cli_endo_summand_vertex_out_of_range(capsys, token, vertex):
    code = main(["endo", "--kupisch", "cyclic:3,2", "--summands", token])
    assert code == 1
    err = capsys.readouterr().err
    assert err == f"quivalg: bad summand token {token!r}: vertex {vertex} outside 1..2\n"


@pytest.mark.parametrize("token", [
    "top=1,foo", "top=,len=1", "top=1,len=x", "top=1,len=2,top=2", "top=1,len=1,x=5",
    "len=1,top=1", "P", "P1x", "I/s", "Ix", "I1/t", "Q1",
])
def test_cli_endo_malformed_summand_token(capsys, token):
    # one line naming the accepted form, never a Python message, and no
    # field of a top= token silently dropped
    code = main(["endo", "--kupisch", "cyclic:3,2", "--summands", f"P1 {token}"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"quivalg: bad summand token {token!r}: "
                            "expected P<i>, I<i>, I<i>/s or top=<v>,len=<l>\n")


@pytest.mark.parametrize("argv,fragment", [
    (["verify", "yamagata", "--max-n", "0"], "--max-n: must be at least 1"),
    (["verify", "morita", "--max-c", "0"], "--max-c: must be at least 1"),
    (["verify", "cross-checks", "--max-vertices", "1", "--max-arrows", "0",
      "--max-rel-len", "1"], "--max-rel-len: must be at least 2"),
    (["verify", "qf2-chain", "--max-vertices", "0", "--max-arrows", "0",
      "--max-rel-len", "2"], "--max-vertices: must be at least 1"),
    (["verify", "qf2-chain", "--max-vertices", "1", "--max-arrows", "-1",
      "--max-rel-len", "2"], "--max-arrows: must be at least 0"),
    (["verify", "qf2-chain", "--workers", "0"], "--workers: must be at least 1"),
])
def test_cli_verify_rejects_bad_bounds(capsys, argv, fragment):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert fragment in capsys.readouterr().err


def test_cli_verify_summary_names_the_swept_family(capsys):
    assert main(["verify", "morita", "--max-n", "1", "--max-c", "2"]) == 0
    assert capsys.readouterr().err.startswith(
        "suite morita: PASS (1 series, 0 counterexamples, ")


def test_cli_verify_empty_family_fails(capsys):
    # no constant cyclic series has lengths <= 1, so morita sweeps nothing
    assert main(["verify", "morita", "--max-c", "1"]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is False
    assert {ce["count"] for ce in report["counterexamples"]} == {"series", "instances"}


def test_cli_verify_workers_capped_at_cpu_count(monkeypatch, capsys):
    import multiprocessing

    from quivalg import verify

    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(verify.os, "cpu_count", lambda: 1)
    monkeypatch.setattr(multiprocessing, "Pool", no_pool)
    assert main(["verify", "qf2-chain", "--max-vertices", "1", "--max-arrows", "1",
                 "--max-rel-len", "2", "--workers", "4"]) == 0
