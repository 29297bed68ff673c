import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import jsonschema
import pytest

from conftest import FIXTURES
from qde.cli import main
from qde.errors import CurveDataError
from qde.harness import CurveRecord, ValidationReport, parse_curves, validate
from qde.schemas import SCHEMAS


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def test_parse_single_row(tmp_path):
    path = tmp_path / "one.csv"
    path.write_text("label,rank,sha_order\n11a1,0,1\n")
    assert parse_curves(str(path)) == [CurveRecord("11a1", 0, 1)]


def test_parse_optional_columns(tmp_path):
    path = tmp_path / "full.csv"
    path.write_text(
        "label,rank,sha_order,torsion_order,conductor\nx1,0,1,5,11\nx2,1,4,,389\n"
    )
    records = parse_curves(str(path))
    assert records[0].torsion_order == 5 and records[0].conductor == 11
    assert records[1].torsion_order is None and records[1].conductor == 389


def test_parse_rejects_negative_rank_with_line_number(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("label,rank,sha_order\nok,0,1\nbad,-1,1\n")
    with pytest.raises(CurveDataError) as info:
        parse_curves(str(path))
    assert any("line 3" in p and "rank" in p for p in info.value.problems)


def test_parse_rejects_duplicates_and_bad_cells(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("label,rank,sha_order\na,0,1\na,1,4\nb,zero,1\nc,0\n")
    with pytest.raises(CurveDataError) as info:
        parse_curves(str(path))
    problems = "\n".join(info.value.problems)
    assert "line 3" in problems and "duplicate" in problems
    assert "line 4" in problems and "integer" in problems
    assert "line 5" in problems and "columns" in problems


def test_parse_rejects_unknown_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("name,rank,sha\nx,0,1\n")
    with pytest.raises(CurveDataError):
        parse_curves(str(path))


def test_parse_empty_file_warns(tmp_path):
    # the warning names the caller's line, not a line inside qde.harness
    path = tmp_path / "empty.csv"
    path.write_text("# nothing here yet\nlabel,rank,sha_order\n")
    with pytest.warns(UserWarning) as rec:
        assert parse_curves(str(path)) == []
    assert rec[0].filename == __file__
    path = tmp_path / "empty.json"
    path.write_text("[]")
    with pytest.warns(UserWarning) as rec:
        assert parse_curves(str(path), format="json") == []
    assert rec[0].filename == __file__


def test_parse_skips_comment_lines(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text("# provenance: hand-entered\nlabel,rank,sha_order\n# mid comment\nz,1,4\n")
    assert parse_curves(str(path)) == [CurveRecord("z", 1, 4)]


def test_parse_json_format(tmp_path):
    path = tmp_path / "rows.json"
    path.write_text('[{"label": "a", "rank": 0, "sha_order": 1}]')
    assert parse_curves(str(path), format="json") == [CurveRecord("a", 0, 1)]
    path.write_text('[{"label": "a", "rank": 0, "sha_order": 1, "extra": 7}]')
    with pytest.raises(CurveDataError):
        parse_curves(str(path), format="json")


def test_parse_bundled_fixtures_agree():
    csv_records = parse_curves(str(FIXTURES / "curves.csv"))
    json_records = parse_curves(str(FIXTURES / "curves.json"), format="json")
    assert csv_records == json_records
    assert len(csv_records) == 6


def test_curve_record_validation():
    with pytest.raises(ValueError):
        CurveRecord("", 0, 1)
    with pytest.raises(ValueError):
        CurveRecord("x", -1, 1)
    with pytest.raises(ValueError):
        CurveRecord("x", 0, 0)


@pytest.mark.parametrize(
    "args",
    [
        (5, 0, 2),  # validate() used to fail sorting it next to a string label
        (None, 0, 1),
        ("x", 0.5, 1),  # used to report "predicted": 2.25
        ("x", 0, "1"),
        ("x", True, 4),
        ("x", 0, 1, 5.0),
        ("x", 0, 1, None, "11"),
    ],
)
def test_curve_record_rejects_non_string_labels_and_non_integer_counts(args):
    with pytest.raises(TypeError):
        CurveRecord(*args)


@pytest.mark.parametrize(
    "rows,problem",
    [
        # used to become the label "5" twice, a duplicate never caught
        ('[{"label": 5, "rank": 0, "sha_order": 1}, {"label": "5", "rank": 0, "sha_order": 1}]',
         "row 0: label must be a string, got 5"),
        # used to become the label "None"
        ('[{"label": "a", "rank": 0, "sha_order": 1}, {"label": null, "rank": 0, "sha_order": 1}]',
         "row 1: label must be a string, got None"),
        # used to crash with TypeError: unhashable type: 'list'
        ('[{"label": ["a"], "rank": 0, "sha_order": 1}]',
         "row 0: label must be a string, got ['a']"),
    ],
)
def test_parse_json_rejects_a_non_string_label_with_its_row(tmp_path, capsys, rows, problem):
    path = tmp_path / "rows.json"
    path.write_text(rows)
    with pytest.raises(CurveDataError) as info:
        parse_curves(str(path), format="json")
    assert info.value.problems == [problem]
    assert main(["validate", "--input", str(path), "--format", "json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: curve data rejected: ")
    assert "Traceback" not in captured.err


BAD_CSV = (
    "# every CSV row problem, one row each\n"
    "label,rank,sha_order,torsion_order,conductor\n"
    "a,0,1,,11\n"
    "a,1,4,,37\n"
    "b,zero,1,,\n"
    "\n"
    "c,0,1\n"
    "d,,1,,\n"
    "# mid-file comment\n"
    "e,-1,1,,\n"
    "f,0,0,,\n"
    ",0,1,,\n"
    "g,0,1,0,\n"
    "h,0,1,,0\n"
    "i,1,4,2,389\n"
)
BAD_CSV_PROBLEMS = [
    "line 4: duplicate label 'a'",
    "line 5: column 'rank' is not a base-10 integer: 'zero'",
    "line 7: expected 5 columns, found 3",
    "line 8: column 'rank' is required",
    "line 10: rank must be >= 0, got -1",
    "line 11: sha_order must be >= 1, got 0",
    "line 12: label must be nonempty",
    "line 13: torsion_order must be >= 1, got 0",
    "line 14: conductor must be >= 1, got 0",
]
BAD_JSON = """[
  {"label": "a", "rank": 0, "sha_order": 1},
  7,
  {"label": "b", "rank": 0, "sha_order": 1, "extra": 1, "cond": 2},
  {"label": 5, "rank": 0, "sha_order": 1},
  {"label": null, "rank": 0, "sha_order": 1},
  {"label": ["a"], "rank": 0, "sha_order": 1},
  {"label": "c", "rank": true, "sha_order": 4},
  {"label": "d", "rank": 0, "sha_order": 1.0},
  {"rank": 0, "sha_order": 1},
  {"label": "a", "rank": 1, "sha_order": 4},
  {"label": "e", "sha_order": 1},
  {"label": "f", "rank": 0, "sha_order": 1, "torsion_order": 0},
  {"label": "g", "rank": "x", "sha_order": 1},
  ["a"],
  {"label": "h", "rank": -2, "sha_order": 1},
  {"label": "i", "rank": 1, "sha_order": 4, "conductor": 37}
]
"""
BAD_JSON_PROBLEMS = [
    "row 1: expected an object",
    "row 2: unknown keys ['cond', 'extra']",
    "row 3: label must be a string, got 5",
    "row 4: label must be a string, got None",
    "row 5: label must be a string, got ['a']",
    "row 6: column 'rank' is not a base-10 integer: True",
    "row 7: column 'sha_order' is not a base-10 integer: 1.0",
    "row 8: label must be nonempty",
    "row 9: duplicate label 'a'",
    "row 10: column 'rank' is required",
    "row 11: torsion_order must be >= 1, got 0",
    "row 12: column 'rank' is not a base-10 integer: 'x'",
    "row 13: expected an object",
    "row 14: rank must be >= 0, got -2",
]


@pytest.mark.parametrize(
    "name,text,fmt,problems",
    [
        ("bad.csv", BAD_CSV, "csv", BAD_CSV_PROBLEMS),
        ("bad.json", BAD_JSON, "json", BAD_JSON_PROBLEMS),
    ],
)
def test_parse_reports_every_row_problem_in_order(tmp_path, name, text, fmt, problems):
    path = tmp_path / name
    path.write_text(text)
    with pytest.raises(CurveDataError) as info:
        parse_curves(str(path), format=fmt)
    assert info.value.problems == problems


ONE_ROW = {  # format: (a one-row file around a rank cell, where its problem is reported)
    "csv": ("label,rank,sha_order\na,{},1\n", "line 2"),
    "json": ('[{{"label": "a", "rank": "{}", "sha_order": 1}}]', "row 0"),
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "cell",
    [
        "1_0",  # int() used to read it as rank 10
        "٣",  # an Arabic-Indic three; int() used to read it as rank 3
    ],
)
def test_parse_refuses_counts_that_are_not_ascii_base_10(tmp_path, capsys, fmt, cell):
    text, where = ONE_ROW[fmt]
    path = tmp_path / f"rows.{fmt}"
    path.write_text(text.format(cell), encoding="utf-8")
    with pytest.raises(CurveDataError) as info:
        parse_curves(str(path), format=fmt)
    assert info.value.problems == [f"{where}: column 'rank' is not a base-10 integer: {cell!r}"]
    assert main(["validate", "--input", str(path), "--format", fmt]) == 1
    assert capsys.readouterr().out == ""
    path.write_text(text.format(" +3 "), encoding="utf-8")  # a sign and padding stay allowed
    assert parse_curves(str(path), format=fmt) == [CurveRecord("a", 3, 1)]


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_validate_marks_square_rank_identity():
    report = validate(
        [
            CurveRecord("r0-ok", 0, 1),
            CurveRecord("r1-ok", 1, 4),
            CurveRecord("r1-bad", 1, 1),
        ]
    )
    assert (report.total, report.consistent, report.violations) == (3, 2, 1)
    assert report.violation_rows == (("r1-bad", 1, 1, 4),)
    assert report.by_rank == ((0, 1, 1), (1, 2, 1))


def test_validate_is_order_independent():
    records = parse_curves(str(FIXTURES / "curves.csv"))
    shuffled = records[:]
    random.Random(7).shuffle(shuffled)
    assert validate(records) == validate(shuffled)


def test_validate_parallel_report_is_identical():
    records = parse_curves(str(FIXTURES / "curves.csv")) * 40
    # labels must stay unique for the report to be meaningful; relabel copies
    records = [
        CurveRecord(f"{r.label}#{i}", r.rank, r.sha_order, r.torsion_order, r.conductor)
        for i, r in enumerate(records)
    ]
    serial = validate(records, jobs=1)
    for jobs in (2, 3, 8):
        parallel = validate(records, jobs=jobs)
        assert parallel == serial
        assert json.dumps(parallel.to_json_dict()) == json.dumps(serial.to_json_dict())


def test_validate_aggregate_invariant_enforced():
    with pytest.raises(ValueError):
        ValidationReport(2, 2, 1, (), ())


# ---------------------------------------------------------------------------
# command-line interface
# ---------------------------------------------------------------------------


def test_cli_predict_json_exact(capsys):
    assert main(["predict", "--theta", "sqrt(10)", "--json"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == (
        '{"D":10,"f":1,"h":2,"rank":1,'
        '"sha":{"invariant_factors":[2,2],"order":4},"k0_rank":3}'
    )


def test_cli_cf_text(capsys):
    assert main(["cf", "--theta", "(1+sqrt(5))/2"]) == 0
    assert capsys.readouterr().out.strip() == "preperiod=[] period=[1]"


@pytest.mark.parametrize(
    "argv,text",
    [
        (["unit", "--D", "94"],
         "epsilon = 2143295 + 221064*sqrt(94) = 2143295+221064*sqrt(94), norm = 1"),
        (["order", "--theta", "sqrt(8)"],
         "Z + 2*O_Q(sqrt(2)) (D=2, f=2, discriminant 32)"),
        (["classgroup", "--D", "79", "--f", "3"],
         "h = 6 for Z + 3*O_Q(sqrt(79)); Cl = Z/6; h(field) = 3, unit index e_f = 1"),
        (["companions", "--D", "79"],
         "companion 0: -8+sqrt(79)\n"
         "companion 1: (-7+sqrt(79))/3\n"
         "companion 2: (-8+sqrt(79))/3"),
        (["k0", "--theta", "sqrt(10)"],
         "K0 rank = 3; trace generators [1, theta, lambda_1]; Galois group Z/2"),
        (["predict", "--theta", "sqrt(10)"],
         "rank = 1, Sha = Z/2 x Z/2 (order 4), K0 rank = 3 for O_Q(sqrt(10))"),
        (["validate", "--input", str(FIXTURES / "curves.csv")],
         "records: 6, consistent: 2, violations: 4\n"
         "  rank 0: 2/3 consistent\n"
         "  rank 1: 0/1 consistent\n"
         "  rank 2: 0/1 consistent\n"
         "  rank 3: 0/1 consistent\n"
         "  violation: 37a1 has rank 1, |Sha| 1, predicted 4\n"
         "  violation: 389a1 has rank 2, |Sha| 1, predicted 9\n"
         "  violation: 5077a1 has rank 3, |Sha| 1, predicted 16\n"
         "  violation: 571a1 has rank 0, |Sha| 4, predicted 1"),
    ],
)
def test_cli_text_output_exact(capsys, argv, text):
    assert main(argv) == 0
    assert capsys.readouterr().out == text + "\n"


def test_cli_validate_fixture(capsys):
    assert main(["validate", "--input", str(FIXTURES / "curves.csv"), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["consistent"] + report["violations"] == report["total"]
    flagged = {row["label"] for row in report["violation_rows"]}
    assert "37a1" in flagged and "11a1" not in flagged


@pytest.mark.parametrize("name,fmt", [("curves.csv", "csv"), ("curves.json", "json")])
@pytest.mark.parametrize("flags", [[], ["--json"]])
def test_cli_validate_accepts_a_utf8_byte_order_mark(tmp_path, capsys, name, fmt, flags):
    # spreadsheet "CSV UTF-8" exports start with one; it used to be read into
    # the first header cell (CSV) or refused by the decoder (JSON), exit 1
    plain = FIXTURES / name
    marked = tmp_path / name
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    assert main(["validate", "--input", str(plain), "--format", fmt, *flags]) == 0
    expected = capsys.readouterr()
    assert main(["validate", "--input", str(marked), "--format", fmt, *flags]) == 0
    assert capsys.readouterr() == expected


def test_cli_prints_a_unit_beyond_the_int_str_digit_limit(capsys):
    # epsilon for D = 1000000007 has about 6,400 digits; the digit limit is
    # lifted while main runs and set back to the caller's value afterwards
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        assert main(["unit", "--D", "1000000007", "--json"]) == 0
        assert sys.get_int_max_str_digits() == 4300
        sys.set_int_max_str_digits(0)
        payload = json.loads(capsys.readouterr().out)
    finally:
        sys.set_int_max_str_digits(saved)
    x, y, norm = payload["x"], payload["y"], payload["norm"]
    assert x.bit_length() > 4300 * 3
    assert norm in (1, -1) and x * x - 1000000007 * y * y == norm  # omega = sqrt(D)


def test_cli_domain_errors_exit_1(capsys):
    assert main(["cf", "--theta", "(3+sqrt(9))/2"]) == 1
    assert "perfect square" in capsys.readouterr().err
    assert main(["validate", "--input", "/nonexistent.csv"]) == 1


def test_cli_refuses_an_over_long_theta_literal_at_once():
    # a 4,402-digit radicand used to reach trial division with the digit
    # limit lifted and run until killed; now it is a syntax error
    src = str(Path(__file__).parent.parent / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    result = subprocess.run(
        [sys.executable, "-m", "qde.cli", "cf", "--theta", "sqrt(1" + "0" * 4400 + "7)"],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=5,
    )
    assert result.returncode == 1 and result.stdout == ""
    assert "4402 digits" in result.stderr and "position 5" in result.stderr


def test_cli_usage_errors_exit_2(capsys, monkeypatch):
    with pytest.raises(SystemExit) as info:
        main(["bogus"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["cf"])  # missing --theta
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["classgroup"])  # neither --theta nor --D
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["validate", "--input", str(FIXTURES / "curves.csv"), "--jobs", "0"])
    assert info.value.code == 2
    monkeypatch.setenv("QDE_MAX_DISC", "abc")
    with pytest.raises(SystemExit) as info:
        main(["classgroup", "--D", "10"])
    assert info.value.code == 2
    assert "QDE_MAX_DISC" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,env,message",
    [
        (["companions", "--theta", "sqrt(5)", "--f", "3"], None,
         "--f cannot be combined with --theta"),
        (["companions"], None, "either --theta or --D (with optional --f) is required"),
        (["classgroup", "--D", "10"], "abc", "QDE_MAX_DISC must be an integer >= 1"),
    ],
)
def test_cli_usage_errors_print_the_subcommands_usage(capsys, monkeypatch, argv, env, message):
    # argparse's own errors print the subcommand's usage line; the checks
    # main makes after parsing print the same one (they printed "usage: qde")
    if env is not None:
        monkeypatch.setenv("QDE_MAX_DISC", env)
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: qde {argv[0]} [-h] [--json]")
    assert f"qde {argv[0]}: error: {message}" in err


def test_cli_max_disc_flag_and_env(capsys, monkeypatch):
    assert main(["classgroup", "--D", "10", "--max-disc", "30"]) == 1
    assert "30" in capsys.readouterr().err
    monkeypatch.setenv("QDE_MAX_DISC", "30")
    assert main(["classgroup", "--D", "10"]) == 1
    assert "desk-scale bound 30" in capsys.readouterr().err
    monkeypatch.setenv("QDE_MAX_DISC", "100")
    assert main(["classgroup", "--D", "10"]) == 0
    capsys.readouterr()
    # a bound below 1 is a usage error, from the flag or the environment;
    # it used to exit 1 with "exceeds the desk-scale bound -1"
    for argv in (["classgroup", "--D", "10", "--max-disc", "0"],
                 ["companions", "--D", "10", "--max-disc", "-1"],
                 ["predict", "--theta", "sqrt(10)", "--max-disc", "0"]):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert "--max-disc: must be an integer >= 1" in capsys.readouterr().err
    for env in ("0", "-1"):
        monkeypatch.setenv("QDE_MAX_DISC", env)
        with pytest.raises(SystemExit) as info:
            main(["classgroup", "--D", "10"])
        assert info.value.code == 2
        assert f"QDE_MAX_DISC must be an integer >= 1, got '{env}'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["classgroup", "companions"])
@pytest.mark.parametrize("f", ["0", "-2000"])
@pytest.mark.parametrize("bound", [[], ["--max-disc", "1000000000"]])
def test_cli_refuses_a_conductor_below_one_before_the_bound(capsys, command, f, bound):
    # the bound squares f, so f = -2000 used to be refused as disc 20000000
    assert main([command, "--D", "5", "--f", f, *bound]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: conductor must be >= 1, got {f}\n"


@pytest.mark.parametrize("command", ["classgroup", "companions"])
@pytest.mark.parametrize("extra", [["--D", "7"], ["--f", "3"]])
def test_cli_theta_with_D_or_f_is_a_usage_error(capsys, command, extra):
    # each used to exit 0 and drop the extra flag silently
    with pytest.raises(SystemExit) as info:
        main([command, "--theta", "sqrt(5)", *extra])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert extra[0] in captured.err


@pytest.mark.parametrize(
    "argv,schema",
    [
        (["cf", "--theta", "sqrt(19)", "--json"], "cf"),
        (["unit", "--D", "13", "--json"], "unit"),
        (["order", "--theta", "(3+sqrt(45))/6", "--json"], "order"),
        (["classgroup", "--D", "10", "--json"], "classgroup"),
        (["classgroup", "--theta", "sqrt(40)", "--json"], "classgroup"),
        (["companions", "--D", "10", "--json"], "companions"),
        (["k0", "--theta", "sqrt(10)", "--json"], "k0"),
        (["predict", "--theta", "(1+sqrt(5))/2", "--json"], "predict"),
        (["validate", "--input", str(FIXTURES / "curves.json"), "--format", "json",
          "--jobs", "2", "--json"], "validate"),
    ],
)
def test_cli_json_outputs_satisfy_published_schemas(capsys, argv, schema):
    assert main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    jsonschema.validate(payload, SCHEMAS[schema])


def test_cli_companions_round_trip_through_parser(capsys):
    assert main(["companions", "--D", "79", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    from qde.quadratic import parse_theta

    assert payload["count"] == 3
    for expr in payload["companions"]:
        theta = parse_theta(expr)
        assert str(theta) == expr


def test_cli_companions_checks_the_bound_first(capsys, monkeypatch):
    # the flag, the default bound and QDE_MAX_DISC each refuse before any
    # class data is built (D = 1000003 has disc 4,000,012, D = 79 has 316)
    from qde.classgroup import _class_data

    monkeypatch.delenv("QDE_MAX_DISC", raising=False)
    before = _class_data.cache_info()
    assert main(["companions", "--D", "1000003", "--max-disc", "1000", "--json"]) == 1
    assert "desk-scale bound 1000" in capsys.readouterr().err
    assert main(["companions", "--D", "1000003"]) == 1
    assert "desk-scale bound 1000000" in capsys.readouterr().err
    monkeypatch.setenv("QDE_MAX_DISC", "300")
    assert main(["companions", "--D", "79"]) == 1
    assert "desk-scale bound 300" in capsys.readouterr().err
    assert _class_data.cache_info() == before
    monkeypatch.delenv("QDE_MAX_DISC")
    assert main(["companions", "--D", "79"]) == 0
    assert capsys.readouterr().out.count("companion") == 3


def test_cli_refuses_a_large_D_before_factoring_it():
    # D has two prime factors near 10^12: factoring it (Pollard rho, in the
    # radicand check of QuadraticOrder) took 0.9-1.3 s before the refusal
    src = str(Path(__file__).parent.parent / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    for command in ("classgroup", "companions"):
        start = time.perf_counter()
        result = subprocess.run(
            [sys.executable, "-m", "qde.cli", command,
             "--D", "3000000000130000000000507", "--max-disc", "1000"],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
            timeout=10,
        )
        elapsed = time.perf_counter() - start
        assert result.returncode == 1 and result.stdout == ""
        assert result.stderr == (
            "error: discriminant 12000000000520000000002028 exceeds the desk-scale "
            "bound 1000; raise the bound to proceed\n"
        )
        assert elapsed < 0.6, (command, elapsed)
