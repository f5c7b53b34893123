import csv
import io
import json
import re

import numpy as np
import pytest

from entrocert.cli import main
from entrocert.report import CertificationReport


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_list_names(capsys):
    rc, out, _ = run(capsys, "list")
    assert rc == 0
    for name in ("tlogt", "neglog", "square", "power:1.5", "affine", "exp", "negsqrt"):
        assert name in out
    assert "undefined at 0" in out  # neglog has no zero extension
    assert "t*log(t)" in out  # each row shows the expression it runs


def test_certify_pass_report_round_trip(capsys):
    rc, out, err = run(
        capsys,
        "certify", "--function", "tlogt", "--suite", "condition13",
        "--seed", "5", "--samples", "6",
    )
    assert rc == 0
    report = CertificationReport.from_json(out)
    assert report.function["name"] == "tlogt"
    assert report.config["seed"] == 5 and report.config["samples"] == 6
    assert all(o.verdict == "PASS" for o in report.outcomes)
    assert report.wall_time_ms > 0.0
    assert "[PASS] condition13" in err


def test_certify_fail_exit_code(capsys):
    rc, out, err = run(
        capsys,
        "certify", "--function", "square", "--suite", "condition13",
        "--seed", "5", "--samples", "6",
    )
    assert rc == 1
    report = CertificationReport.from_json(out)
    (outcome,) = report.outcomes
    assert outcome.verdict == "FAIL"
    assert outcome.counterexample["kind"] == "condition13"
    assert "[FAIL] condition13" in err


def test_certify_skipped_exit_code(capsys):
    rc, _, err = run(
        capsys,
        "certify", "--function", "affine", "--suite", "condition13",
        "--seed", "5", "--samples", "6",
    )
    assert rc == 2
    assert "[SKIPPED]" in err


def test_certify_out_and_sweep_files(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    csv_path = tmp_path / "margins.csv"
    rc, out, _ = run(
        capsys,
        "certify", "--function", "tlogt", "--suite", "condition13",
        "--seed", "9", "--samples", "5", "--dim", "2",
        "--out", str(out_path), "--sweep-csv", str(csv_path),
    )
    assert rc == 0
    assert out == ""  # report went to the file
    report = CertificationReport.from_json(out_path.read_text())
    assert report.outcomes[0].name == "condition13"

    rows = list(csv.reader(io.StringIO(csv_path.read_text())))
    assert rows[0] == ["test", "dim", "trial", "margin", "scale"]
    assert len(rows) - 1 == report.outcomes[0].trials_run
    for row in rows[1:]:
        assert float(row[3]) > -1e-8  # tlogt margins are nonnegative to noise


def test_sweep_stdout(capsys):
    rc, out, _ = run(
        capsys,
        "sweep", "--function", "square", "--suite", "condition13",
        "--seed", "1", "--samples", "7", "--dim", "2",
    )
    assert rc == 1
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["test", "dim", "trial", "margin", "scale"]
    assert len(rows) - 1 == 7
    for row in rows[1:]:
        assert row[0] == "condition13" and row[1] == "2"
        assert float(row[3]) == pytest.approx(-0.5, abs=1e-12)


def test_sweep_out_file(capsys, tmp_path):
    csv_path = tmp_path / "sweep.csv"
    rc, out, _ = run(
        capsys,
        "sweep", "--function", "square", "--suite", "condition13",
        "--seed", "1", "--samples", "2", "--out", str(csv_path),
    )
    assert rc == 1
    assert out == ""  # the CSV went to the file
    rows = list(csv.reader(io.StringIO(csv_path.read_text())))
    assert rows[0] == ["test", "dim", "trial", "margin", "scale"]
    assert len(rows) > 1 and all(row[0] == "condition13" for row in rows[1:])


def test_expr_selection(capsys):
    rc, out, _ = run(
        capsys,
        "certify", "--expr", "t*log(t)", "--suite", "gap",
        "--seed", "2", "--samples", "5",
    )
    assert rc == 0
    report = CertificationReport.from_json(out)
    assert "log" in report.function["name"]
    assert report.function["expression"] == report.function["name"]


def test_expr_zero_extension(capsys):
    rc, out, _ = run(
        capsys,
        "certify", "--expr", "t^2", "--zero-extension", "0",
        "--suite", "principle1", "--seed", "2", "--samples", "5",
    )
    assert rc == 0
    report = CertificationReport.from_json(out)
    assert report.function["zero_extension"] == 0.0


@pytest.mark.parametrize("expression", ["-log(t)", "-sqrt(t)"])
def test_expr_may_start_with_a_minus(capsys, expression):
    # argparse would read "-log(t)" as an option; both spellings select it
    argv = ("--suite", "principle1", "--seed", "1", "--samples", "2")
    rc, out, _ = run(capsys, "certify", "--expr", expression, *argv)
    assert rc == 0
    report = CertificationReport.from_json(out)
    assert report.function["expression"] == expression
    rc_eq, out_eq, _ = run(capsys, "certify", f"--expr={expression}", *argv)
    assert rc_eq == 0
    d1, d2 = json.loads(out), json.loads(out_eq)
    d1.pop("wall_time_ms"), d2.pop("wall_time_ms")
    assert d1 == d2
    rc, out, _ = run(capsys, "sweep", "--expr", expression, *argv)
    assert rc == 0 and out.splitlines()[0] == "test,dim,trial,margin,scale"


def test_determinism_modulo_wall_time(capsys):
    argv = (
        "certify", "--function", "neglog", "--suite", "condition13",
        "--seed", "11", "--samples", "6",
    )
    _, out1, _ = run(capsys, *argv)
    _, out2, _ = run(capsys, *argv)
    d1, d2 = json.loads(out1), json.loads(out2)
    d1.pop("wall_time_ms"), d2.pop("wall_time_ms")
    assert d1 == d2


@pytest.mark.parametrize(
    "argv",
    [
        ["certify", "--function", "nope", "--suite", "condition13", "--seed", "1"],
        ["certify", "--expr", "t +", "--seed", "1"],
        ["certify", "--expr", "log(t", "--seed", "1"],
        ["certify", "--function", "tlogt", "--zero-extension", "0", "--seed", "1"],
        ["certify", "--function", "tlogt", "--bipartite", "2y3", "--seed", "1"],
        ["certify", "--function", "tlogt", "--bipartite", "2xa", "--seed", "1"],
        ["certify", "--function", "tlogt", "--samples", "0", "--seed", "1"],
        ["certify", "--function", "tlogt"],  # --seed is mandatory
        ["certify", "--function", "tlogt", "--suite", "bogus", "--seed", "1"],
        ["certify", "--function", "tlogt", "--seed", "1", "--eig-min", "5", "--eig-max", "1"],
        ["certify", "--function", "tlogt", "--expr", "t", "--seed", "1"],
        [],
        # non-finite numbers are usage errors, not a FAIL (exit 1) or a crash
        ["certify", "--function", "tlogt", "--suite", "principle1", "--seed", "1",
         "--samples", "2", "--eig-max", "inf"],
        ["certify", "--function", "tlogt", "--suite", "principle1", "--seed", "1",
         "--samples", "2", "--eig-max", "1e400"],
        ["certify", "--function", "tlogt", "--suite", "principle1", "--seed", "1",
         "--samples", "2", "--tol", "inf"],
        # no normalised PSD margin lies below -1, so such a tol could never refute
        ["certify", "--function", "square", "--suite", "condition13", "--seed", "1",
         "--samples", "4", "--tol", "2"],
        # seeds outside 64 bits would alias a seed inside
        ["certify", "--function", "tlogt", "--suite", "principle1", "--seed", "-1",
         "--samples", "2"],
        ["certify", "--function", "tlogt", "--suite", "principle1",
         "--seed", "18446744073709551616", "--samples", "2"],
        # a repeated dimension or split would count the same trials twice
        ["certify", "--function", "tlogt", "--dim", "2", "--dim", "2", "--seed", "1",
         "--samples", "3"],
        ["certify", "--function", "tlogt", "--bipartite", "2x2", "--bipartite", "2x2",
         "--seed", "1", "--samples", "3"],
        # a literal that overflows to inf, and a non-finite f(0), fail before any suite runs
        ["certify", "--expr", "t^1e400", "--suite", "principle1", "--seed", "1", "--samples", "2"],
        ["certify", "--expr", "t*log(t)", "--zero-extension", "nan", "--suite", "principle1",
         "--seed", "1", "--samples", "2"],
        ["certify", "--expr", "t*log(t)", "--zero-extension", "inf", "--suite", "principle1",
         "--seed", "1", "--samples", "2"],
    ],
)
def test_usage_errors_exit_3(capsys, argv):
    rc = main(argv)
    capsys.readouterr()
    assert rc == 3


def test_overflowing_spectrum_is_a_numerical_error(capsys):
    # the Frobenius norms behind eigh's residual check overflow to inf here;
    # the check must not pass vacuously (inf <= 1e-12 * inf)
    with np.errstate(over="ignore"):
        rc, out, err = run(
            capsys,
            "certify", "--function", "tlogt", "--suite", "principle1",
            "--seed", "1", "--samples", "2", "--eig-max", "1e300",
        )
    assert rc == 3
    assert out == "" and "PASS" not in err
    assert "numerical error" in err and "not finite" in err


def _square_condition13_report(capsys, tmp_path):
    path = tmp_path / "square.json"
    rc, _, _ = run(
        capsys, "certify", "--function", "square", "--suite", "condition13",
        "--samples", "4", "--seed", "1", "--out", str(path),
    )
    assert rc == 1
    return path


def test_reverify_rebuilds_the_function_from_its_expression(capsys, tmp_path):
    path = _square_condition13_report(capsys, tmp_path)
    rc, _, err = run(capsys, "reverify", str(path))
    assert rc == 0
    # both margins are -1/2 to rounding (the margins agree to 1e-12 relative)
    match = re.fullmatch(r"\[FAIL\] condition13: payload margin (\S+), re-verified (\S+)\n", err)
    assert match
    for margin in match.groups():
        assert float(margin) == pytest.approx(-0.5, rel=1e-12)

    # the name plays no part: under t*log(t) the square witness does not hold
    obj = json.loads(path.read_text())
    obj["function"]["expression"] = "t*log(t)"
    path.write_text(json.dumps(obj))
    rc, _, err = run(capsys, "reverify", str(path))
    assert rc == 1
    assert "not below -tol/2" in err


def test_reverify_usage_errors(capsys, tmp_path):
    path = _square_condition13_report(capsys, tmp_path)
    obj = json.loads(path.read_text())
    obj["function"]["expression"] = None
    path.write_text(json.dumps(obj))
    rc, _, err = run(capsys, "reverify", str(path))
    assert rc == 3
    assert "no expression" in err
    rc, _, _ = run(capsys, "reverify", str(tmp_path / "missing.json"))
    assert rc == 3


@pytest.mark.parametrize(
    "payload", [None, "not a payload", "missing rho"], ids=["null", "string", "missing-field"]
)
def test_reverify_malformed_payload_is_a_usage_error(capsys, tmp_path, payload):
    # exit 1 means "did not re-verify"; a FAIL without a readable payload is
    # a malformed report (exit 3), not a traceback
    path = _square_condition13_report(capsys, tmp_path)
    obj = json.loads(path.read_text())
    (outcome,) = obj["outcomes"]
    if payload == "missing rho":
        del outcome["counterexample"]["rho"]
    else:
        outcome["counterexample"] = payload
    path.write_text(json.dumps(obj))
    rc, out, err = run(capsys, "reverify", str(path))
    assert rc == 3
    assert out == "" and "Traceback" not in err
    assert err.startswith("entrocert: error:")
    assert "malformed report" in err and "condition13" in err


@pytest.mark.parametrize(
    "field, value, named",
    [("rho", [1, 2], "field 'rho'"), ("kind", [1], "kind [1]")],
    ids=["rho-list", "kind-list"],
)
def test_reverify_payload_field_of_the_wrong_json_type_is_a_usage_error(
    capsys, tmp_path, field, value, named
):
    # a payload field of the wrong JSON type is a usage error (exit 3) that
    # names the field or kind, not a traceback (exit 1, "did not re-verify")
    path = _square_condition13_report(capsys, tmp_path)
    obj = json.loads(path.read_text())
    obj["outcomes"][0]["counterexample"][field] = value
    path.write_text(json.dumps(obj))
    rc, out, err = run(capsys, "reverify", str(path))
    assert rc == 3
    assert out == "" and "Traceback" not in err
    assert err.startswith("entrocert: error:") and named in err


@pytest.mark.parametrize(
    "suite, field, key, added",
    [
        ("entropic", "dim1", None, 0.9), ("condition13", "rho", "dim", 0.5),
        ("gain", "channel", "in_dim", 0.5),
    ],
    ids=["entropic-dim1", "matrix-dim", "channel-in_dim"],
)
def test_reverify_non_integral_payload_number_is_a_usage_error(
    capsys, tmp_path, suite, field, key, added
):
    # an integer field written as 2.9 is malformed (exit 3); truncated to 2
    # it would re-verify as the payload it is not
    path = tmp_path / "square.json"
    rc, _, _ = run(
        capsys, "certify", "--function", "square", "--suite", suite,
        "--samples", "4", "--seed", "1", "--out", str(path),
    )
    assert rc == 1
    obj = json.loads(path.read_text())
    payload = obj["outcomes"][0]["counterexample"]
    holder = payload if key is None else payload[field]
    holder[key or field] += added
    path.write_text(json.dumps(obj))
    rc, out, err = run(capsys, "reverify", str(path))
    assert rc == 3
    assert out == "" and "Traceback" not in err
    assert err.startswith("entrocert: error:") and f"field {field!r}" in err
    assert "expected an integer" in err


def test_report_to_json_is_compact_and_round_trips():
    from entrocert.certify import TestConfig, run_suite
    from entrocert.expr import lookup

    f, cfg = lookup("square"), TestConfig(seed=1, samples=4)
    outcomes, fit = run_suite(f, "all", cfg)
    report = CertificationReport(f.describe(), cfg.as_dict(), tuple(outcomes), 12.5, fit)
    text = report.to_json()
    assert "\n" not in text
    assert CertificationReport.from_json(text) == report
    assert CertificationReport.from_json(report.to_json(indent=2)) == report


def test_certify_out_writes_the_indented_report(capsys, tmp_path):
    from entrocert.certify import TestConfig, run_suite
    from entrocert.expr import lookup

    out_path = tmp_path / "square.json"
    rc, _, _ = run(
        capsys,
        "certify", "--function", "square", "--suite", "condition13",
        "--seed", "1", "--samples", "4", "--out", str(out_path),
    )
    assert rc == 1
    text = out_path.read_text()
    f, cfg = lookup("square"), TestConfig(seed=1, samples=4)
    outcomes, fit = run_suite(f, "condition13", cfg)
    # the same report, with the wall time the run measured
    report = CertificationReport(
        f.describe(), cfg.as_dict(), tuple(outcomes), json.loads(text)["wall_time_ms"], fit
    )
    assert text == json.dumps(report.to_dict(), indent=2, allow_nan=False) + "\n"
    assert text.splitlines()[1].startswith('  "tool_version"')
