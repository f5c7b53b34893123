import contextlib
import csv
import functools
import io
import json
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from entrocert.certify import FAIL, INCONCLUSIVE, PASS, SKIPPED
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
    "key, value, named",
    [
        ("expression", [1], "(function.expression: expected a string, got [1])"),
        ("zero_extension", True, "(function.zero_extension: expected a number, got True)"),
        ("zero_extension", "0", "(function.zero_extension: expected a number, got '0')"),
    ],
    ids=["expression-list", "zero_extension-true", "zero_extension-string"],
)
def test_reverify_checks_the_function_descriptor_before_it_parses(capsys, tmp_path, key, value, named):
    # a descriptor of the wrong JSON type is a malformed report (exit 3): not
    # a traceback (exit 1, "did not re-verify"), and a true is no f(0) = 1
    path = _square_condition13_report(capsys, tmp_path)
    obj = json.loads(path.read_text())
    obj["function"][key] = value
    path.write_text(json.dumps(obj))
    rc, out, err = run(capsys, "reverify", str(path))
    assert rc == 3
    assert out == "" and "Traceback" not in err
    assert err.startswith("entrocert: error:") and "malformed report" in err and named in err


@pytest.mark.parametrize("entry", [True, "1"], ids=repr)
def test_reverify_payload_matrix_entry_is_a_json_number(capsys, tmp_path, entry):
    # read as 1.0, a true entry would re-verify as the payload it is not
    path = _square_condition13_report(capsys, tmp_path)
    obj = json.loads(path.read_text())
    obj["outcomes"][0]["counterexample"]["rho"]["re"][0][0] = entry
    path.write_text(json.dumps(obj))
    rc, out, err = run(capsys, "reverify", str(path))
    assert rc == 3
    assert out == "" and "Traceback" not in err
    assert err.startswith("entrocert: error:") and "field 'rho'" in err and "expected a number" in err


@pytest.mark.parametrize(
    "suite, path, field, why",
    [
        ("condition13", ("rho", "re", 0, 0), "rho", "an entry is not finite"),
        ("condition13", ("sigma", "im", 1, 0), "sigma", "an entry is not finite"),
        ("gain", ("channel", "kraus", 0, "im", 0, 0), "channel",
         "Kraus family is not trace preserving (defect nan)"),
    ],
    ids=["matrix-re", "matrix-im", "kraus-im"],
)
@pytest.mark.parametrize("literal", ["1e999", "-1e999"])
def test_reverify_non_finite_payload_entry_is_a_usage_error(
    capsys, tmp_path, suite, path, field, why, literal
):
    # JSON reads the literal 1e999 as inf: a malformed report that names its
    # field (exit 3), not a NumPy warning and a numerical error of the
    # linear algebra.  A channel's own check refuses it first
    import warnings

    report = tmp_path / "square.json"
    rc, _, _ = run(
        capsys, "certify", "--function", "square", "--suite", suite,
        "--samples", "4", "--seed", "1", "--out", str(report),
    )
    assert rc == 1
    obj = json.loads(report.read_text())
    holder = obj["outcomes"][0]["counterexample"]
    for key in path[:-1]:
        holder = holder[key]
    holder[path[-1]] = "ENTRY"
    report.write_text(json.dumps(obj).replace('"ENTRY"', literal))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = run(capsys, "reverify", str(report))
    assert rc == 3
    assert out == "" and "Traceback" not in err
    assert err.startswith("entrocert: error:") and (
        f"(outcomes[0].counterexample: {suite} field {field!r} is malformed: {why})"
    ) in err


@pytest.fixture(scope="module")
def fit_report(tmp_path_factory):
    """A report whose last outcome is a uniqueness-fit FAIL, with the extras t, slope and relative_residual."""
    path = tmp_path_factory.mktemp("fit") / "fit.json"
    rc = main([
        "certify", "--expr", "t*log(t) - 0.001*t^2", "--zero-extension", "0", "--suite", "uniqueness",
        "--samples", "20", "--seed", "1", "--tol", "0.5", "--out", str(path),
    ])
    assert rc == 1
    return path.read_text()


@pytest.mark.parametrize(
    "extra, value, why",
    [
        ("slope", '"x"', "expected a number, got 'x'"),
        ("t", "true", "expected a number, got True"),
        ("relative_residual", "1e999", "expected a number, got inf"),
    ],
)
def test_reverify_malformed_witness_extra_is_a_usage_error(capsys, tmp_path, fit_report, extra, value, why):
    # a witness's extras are checked as it is read: a malformed one is a
    # malformed report that names it (exit 3), not a report that
    # re-verifies as the intact one does (exit 1, from its tol)
    obj = json.loads(fit_report)
    last = len(obj["outcomes"]) - 1
    assert obj["outcomes"][last]["counterexample"]["kind"] == "uniqueness-fit"
    obj["outcomes"][last]["counterexample"][extra] = "EXTRA"
    path = tmp_path / "fit.json"
    path.write_text(json.dumps(obj).replace('"EXTRA"', value))
    rc, out, err = run(capsys, "reverify", str(path))
    assert rc == 3
    assert out == "" and "Traceback" not in err
    assert f"(outcomes[{last}].counterexample: uniqueness-fit field {extra!r} is malformed: {why})" in err
    path.write_text(fit_report)
    assert run(capsys, "reverify", str(path))[0] == 1


@pytest.mark.parametrize("factor, rc", [(1.0 + 1e-13, 0), (1.0 + 1e-11, 1), (-10.0, 1)])
def test_reverify_compares_the_payload_margin(capsys, tmp_path, factor, rc):
    # the re-verified margin must be the payload's, to the goldens' 1e-12
    # relative: a witness whose margin was edited does not re-verify
    path = _square_condition13_report(capsys, tmp_path)
    obj = json.loads(path.read_text())
    payload = obj["outcomes"][0]["counterexample"]
    payload["margin"] *= factor
    path.write_text(json.dumps(obj))
    got, _, err = run(capsys, "reverify", str(path))
    assert got == rc
    assert f"payload margin {payload['margin']!r}, re-verified " in err
    assert ("not the payload margin" in err) == (rc == 1)
    assert "not below -tol/2" not in err  # the witness itself still refutes


@pytest.mark.parametrize("factor, rc", [(1.0 + 1e-13, 0), (1.0 + 1e-11, 1), (0.5, 1)])
def test_reverify_compares_the_payload_margin_with_min_margin(capsys, tmp_path, factor, rc):
    # a FAIL hands out its strongest witness, so the payload's margin is the
    # outcome's min_margin, to the same 1e-12 relative: an edited min_margin
    # does not re-verify, and both values are printed
    path = _square_condition13_report(capsys, tmp_path)
    obj = json.loads(path.read_text())
    outcome = obj["outcomes"][0]
    outcome["min_margin"] *= factor
    path.write_text(json.dumps(obj))
    got, _, err = run(capsys, "reverify", str(path))
    assert got == rc
    stated = outcome["counterexample"]["margin"]
    assert f"payload margin {stated!r}, re-verified " in err
    assert (f"not the outcome's min_margin {outcome['min_margin']!r}" in err) == (rc == 1)
    assert "not below -tol/2" not in err and "not the payload margin" not in err


def test_reverify_accepts_every_intact_fail_of_an_all_report(capsys, tmp_path):
    # sampled, searched (subentropic:k=3) and pipeline FAILs alike state
    # their min_margin in their payload
    path = tmp_path / "power.json"
    rc, _, _ = run(
        capsys, "certify", "--function", "power:1.25", "--suite", "all",
        "--samples", "10", "--seed", "42", "--out", str(path),
    )
    assert rc == 1
    outcomes = json.loads(path.read_text())["outcomes"]
    fails = [o for o in outcomes if o["verdict"] == "FAIL"]
    assert {"subentropic:k=3", "uniqueness"} <= {o["name"] for o in fails}
    assert any("constructed from" in o["detail"] for o in fails)
    rc, _, err = run(capsys, "reverify", str(path))
    assert rc == 0
    assert err.count("re-verified") == len(fails) and " -- " not in err


@pytest.mark.parametrize(
    "margin, written", [("1", "'1'"), (True, "True"), (None, "None"), (float("inf"), "Infinity"), (float("nan"), "NaN")],
    ids=["'1'", "True", "None", "inf", "nan"],
)
def test_reverify_payload_margin_is_a_finite_number(capsys, tmp_path, margin, written):
    path = _square_condition13_report(capsys, tmp_path)
    obj = json.loads(path.read_text())
    obj["outcomes"][0]["counterexample"]["margin"] = margin
    path.write_text(json.dumps(obj))  # inf and nan are written as Infinity and NaN
    rc, out, err = run(capsys, "reverify", str(path))
    assert rc == 3
    assert out == "" and "Traceback" not in err
    assert err.startswith("entrocert: error:")
    assert f"(outcomes[0].counterexample.margin: expected a number, got {written})" in err
    del obj["outcomes"][0]["counterexample"]["margin"]
    path.write_text(json.dumps(obj))
    rc, _, err = run(capsys, "reverify", str(path))
    assert rc == 3 and "(outcomes[0].counterexample.margin: missing)" in err


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
    assert "malformed report (outcomes[0].counterexample" in err
    assert ("condition13 payload lacks 'rho'" in err) == (payload == "missing rho")


@pytest.mark.parametrize(
    "field, value, named",
    [("rho", [1, 2], "field 'rho'"), ("kind", [1], "counterexample.kind: expected a string, got [1]")],
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


@pytest.mark.parametrize(
    "suite, field, key",
    [("entropic", "dim1", None), ("condition13", "rho", "dim"), ("gain", "channel", "in_dim")],
    ids=["entropic-dim1", "matrix-dim", "channel-in_dim"],
)
def test_reverify_boolean_payload_integer_is_a_usage_error(capsys, tmp_path, suite, field, key):
    # a JSON true is no integer: read as 1 it would re-verify as the payload it is not
    path = tmp_path / "square.json"
    rc, _, _ = run(
        capsys, "certify", "--function", "square", "--suite", suite,
        "--samples", "4", "--seed", "1", "--out", str(path),
    )
    assert rc == 1
    obj = json.loads(path.read_text())
    payload = obj["outcomes"][0]["counterexample"]
    (payload if key is None else payload[field])[key or field] = True
    path.write_text(json.dumps(obj))
    rc, out, err = run(capsys, "reverify", str(path))
    assert rc == 3
    assert out == "" and "Traceback" not in err
    assert err.startswith("entrocert: error:") and f"field {field!r}" in err
    assert "expected an integer, got True" in err


def test_reverify_equivalence_payload_without_band_is_a_usage_error(capsys, tmp_path):
    # an equivalence payload holds its band: none is assumed for a payload without one
    path = _square_condition13_report(capsys, tmp_path)
    obj = json.loads(path.read_text())
    (outcome,) = obj["outcomes"]
    rho, sigma = outcome["counterexample"]["rho"], outcome["counterexample"]["sigma"]
    margin = outcome["counterexample"]["margin"]
    outcome["counterexample"] = {
        "kind": "equivalence", "rho": rho, "sigma": sigma, "h1": [rho], "h2": [sigma], "margin": margin
    }
    path.write_text(json.dumps(obj))
    rc, out, err = run(capsys, "reverify", str(path))
    assert rc == 3
    assert out == "" and "Traceback" not in err
    assert err.startswith("entrocert: error:") and "equivalence payload lacks 'band'" in err


@pytest.mark.parametrize(
    "field, value, named",
    [
        ("trials_run", 3.7, "expected an integer"), ("trials_skipped", "2", "expected an integer"),
        ("verdict", "fail", "expected a verdict"), ("min_margin", "-0.5", "expected a number"),
        ("min_margin", float("inf"), "expected a number, got Infinity"),
        ("trials_run", -3, "expected a count of at least 0"),
        ("trials_skipped", -1, "expected a count of at least 0"),
        ("trials_run", True, "expected an integer"), ("trials_skipped", True, "expected an integer"),
    ],
    ids=[
        "trials_run-fraction", "trials_skipped-string", "verdict", "min_margin-string", "min_margin-inf",
        "trials_run-negative", "trials_skipped-negative", "trials_run-true", "trials_skipped-true",
    ],
)
def test_reverify_malformed_outcome_is_a_usage_error(capsys, tmp_path, field, value, named):
    # an outcome's counts are read as payload integers are (3.7 is not
    # truncated to 3, nor "2" parsed), its verdict is one of the four and its
    # min_margin null or finite; anything else is a malformed report (exit 3)
    path = _square_condition13_report(capsys, tmp_path)
    obj = json.loads(path.read_text())
    obj["outcomes"][0][field] = value
    path.write_text(json.dumps(obj))  # inf is written as Infinity, which json reads back
    rc, out, err = run(capsys, "reverify", str(path))
    assert rc == 3
    assert out == "" and "Traceback" not in err
    assert err.startswith("entrocert: error:") and f"(outcomes[0].{field}: {named}" in err


@pytest.mark.parametrize(
    "tol, named",
    [
        ("nan", "config.tol: expected a number, got 'nan'"),
        ("1e-8", "config.tol: expected a number, got '1e-8'"),
        (-1.0, "config: tol must lie in (0, 1)"),
        (1.5, "config: tol must lie in (0, 1)"),
        (True, "config.tol: expected a number, got True"),
    ],
    ids=["'nan'", "'1e-8'", "-1.0", "1.5", "True"],
)
def test_reverify_malformed_tol_is_a_usage_error(capsys, tmp_path, tol, named):
    # the bound -tol/2 is read by TestConfig's rule, a number in (0, 1): a
    # NaN tol would refute every witness, a negative one re-verify margins
    # up to |tol|/2, and a string or a bool is no number
    path = _square_condition13_report(capsys, tmp_path)
    obj = json.loads(path.read_text())
    obj["config"]["tol"] = tol
    path.write_text(json.dumps(obj))
    rc, out, err = run(capsys, "reverify", str(path))
    assert rc == 3
    assert out == "" and "Traceback" not in err
    assert err.startswith("entrocert: error:") and f"malformed report ({named})" in err


def test_reverify_payload_outside_the_domain_is_a_domain_error(capsys, tmp_path):
    # a FAIL payload whose points leave f's domain cannot be measured:
    # re-verifying it is a domain error (exit 3), not a refuted witness
    path = tmp_path / "log.json"
    rc, _, _ = run(
        capsys, "certify", "--expr", "log(t)", "--suite", "principle1",
        "--samples", "2", "--seed", "1", "--out", str(path),
    )
    assert rc == 1
    obj = json.loads(path.read_text())
    assert obj["outcomes"][0]["verdict"] == "FAIL"
    margin = obj["outcomes"][0]["counterexample"]["margin"]
    obj["outcomes"][0]["counterexample"] = {"kind": "scalar-convexity", "t": -1.0, "s": 1.0, "margin": margin}
    path.write_text(json.dumps(obj))
    rc, out, err = run(capsys, "reverify", str(path))
    assert rc == 3
    assert out == "" and "Traceback" not in err
    assert err == "entrocert: domain error: log(t) evaluated at t=-1, outside its domain (t > 0)\n"


@pytest.mark.parametrize("suite", ["all", "uniqueness"])
def test_every_report_the_library_writes_is_accepted(capsys, tmp_path, suite):
    # the grammar is read off what run_suite writes; these runs hold every
    # verdict, fits, channels, equivalence pairs and SKIPPED gap suites
    from entrocert.expr import registry

    selections = [
        *(["--function", f.name] for f in registry()),
        ["--expr", "t*log(t)", "--zero-extension", "0"], ["--expr=-log(t)"],
        ["--expr=-log(5-t)"], ["--expr", "log(t-0.002)*t"], ["--expr", "1/(7-t)"],
    ]
    verdicts, kinds, fits = set(), set(), 0
    for selection in selections:
        path = tmp_path / "report.json"
        run(capsys, "certify", *selection, "--suite", suite, "--samples", "10", "--seed", "42", "--out", str(path))
        text = path.read_text()
        report = CertificationReport.from_json(text)
        assert report.to_json(indent=2) + "\n" == text
        assert CertificationReport.from_json(report.to_json()).to_json() == report.to_json()
        rc, _, err = run(capsys, "reverify", str(path))
        assert rc == 0, (selection, err)
        verdicts |= {o.verdict for o in report.outcomes}
        kinds |= {o.counterexample["kind"] for o in report.outcomes if o.counterexample}
        fits += report.fit is not None
    assert fits > 0
    if suite == "all":
        assert verdicts == {PASS, FAIL, INCONCLUSIVE, SKIPPED}
        assert {"gain", "condition13", "gap-superadditive"} <= kinds, kinds


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


def test_a_report_with_a_fit_round_trips():
    # only the survivor reaches the uniqueness fit, which the report carries
    from entrocert.certify import TestConfig, run_suite
    from entrocert.expr import lookup

    f, cfg = lookup("tlogt"), TestConfig(seed=1, samples=4)
    outcomes, fit = run_suite(f, "all", cfg)
    report = CertificationReport(f.describe(), cfg.as_dict(), tuple(outcomes), 12.5, fit)
    assert fit is not None and report.to_dict()["fit"] == fit
    assert CertificationReport.from_json(report.to_json()) == report


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


# --------------------------------------------------------------------------
# the report grammar, checked by mutation

def _paths(value, path=()):
    """Every path into a JSON value: every key, every outcome, and the first entry of any other list."""
    yield path
    if type(value) is dict:
        for key, entry in value.items():
            yield from _paths(entry, (*path, key))
    elif type(value) is list:
        for i, entry in enumerate(value if path == ("outcomes",) else value[:1]):
            yield from _paths(entry, (*path, i))


def _same(a, b) -> bool:
    """One JSON document: the same keys, strings and booleans, and numbers equal in value (2 is 2.0)."""
    if type(a) in (int, float) and type(b) in (int, float):
        return a == b
    if type(a) is not type(b):
        return False
    if type(a) is dict:
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if type(a) is list:
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    return a == b


def _free(report: dict, path: tuple, value) -> bool:
    """Whether the grammar leaves the value at path free: the fit, what re-verification does not
    read, and a null zero extension (f undefined at 0)."""
    from entrocert.certify import _PROPERTIES

    if path[:1] == ("fit",) or path == ("function", "zero_extension") and value is None:
        return True
    if len(path) < 4 or path[2] != "counterexample":
        return False
    payload = report["outcomes"][path[1]]["counterexample"]
    return path[3] not in ("kind", "margin", *(name for name, _ in _PROPERTIES[payload["kind"]].fields))


_DELETE, _ADD = "<delete the key>", "<add a key>"
_MUTATIONS = (
    True, False, "1", [1], {}, None, float("nan"), float("inf"), "<negative>", "<non-integral>", _DELETE, _ADD
)


@functools.cache
def _square_all() -> str:
    """The JSON text of one `square --suite all --samples 4 --seed 1` report."""
    from entrocert.certify import TestConfig, run_suite
    from entrocert.expr import lookup

    f, cfg = lookup("square"), TestConfig(seed=1, samples=4)
    outcomes, fit = run_suite(f, "all", cfg)
    return CertificationReport(f.describe(), cfg.as_dict(), tuple(outcomes), 12.5, fit).to_json()


def _json_kind(value):
    """A value's JSON type: every finite number is one kind, and NaN and Infinity are none."""
    return "number" if type(value) in (int, float) and abs(value) < float("inf") else type(value)


def _mutated(report: dict, path: tuple, mutation):
    """The report with one mutation at path (None where it does not apply), and whether it puts
    a value of another JSON type where one was."""
    obj = json.loads(json.dumps(report))
    if not path:  # the report itself
        return {**obj, "added": 1} if mutation == _ADD else None if mutation == _DELETE else mutation, False
    *head, last = path
    parent = functools.reduce(lambda node, step: node[step], head, obj)
    held = type(parent) is list or last in parent
    old = parent[last] if held else None
    if mutation == _DELETE:
        del parent[last]
    elif mutation == _ADD:
        if type(old) is list:
            old.append(old[0] if old else 1)
        elif type(old) is dict:
            old["added"] = 1
        else:
            return None, False
    elif mutation in ("<negative>", "<non-integral>"):
        if _json_kind(old) != "number":
            return None, False
        parent[last] = -old - 1 if mutation == "<negative>" else old + 0.5
    else:
        parent[last] = mutation
        return obj, held and _json_kind(mutation) != _json_kind(old)
    return obj, False


_PATHS = st.deferred(lambda: st.sampled_from(sorted(_paths(json.loads(_square_all())))))


@settings(max_examples=150, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(path=_PATHS, mutation=st.sampled_from(_MUTATIONS))
@example(path=("outcomes",), mutation={})
@example(path=("wall_time_ms",), mutation=float("nan"))
@example(path=("outcomes", 0, "counterexample"), mutation=True)
@example(path=("outcomes", 0, "detail"), mutation=None)
def test_reverify_reads_every_mutated_report_by_one_grammar(tmp_path, path, mutation):
    # one field at a time: every case exits 0, 1 or 3 with no traceback, a
    # value of another JSON type exits 3 where the grammar reads it, and a
    # report the grammar accepts writes back as the same document
    report = json.loads(_square_all())
    obj, swapped = _mutated(report, path, mutation)
    assume(obj is not None)
    text = json.dumps(obj)
    file = tmp_path / "mutated.json"
    file.write_text(text)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = main(["reverify", str(file)])
    err = err.getvalue()
    assert rc in (0, 1, 3) and "Traceback" not in err
    if swapped and not _free(report, path, mutation):
        assert rc == 3, (path, mutation, err)
    try:
        parsed = CertificationReport.from_json(text)
    except ValueError:
        assert rc == 3 and err.startswith("entrocert: error:") and "malformed report" in err
    else:
        assert _same(json.loads(parsed.to_json()), obj)


_UNWRITTEN = [
    (("outcomes",), {}, "(outcomes: expected a non-empty list, got {})"),
    (("outcomes",), [], "(outcomes: expected a non-empty list, got [])"),
    (("wall_time_ms",), float("nan"), "(wall_time_ms: expected a number, got NaN)"),
    (("wall_time_ms",), float("inf"), "(wall_time_ms: expected a number, got Infinity)"),
    (("wall_time_ms",), True, "(wall_time_ms: expected a number, got True)"),
    (("wall_time_ms",), "1", "(wall_time_ms: expected a number, got '1')"),
    (("fit",), float("nan"), "(fit: expected a number, got NaN)"),
    (("outcomes", 0, "counterexample"), True, "(outcomes[0].counterexample: expected null on a PASS outcome)"),
    (("outcomes", 0, "name"), [1], "(outcomes[0].name: expected a string, got [1])"),
    (("outcomes", 0, "detail"), None, "(outcomes[0].detail: expected a string, got None)"),
    (("outcomes", 0, "detail"), _DELETE, "(outcomes[0].detail: missing)"),
    (("added",), 1, "(added: unknown key)"),
    (("outcomes", 0, "added"), 1, "(outcomes[0].added: unknown key)"),
    (("outcomes", 1, "min_margin"), None, "(outcomes[1].min_margin: expected a number on a FAIL outcome)"),
    (("config", "seed"), "x", "(config.seed: expected an integer, got 'x')"),
    (("config", "dims"), [9], "(config: dims must be nonempty with entries in 1..8)"),
]


@pytest.mark.parametrize(
    "path, value, named", _UNWRITTEN, ids=[f"{'.'.join(map(str, p))}={v!r}" for p, v, _ in _UNWRITTEN]
)
def test_reverify_refuses_what_no_certify_run_writes(capsys, tmp_path, path, value, named):
    # no certify run writes any of these: each is a malformed report, named by its path
    obj, _ = _mutated(json.loads(_square_all()), path, value)
    file = tmp_path / "square.json"
    file.write_text(json.dumps(obj))
    rc, out, err = run(capsys, "reverify", str(file))
    assert rc == 3 and out == ""
    assert err == f"entrocert: error: {file}: malformed report {named}\n"
