import csv
import io
import json

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
