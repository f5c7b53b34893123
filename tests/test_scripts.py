"""The example scripts and ``python -m entrocert`` run end to end at a tiny budget."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _run(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=120
    )


@pytest.mark.parametrize("script", ["run_hierarchy.py", "uniqueness_demo.py"])
def test_script_exits_zero(script):
    proc = _run(str(ROOT / "scripts" / script), "--samples", "3")
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize(
    "selection, code",
    [
        (["--function", "tlogt"], 0),
        # an overflowing literal is a usage error: no traceback, not a refutation (exit 1)
        (["--expr", "t^1e400"], 3),
    ],
    ids=["tlogt", "overflowing-literal"],
)
def test_module_entry_point_exit_code(selection, code):
    proc = _run(
        "-m", "entrocert", "certify", *selection,
        "--suite", "principle1", "--seed", "1", "--samples", "2",
    )
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
