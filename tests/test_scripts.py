"""The example scripts, the README's library example and ``python -m entrocert`` run end to end."""

import math
import os
import re
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


def test_importing_entrocert_loads_no_numpy_polynomial():
    # numpy.polynomial adds about 0.75 MB of resident memory to every
    # process that loads it; only the tests' quadrature oracle needs it
    code = "import sys, entrocert; print(sorted(m for m in sys.modules if m.startswith('numpy.polynomial')))"
    proc = _run("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("script", ["run_hierarchy.py", "uniqueness_demo.py"])
def test_script_exits_zero(script):
    proc = _run(str(ROOT / "scripts" / script), "--samples", "3")
    assert proc.returncode == 0, proc.stderr
    if script == "run_hierarchy.py":
        # one line per function, then the whole run's time
        lines = proc.stderr.splitlines()
        assert len(lines) > 1 and all(line.startswith("# ") for line in lines)
        assert re.fullmatch(r"# total: \d+\.\d\ds", lines[-1])


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


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## Library", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    names = {}
    exec(compile(block, "README.md", "exec"), names)
    assert {o.verdict for o in names["outcomes"]} == {"PASS"}
    want = -sum(p * math.log(p) for p in (0.2, 0.3, 0.5))
    assert names["S"] == pytest.approx(want, rel=1e-12)
