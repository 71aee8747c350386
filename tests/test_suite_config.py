"""The suite's own pytest configuration, run on a probe file in a subprocess."""

import subprocess
import sys
import textwrap
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_a_failing_property_test_is_reported_and_the_run_goes_on(tmp_path):
    (tmp_path / "test_probe.py").write_text(
        textwrap.dedent(
            """
            from hypothesis import given, strategies as st


            @given(st.integers())
            def test_fails(x):
                assert x < 0


            def test_passes():
                pass
            """
        ),
        encoding="utf-8",
    )
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path)]
        + ["-p", "no:cacheprovider", "test_probe.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "INTERNALERROR" not in out, out
    assert "Falsifying example: test_fails(" in out, out
    assert "FAILED test_probe.py::test_fails" in out, out
    assert "1 failed, 1 passed" in out, out
