"""The project's pytest warning filters must let hypothesis report a failure.

To write up a falsifying example, hypothesis imports
`hypothesis.extra._patching`, which imports libcst, which raises
mypy_extensions' DeprecationWarning about TypedDict.  With deprecations
escalated to errors and no exception for that one, a hypothesis failure
ends the session with an internal error and shows no example.
"""

import subprocess
import sys
from pathlib import Path

import pytest

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def project_filters():
    tomllib = pytest.importorskip("tomllib")
    with open(PYPROJECT, "rb") as fh:
        return tomllib.load(fh)["tool"]["pytest"]["ini_options"]["filterwarnings"]


def import_with_filters(filters, module):
    """Import `module` in a fresh interpreter with `filters` as -W options
    (the last matching one wins, as in pytest's list)."""
    options = [arg for f in filters for arg in ("-W", f)]
    return subprocess.run([sys.executable, *options, "-c", f"import {module}"],
                          capture_output=True, text=True, timeout=60)


def test_hypothesis_failure_report_imports_under_the_project_filters():
    pytest.importorskip("libcst")  # without it hypothesis skips the write-up
    run = import_with_filters(project_filters(), "hypothesis.extra._patching")
    assert run.returncode == 0, run.stderr
