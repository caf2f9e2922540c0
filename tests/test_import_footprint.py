"""Importing the command-line front end loads numpy and the standard
library only: scipy, mpmath, sympy, hypothesis and pytest are test
dependencies (pyproject), and each would also lengthen every start-up."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
TEST_ONLY = ("scipy", "mpmath", "sympy", "hypothesis", "pytest")


def test_cli_import_loads_no_test_dependency():
    probe = ("import json, sys; import heatsource.cli; "
             "print(json.dumps(sorted({name.partition('.')[0] "
             "for name in sys.modules})))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env=env, timeout=60, check=True)
    loaded = set(json.loads(proc.stdout))
    assert "numpy" in loaded
    assert loaded.isdisjoint(TEST_ONLY), sorted(loaded & set(TEST_ONLY))
