import os
import subprocess
import sys
from pathlib import Path

import pytest

from offgridopt.config import build_config, build_context

# the documented default seed for reproducing the bundled-dataset results
RUN_SEED = 42
SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(scope="session")
def default_config():
    return build_config({})


@pytest.fixture(scope="session")
def annual_ctx(default_config):
    """Default system (LI + 16 kW DE) on the bundled dataset, seed 42."""
    return build_context(default_config, seed=RUN_SEED)


@pytest.fixture
def run_python():
    """Run a Python program in a fresh interpreter that imports this
    package's sources, and return its standard output; a failing program
    fails the test with its standard error."""
    def run(code: str) -> str:
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=300,
                              env={**os.environ, "PYTHONPATH": path})
        assert done.returncode == 0, done.stderr
        return done.stdout
    return run
