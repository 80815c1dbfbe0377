import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import settings

# property tests draw the same examples on every run, so tier-1 stays
# deterministic and its wall time bounded
settings.register_profile("aknslab", derandomize=True, deadline=None,
                          max_examples=100, database=None)
settings.load_profile("aknslab")

import aknslab
from aknslab.spectral import Grid
from aknslab.profiles import gaussian


@pytest.fixture(scope="session")
def grid():
    return Grid(64.0, 256)


@pytest.fixture(scope="session")
def small_gaussian(grid):
    return gaussian(grid, 0.1)


@pytest.fixture()
def rng():
    return np.random.default_rng(20260809)


l2 = Grid.l2_norm  # l2(grid, values), the grid L2 norm


def rel_l2(grid, values, reference):
    return l2(grid, values - reference) / max(l2(grid, reference), 1e-300)


def run_fresh(*parts: str) -> str:
    """Standard output of a script, its indented ``parts`` run in order, in a
    fresh interpreter that imports this checkout's package."""
    script = "\n".join(textwrap.dedent(part) for part in parts)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(aknslab.__file__)))
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


linux_only = pytest.mark.skipif(not sys.platform.startswith("linux"),
                                reason="minor fault counts are read from Linux getrusage")


def faults_per_call(setup: str, call: str, calls: int) -> float:
    """Minor page faults per ``call`` over ``calls`` calls, in a fresh
    interpreter after ``setup``: the allocator's state depends on the
    process's history, so the count is taken where nothing else ran."""
    count = f"""
        import resource
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range({calls}):
            {call}
        print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    """
    return int(run_fresh(setup, count)) / calls
