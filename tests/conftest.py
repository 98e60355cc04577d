"""Shared fixtures: one launcher for the CLI subprocess tests, and the
settings every property test runs under."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import settings

import usiq

# Property tests draw the same bounded set of examples on every run, keep no
# example database, and set no per-example deadline, so a slow or busy host
# neither fails them nor changes what they check.
settings.register_profile("usiq", derandomize=True, database=None,
                          deadline=None, max_examples=25)
settings.load_profile("usiq")


@pytest.fixture(scope="session")
def run_cli():
    """Return ``run(*args, cwd)``, which runs ``python -m usiq.cli``.

    The child runs the same ``usiq`` package that this process imported,
    from a checkout or an installed copy alike: the directory holding that
    package is prepended to the child's ``PYTHONPATH``, so it resolves from
    any working directory. This process's own environment is not changed.
    """
    root = str(Path(usiq.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (root, env.get("PYTHONPATH")) if part)

    def run(*args, cwd):
        return subprocess.run([sys.executable, "-m", "usiq.cli", *args],
                              capture_output=True, text=True, cwd=cwd,
                              env=env)

    return run
