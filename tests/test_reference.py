"""The frozen seed program as a differential oracle for `kernel`.

`perfbench/reference/latvoa` is a verbatim copy of the first version of the
program, with its own Bareiss elimination on dense rows.  The kernels
computed here by primitive-row elimination of the per-screening echelons
must print exactly what it printed.  Both programs run in subprocesses; no
bytecode is written, so the frozen copy is only read.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

LINES = [
    "kernel --algebra A1 --ell 4 --max-level 3",
    "kernel --algebra B2 --ell 4 --module blue --max-level 2",
    "kernel --algebra B2 --ell 4 --module green --max-level 2",
    "kernel --algebra B2 --ell 4 --module center --max-level 1",
    "kernel --algebra B2 --ell 4 --module steinberg --max-level 1",
    "kernel --algebra B3 --ell 4 --module blue --max-level 1",
    "kernel --algebra B3 --ell 4 --module green --max-level 1",
]


def run(path: Path, line: str) -> tuple[int, str]:
    env = dict(os.environ, PYTHONPATH=str(path), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, "-m", "latvoa.cli", *line.split()],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    return done.returncode, done.stdout


@pytest.mark.parametrize("line", LINES)
def test_kernel_equals_frozen_seed(line):
    code, out = run(ROOT / "src", line)
    assert code == 0
    assert (code, out) == run(ROOT / "perfbench" / "reference", line)
