"""The frozen seed program as a differential oracle.

`perfbench/reference/latvoa` is a verbatim copy of the first version of the
program, with its own Bareiss elimination on dense rows and its own
Virasoro, Nichols and screening code.  On each line below the program must
print exactly what it printed: the same stdout, the same stderr and the
same exit code.  The `virasoro-check` lines hold the L_{-1} check, which
now runs on the closed-form Virasoro rows, to the seed's generic route.
The `nichols` lines and the C2 `kernel` line hold the closed-form screening
images to the seed's own screening code, on B2, B3 and C2.  The
`lattice-info` lines hold the module cosets, read off the long lattice's
Gram matrix, and the coordinate-wise coset reduction to the seed's rational
solves.  The `groundstates` lines hold the text of F to the seed's phase
scalars, and the fractional `screen-apply` lines hold the residue weights
to the seed's: the `exp[1/2*a1]` line a collapsed phase -1, the
`exp[1/3*a1]` line a complex one.
Both programs run in subprocesses; no bytecode is written, so the frozen
copy is only read.
"""

import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

KERNEL_LINES = [
    "kernel --algebra A1 --ell 4 --max-level 3",
    "kernel --algebra B2 --ell 4 --module blue --max-level 2",
    "kernel --algebra B2 --ell 4 --module green --max-level 2",
    "kernel --algebra B2 --ell 4 --module center --max-level 1",
    "kernel --algebra B2 --ell 4 --module steinberg --max-level 1",
    "kernel --algebra B3 --ell 4 --module blue --max-level 1",
    "kernel --algebra B3 --ell 4 --module green --max-level 1",
    "kernel --algebra C2 --ell 4 --module blue --max-level 2",
]

LINES = [
    "virasoro-check --algebra A1 --ell 4 --max-mode 3 --max-level 3",
    "virasoro-check --algebra B2 --ell 4 --max-mode 2 --max-level 1",
    "nichols --algebra B2 --ell 4 --max-level 2",
    "nichols --algebra B3 --ell 4 --max-level 1",
    "nichols --algebra C2 --ell 4 --max-level 2",
    "screen-apply --algebra B2 --ell 4 --momentum -a2 --state 'd phi[a1] * exp[a1+a2]'",
    "screen-apply --algebra A1 --ell 4 --momentum -a --state 'd^2 phi[a1] * exp[2*a1]'",
    "screen-apply --algebra A1 --ell 4 --momentum -a --state 'exp[1/2*a1]' --fractional --truncate 4",
    "screen-apply --algebra G2 --ell 6 --momentum -a2 --state 'd^2 phi[a1] * d phi[a2] * exp[a1]'",
    "screen-apply --algebra B2 --ell 4 --momentum 1/2*a1 --state 'd phi[a1] * exp[-a1]'",
    "screen-apply --algebra A1 --ell 6 --momentum -a --state 'd phi[a1] * d phi[a1] * exp[3*a1]'",
    "screen-apply --algebra B2 --ell 4 --momentum -a2 --state 'd phi[a2] * exp[1/2*a1]' --fractional --truncate 3",
    "screen-apply --algebra A1 --ell 6 --momentum -a --state 'exp[1/3*a1]' --fractional --truncate 4",
    "groundstates --algebra A1 --ell 4",
    "groundstates --algebra B2 --ell 4",
    "groundstates --algebra B3 --ell 4",
    "characters --algebra B2 --ell 4 --order 8 --check-jtp",
    "lattice-info --algebra A1 --ell 4",
    "lattice-info --algebra B2 --ell 4",
    "lattice-info --algebra B3 --ell 4",
    "lattice-info --algebra C2 --ell 4",
    "lattice-info --algebra D4 --ell 4",
    "lattice-info --algebra F4 --ell 4",
    "lattice-info --algebra G2 --ell 6",
    "lattice-info --algebra A2 --ell 6",
    "sf-characters --pairs 2 --order 8",
    "degeneracy --table",
    "degeneracy --algebra B3 --ell 4",
]


def run(path: Path, line: str) -> tuple[int, str, str]:
    env = dict(os.environ, PYTHONPATH=str(path), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, "-m", "latvoa.cli", *shlex.split(line)],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    return done.returncode, done.stdout, done.stderr


def assert_equals_frozen_seed(line):
    got = run(ROOT / "src", line)
    assert got[0] == 0
    assert got == run(ROOT / "perfbench" / "reference", line)


@pytest.mark.parametrize("line", KERNEL_LINES)
def test_kernel_equals_frozen_seed(line):
    assert_equals_frozen_seed(line)


@pytest.mark.parametrize("line", LINES)
def test_command_equals_frozen_seed(line):
    assert_equals_frozen_seed(line)
