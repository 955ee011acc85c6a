"""Regression: every recorded golden table must be reproduced bit for bit."""

import json
import shlex
from pathlib import Path

import pytest

from latvoa.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"

COMMANDS = {
    "lattice-info_A1_l4": "lattice-info --algebra A1 --ell 4",
    "lattice-info_B2_l4": "lattice-info --algebra B2 --ell 4",
    "lattice-info_B3_l4": "lattice-info --algebra B3 --ell 4",
    "groundstates_A1_l4": "groundstates --algebra A1 --ell 4",
    "groundstates_B2_l4": "groundstates --algebra B2 --ell 4",
    "groundstates_B3_l4": "groundstates --algebra B3 --ell 4",
    "kernel_B2_l4_blue_lvl1": "kernel --algebra B2 --ell 4 --module blue --max-level 1",
    "kernel_B2_l4_green_lvl1": "kernel --algebra B2 --ell 4 --module green --max-level 1",
    "kernel_B2_l4_center_lvl1": "kernel --algebra B2 --ell 4 --module center --max-level 1",
    "kernel_B2_l4_steinberg_lvl1": "kernel --algebra B2 --ell 4 --module steinberg --max-level 1",
    "kernel_A1_l4_blue_lvl3": "kernel --algebra A1 --ell 4 --module blue --max-level 3",
    "kernel_B2_l4_blue_lvl3": "kernel --algebra B2 --ell 4 --module blue --max-level 3",
    "kernel_B2_l4_green_lvl3": "kernel --algebra B2 --ell 4 --module green --max-level 3",
    "kernel_B3_l4_blue_lvl2": "kernel --algebra B3 --ell 4 --module blue --max-level 2",
    "kernel_B3_l4_green_lvl2": "kernel --algebra B3 --ell 4 --module green --max-level 2",
    "characters_B2_l4_o8": "characters --algebra B2 --ell 4 --order 8",
    "characters_A1_l4_o12": "characters --algebra A1 --ell 4 --order 12",
    "sf-characters_n2_o10": "sf-characters --pairs 2 --order 10",
    "sf-characters_n1_o12": "sf-characters --pairs 1 --order 12",
    "degeneracy_B2_l4": "degeneracy --algebra B2 --ell 4",
    "degeneracy_B3_l4": "degeneracy --algebra B3 --ell 4",
    "degeneracy_B4_l4": "degeneracy --algebra B4 --ell 4",
    "degeneracy_C2_l4": "degeneracy --algebra C2 --ell 4",
    "degeneracy_C3_l4": "degeneracy --algebra C3 --ell 4",
    "degeneracy_F4_l4": "degeneracy --algebra F4 --ell 4",
    "degeneracy_G2_l6": "degeneracy --algebra G2 --ell 6",
    "degeneracy-table": "degeneracy --table",
}


def test_every_golden_file_has_a_command():
    recorded = {p.stem for p in GOLDEN_DIR.glob("*.json")}
    assert recorded == set(COMMANDS)


@pytest.mark.parametrize("key", sorted(COMMANDS))
def test_golden(key, capsys):
    argv = shlex.split(COMMANDS[key]) + ["--golden-dir", str(GOLDEN_DIR)]
    code = main(argv)
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    matches = [c for c in doc["checks"] if c["name"].startswith("golden match")]
    assert matches and all(c["ok"] for c in matches)
