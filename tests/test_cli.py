import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import latvoa
from latvoa import cli
from latvoa.cli import main
from latvoa.lattice import ScreeningLattices
from latvoa.rootdata import build_root_system
from latvoa.scalars import TierError


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


def test_lattice_info(capsys):
    code, doc = run_json(capsys, "lattice-info", "--algebra", "B2", "--ell", "4")
    assert code == 0 and doc["ok"]
    assert doc["schema"] == "latvoa/lattice-info/v1"
    assert doc["central_charge"] == "-4"
    assert doc["Q"] == "1/2*a1 + a2"
    assert doc["num_simples"] == 4
    assert doc["basis_long"] == ["a1", "2*a2"]
    assert doc["short_screening_set"] == ["-a1 - a2", "-a2"]


def test_lattice_info_rejects_bad_level(capsys):
    code, doc = run_json(capsys, "lattice-info", "--algebra", "B2", "--ell", "2")
    assert code == 2
    assert not doc["ok"] and doc["errors"]


def test_groundstates_table(capsys):
    code, doc = run_json(capsys, "groundstates", "--algebra", "Bn", "--n", "3", "--ell", "4")
    assert code == 0
    by_name = {m["module"]: m for m in doc["modules"]}
    assert by_name["center"]["count"] == 1
    assert by_name["center"]["conformal_dim"] == "-3/8"
    assert by_name["steinberg"]["count"] == 6
    assert by_name["blue"]["count"] == 4


def test_kernel_rows_compact_format(capsys):
    code, doc = run_json(
        capsys, "kernel", "--algebra", "B2", "--ell", "4", "--module", "blue",
        "--max-level", "1", "--format", "json",
    )
    assert code == 0
    assert doc["rows"] == [[2, 1, 1], [8, 4, 0]]
    assert doc["weyl_powers"] == [1, 1]


def test_kernel_all_modules(capsys):
    want = {
        "blue": [[2, 1, 1], [8, 4, 0]],
        "green": [[2, 1, 0], [8, 4, 4]],
        "center": [[1, 0, 0], [6, 0, 0]],
        "steinberg": [[4, 4, 4], [8, 8, 8]],
    }
    for module, rows in want.items():
        code, doc = run_json(
            capsys, "kernel", "--algebra", "B2", "--ell", "4", "--module", module,
            "--max-level", "1",
        )
        assert code == 0 and doc["rows"] == rows, module


def test_screen_apply(capsys):
    code, doc = run_json(
        capsys, "screen-apply", "--algebra", "A1", "--ell", "4",
        "--momentum", "-a/sqrtp", "--state", "d phi[a]",
    )
    assert code == 0
    assert doc["result"] == "exp[-a1]"


def test_screen_apply_fractional_banner(capsys):
    code, doc = run_json(
        capsys, "screen-apply", "--algebra", "A1", "--ell", "4",
        "--momentum", "-a/sqrtp", "--state", "exp[1/2*a1]",
    )
    assert code == 2
    assert "fractional" in doc["errors"][0]
    code, doc = run_json(
        capsys, "screen-apply", "--algebra", "A1", "--ell", "4",
        "--momentum", "-a/sqrtp", "--state", "exp[1/2*a1]",
        "--fractional", "--truncate", "4",
    )
    assert code == 0
    assert doc["banner"].startswith("APPROXIMATE")
    assert len(doc["approximate_result"]["terms"]) > 0


def test_screen_apply_parse_error(capsys):
    code, doc = run_json(
        capsys, "screen-apply", "--algebra", "A1", "--ell", "4",
        "--momentum", "-a/sqrtp", "--state", "d phi[zz]",
    )
    assert code == 2 and doc["errors"]
    for momentum, state in (("a9", "exp[a1]"), ("-a1", "d(")):
        code, doc = run_json(
            capsys, "screen-apply", "--algebra", "B2", "--ell", "4",
            "--momentum", momentum, "--state", state,
        )
        assert code == 2 and doc["errors"] and doc["ok"] is False
    for momentum, state in (("1/0*a", "exp[a]"), ("a", "1/0*exp[a1]"), ("a", "exp[1/0*a1]")):
        code, doc = run_json(
            capsys, "screen-apply", "--algebra", "A1", "--ell", "4",
            "--momentum", momentum, "--state", state,
        )
        assert code == 2 and doc["ok"] is False
        (error,) = doc["errors"]
        assert "zero denominator at position" in error


def test_fractional_pairing_error_names_momenta(capsys):
    code, doc = run_json(
        capsys, "screen-apply", "--algebra", "B2", "--ell", "4",
        "--momentum", "-a1 - a2", "--state", "exp[1/2*a1]",
    )
    assert code == 2 and doc["ok"] is False
    (error,) = doc["errors"]
    assert "momenta -a1 - a2 and 1/2*a1 is fractional" in error
    assert "Fraction(" not in error


# Exact stdout of two truncated fractional residues.  The coefficients are
# complex floats.  Each state has three terms of one momentum and degrees
# 0, 1 and 2, so an output term collects contributions from three exponent
# buckets of the mode engine, summed in floats in the order the engine
# first meets those exponents: these digits pin that order as well as the
# exact values behind them.
A1_CENTER_TAIL = {"8": 9.28775344840659e-07, "9": 9.28775344840659e-07, "10": 9.28775344840659e-07}
A1_CENTER_TERMS = [
    ("-1/2*a1", (), "-0.2122065907891938j"),
    ("-1/2*a1", ((1, 0),), "0.4244131815783876j"),
    ("-1/2*a1", ((1, 0), (1, 0)), "0.27586856802595194j"),
    ("-1/2*a1", ((1, 0), (1, 0), (1, 0)), "-0.008084060601493095j"),
    ("-1/2*a1", ((1, 0), (1, 0), (1, 0), (1, 0)), "-0.0031157316901587974j"),
    ("-1/2*a1", ((1, 0), (1, 0), (1, 0), (1, 0), (1, 0)), "0.0011176826210397655j"),
    ("-1/2*a1", ((1, 0), (1, 0), (1, 0), (1, 0), (1, 0), (1, 0)), "-0.00023564769697194212j"),
    ("-1/2*a1", ((1, 0), (1, 0), (1, 0), (1, 0), (1, 0), (1, 0), (1, 0)), "3.83945768660657e-05j"),
    ("-1/2*a1", ((1, 0), (1, 0), (1, 0), (1, 0), (1, 0), (1, 0), (1, 0), (1, 0)), "-8.420896459888643e-06j"),
    ("-1/2*a1", ((1, 0), (1, 0), (1, 0), (1, 0), (1, 0), (1, 0), (1, 0), (2, 0)), "-8.420896459888643e-06j"),
    ("-1/2*a1", ((1, 0), (1, 0), (1, 0), (1, 0), (1, 0), (1, 0), (2, 0)), "0.0002448537586029159j"),
    ("-1/2*a1", ((1, 0), (1, 0), (1, 0), (1, 0), (1, 0), (2, 0)), "-0.0008804842228549298j"),
    ("-1/2*a1", ((1, 0), (1, 0), (1, 0), (1, 0), (1, 0), (2, 0), (2, 0)), "0.0001768388256576615j"),
    ("-1/2*a1", ((1, 0), (1, 0), (1, 0), (1, 0), (1, 0), (3, 0)), "-0.0002947313760961025j"),
    ("-1/2*a1", ((1, 0), (1, 0), (1, 0), (1, 0), (2, 0)), "0.004070590683844773j"),
    ("-1/2*a1", ((1, 0), (1, 0), (1, 0), (1, 0), (2, 0), (2, 0)), "-0.0019044181224671236j"),
    ("-1/2*a1", ((1, 0), (1, 0), (1, 0), (1, 0), (2, 0), (3, 0)), "-0.0002947313760961025j"),
    ("-1/2*a1", ((1, 0), (1, 0), (1, 0), (1, 0), (3, 0)), "0.0003235861961334829j"),
    ("-1/2*a1", ((1, 0), (1, 0), (1, 0), (1, 0), (4, 0)), "0.0002947313760961025j"),
    ("-1/2*a1", ((1, 0), (1, 0), (1, 0), (2, 0)), "-0.01454518479435311j"),
    ("-1/2*a1", ((1, 0), (1, 0), (1, 0), (2, 0), (2, 0)), "0.004773411657612401j"),
    ("-1/2*a1", ((1, 0), (1, 0), (1, 0), (2, 0), (2, 0), (2, 0)), "-0.0008841941282883075j"),
    ("-1/2*a1", ((1, 0), (1, 0), (1, 0), (2, 0), (3, 0)), "0.003128686915481703j"),
    ("-1/2*a1", ((1, 0), (1, 0), (1, 0), (2, 0), (4, 0)), "0.0002947313760961025j"),
    ("-1/2*a1", ((1, 0), (1, 0), (1, 0), (3, 0)), "0.00010992312395192582j"),
    ("-1/2*a1", ((1, 0), (1, 0), (1, 0), (4, 0)), "1.6488468592789187e-05j"),
    ("-1/2*a1", ((1, 0), (1, 0), (1, 0), (5, 0)), "-0.0001768388256576615j"),
    ("-1/2*a1", ((1, 0), (1, 0), (2, 0)), "0.036883526494312244j"),
    ("-1/2*a1", ((1, 0), (1, 0), (2, 0), (2, 0)), "-0.01381939773933124j"),
    ("-1/2*a1", ((1, 0), (1, 0), (2, 0), (2, 0), (2, 0)), "0.003944866110824756j"),
    ("-1/2*a1", ((1, 0), (1, 0), (2, 0), (2, 0), (3, 0)), "0.001768388256576615j"),
    ("-1/2*a1", ((1, 0), (1, 0), (2, 0), (3, 0)), "-0.0026834982634764016j"),
    ("-1/2*a1", ((1, 0), (1, 0), (2, 0), (4, 0)), "-0.0019044181224671236j"),
    ("-1/2*a1", ((1, 0), (1, 0), (2, 0), (5, 0)), "-0.0001768388256576615j"),
    ("-1/2*a1", ((1, 0), (1, 0), (3, 0)), "-0.006507056355368496j"),
    ("-1/2*a1", ((1, 0), (1, 0), (3, 0), (3, 0)), "-0.000589462752192205j"),
    ("-1/2*a1", ((1, 0), (1, 0), (4, 0)), "-0.0012881616088116366j"),
    ("-1/2*a1", ((1, 0), (1, 0), (5, 0)), "-0.00021393787999143672j"),
    ("-1/2*a1", ((1, 0), (1, 0), (6, 0)), "5.89462752192205e-05j"),
    ("-1/2*a1", ((1, 0), (2, 0)), "-0.06063045451119823j"),
    ("-1/2*a1", ((1, 0), (2, 0), (2, 0)), "0.026870315067462847j"),
    ("-1/2*a1", ((1, 0), (2, 0), (2, 0), (2, 0)), "-0.005144402200950153j"),
    ("-1/2*a1", ((1, 0), (2, 0), (2, 0), (2, 0), (2, 0)), "0.0008841941282883075j"),
    ("-1/2*a1", ((1, 0), (2, 0), (2, 0), (3, 0)), "-0.004965090105003572j"),
    ("-1/2*a1", ((1, 0), (2, 0), (2, 0), (4, 0)), "-0.0008841941282883075j"),
    ("-1/2*a1", ((1, 0), (2, 0), (3, 0)), "0.0018137315452067858j"),
    ("-1/2*a1", ((1, 0), (2, 0), (3, 0), (3, 0)), "-0.000589462752192205j"),
    ("-1/2*a1", ((1, 0), (2, 0), (4, 0)), "0.0003215251375593845j"),
    ("-1/2*a1", ((1, 0), (2, 0), (5, 0)), "0.000584928423329188j"),
    ("-1/2*a1", ((1, 0), (2, 0), (6, 0)), "5.89462752192205e-05j"),
    ("-1/2*a1", ((1, 0), (3, 0)), "0.03300991412276348j"),
    ("-1/2*a1", ((1, 0), (3, 0), (3, 0)), "-0.0013932755960906664j"),
    ("-1/2*a1", ((1, 0), (3, 0), (4, 0)), "0.0002947313760961025j"),
    ("-1/2*a1", ((1, 0), (4, 0)), "0.006200841938645273j"),
    ("-1/2*a1", ((1, 0), (5, 0)), "0.0009975523498637314j"),
    ("-1/2*a1", ((1, 0), (6, 0)), "0.00013932755960906665j"),
    ("-1/2*a1", ((1, 0), (7, 0)), "-8.420896459888643e-06j"),
    ("-1/2*a1", ((2, 0),), "0.14854461355243564j"),
    ("-1/2*a1", ((2, 0), (2, 0)), "-0.027536331423835853j"),
    ("-1/2*a1", ((2, 0), (2, 0), (2, 0)), "0.0051423411423760544j"),
    ("-1/2*a1", ((2, 0), (2, 0), (2, 0), (2, 0)), "-0.001020223994178816j"),
    ("-1/2*a1", ((2, 0), (2, 0), (2, 0), (3, 0)), "-0.0008841941282883075j"),
    ("-1/2*a1", ((2, 0), (2, 0), (3, 0)), "0.001712739675075953j"),
    ("-1/2*a1", ((2, 0), (2, 0), (4, 0)), "0.001020223994178816j"),
    ("-1/2*a1", ((2, 0), (2, 0), (5, 0)), "0.0001768388256576615j"),
    ("-1/2*a1", ((2, 0), (3, 0)), "0.0031386977714130404j"),
    ("-1/2*a1", ((2, 0), (3, 0), (3, 0)), "0.000680149329452544j"),
    ("-1/2*a1", ((2, 0), (3, 0), (4, 0)), "0.0002947313760961025j"),
    ("-1/2*a1", ((2, 0), (4, 0)), "0.0007522863795459956j"),
    ("-1/2*a1", ((2, 0), (5, 0)), "0.0001397397713238863j"),
    ("-1/2*a1", ((2, 0), (6, 0)), "-6.801493294525442e-05j"),
    ("-1/2*a1", ((2, 0), (7, 0)), "-8.420896459888643e-06j"),
    ("-1/2*a1", ((3, 0),), "-0.07174603783825123j"),
    ("-1/2*a1", ((3, 0), (3, 0)), "0.0024664000936713473j"),
    ("-1/2*a1", ((3, 0), (4, 0)), "0.0010367124627716053j"),
    ("-1/2*a1", ((4, 0),), "-0.01204188193764076j"),
    ("-1/2*a1", ((5, 0),), "-0.0018296311399212597j"),
    ("-1/2*a1", ((6, 0),), "-0.00024664000936713474j"),
    ("-1/2*a1", ((7, 0),), "-2.9620356079188722e-05j"),
]

B2_STEINBERG_TAIL = {"8": 8.310095190679582e-07, "9": 8.310095190679582e-07, "10": 8.310095190679582e-07}
B2_STEINBERG_TERMS = [
    ("1/2*a1 - a2", (), "0.2122065907891938j"),
    ("1/2*a1 - a2", ((1, 1),), "-0.7639437268410977j"),
    ("1/2*a1 - a2", ((1, 1), (1, 1)), "0.08791415904123742j"),
    ("1/2*a1 - a2", ((1, 1), (1, 1), (1, 1)), "-0.0026946868671643663j"),
    ("1/2*a1 - a2", ((1, 1), (1, 1), (1, 1), (1, 1)), "-0.0026410993442378024j"),
    ("1/2*a1 - a2", ((1, 1), (1, 1), (1, 1), (1, 1), (1, 1)), "0.000931598475492576j"),
    ("1/2*a1 - a2", ((1, 1), (1, 1), (1, 1), (1, 1), (1, 1), (1, 1)), "-0.00020074710511720534j"),
    ("1/2*a1 - a2", ((1, 1), (1, 1), (1, 1), (1, 1), (1, 1), (1, 1), (1, 1)), "3.337875700842739e-05j"),
    ("1/2*a1 - a2", ((1, 1), (1, 1), (1, 1), (1, 1), (1, 1), (1, 1), (1, 1), (1, 1)), "-7.430202758725272e-06j"),
    ("1/2*a1 - a2", ((1, 1), (1, 1), (1, 1), (1, 1), (1, 1), (1, 1), (1, 1), (2, 1)), "-7.430202758725272e-06j"),
    ("1/2*a1 - a2", ((1, 1), (1, 1), (1, 1), (1, 1), (1, 1), (1, 1), (2, 1)), "0.0002149805331524512j"),
    ("1/2*a1 - a2", ((1, 1), (1, 1), (1, 1), (1, 1), (1, 1), (2, 1)), "-0.0007553658435331784j"),
    ("1/2*a1 - a2", ((1, 1), (1, 1), (1, 1), (1, 1), (1, 1), (2, 1), (2, 1)), "0.0001560342579332307j"),
    ("1/2*a1 - a2", ((1, 1), (1, 1), (1, 1), (1, 1), (1, 1), (3, 1)), "-0.0002600570965553845j"),
    ("1/2*a1 - a2", ((1, 1), (1, 1), (1, 1), (1, 1), (2, 1)), "0.0033821971200958334j"),
    ("1/2*a1 - a2", ((1, 1), (1, 1), (1, 1), (1, 1), (2, 1), (2, 1)), "-0.001664365417954461j"),
    ("1/2*a1 - a2", ((1, 1), (1, 1), (1, 1), (1, 1), (2, 1), (3, 1)), "-0.0002600570965553845j"),
    ("1/2*a1 - a2", ((1, 1), (1, 1), (1, 1), (1, 1), (3, 1)), "0.00028406236700665105j"),
    ("1/2*a1 - a2", ((1, 1), (1, 1), (1, 1), (1, 1), (4, 1)), "0.0002600570965553845j"),
    ("1/2*a1 - a2", ((1, 1), (1, 1), (1, 1), (2, 1)), "-0.011459485671988321j"),
    ("1/2*a1 - a2", ((1, 1), (1, 1), (1, 1), (2, 1), (2, 1)), "0.0040488889494469105j"),
    ("1/2*a1 - a2", ((1, 1), (1, 1), (1, 1), (2, 1), (2, 1), (2, 1)), "-0.0007801712896661536j"),
    ("1/2*a1 - a2", ((1, 1), (1, 1), (1, 1), (2, 1), (3, 1)), "0.002739268083716717j"),
    ("1/2*a1 - a2", ((1, 1), (1, 1), (1, 1), (2, 1), (4, 1)), "0.0002600570965553845j"),
    ("1/2*a1 - a2", ((1, 1), (1, 1), (1, 1), (3, 1)), "6.595387437115675e-05j"),
    ("1/2*a1 - a2", ((1, 1), (1, 1), (1, 1), (4, 1)), "1.0669009089451511e-05j"),
    ("1/2*a1 - a2", ((1, 1), (1, 1), (1, 1), (5, 1)), "-0.0001560342579332307j"),
    ("1/2*a1 - a2", ((1, 1), (1, 1), (2, 1)), "0.02595167181729318j"),
    ("1/2*a1 - a2", ((1, 1), (1, 1), (2, 1), (2, 1)), "-0.011259562990300755j"),
    ("1/2*a1 - a2", ((1, 1), (1, 1), (2, 1), (2, 1), (2, 1)), "0.003432753674531076j"),
    ("1/2*a1 - a2", ((1, 1), (1, 1), (2, 1), (2, 1), (3, 1)), "0.001560342579332307j"),
    ("1/2*a1 - a2", ((1, 1), (1, 1), (2, 1), (3, 1)), "-0.00224849366560194j"),
    ("1/2*a1 - a2", ((1, 1), (1, 1), (2, 1), (4, 1)), "-0.001664365417954461j"),
    ("1/2*a1 - a2", ((1, 1), (1, 1), (2, 1), (5, 1)), "-0.0001560342579332307j"),
    ("1/2*a1 - a2", ((1, 1), (1, 1), (3, 1)), "-0.005152646435246547j"),
    ("1/2*a1 - a2", ((1, 1), (1, 1), (3, 1), (3, 1)), "-0.000520114193110769j"),
    ("1/2*a1 - a2", ((1, 1), (1, 1), (4, 1)), "-0.0010696893999571834j"),
    ("1/2*a1 - a2", ((1, 1), (1, 1), (5, 1)), "-0.00018324023111133242j"),
    ("1/2*a1 - a2", ((1, 1), (1, 1), (6, 1)), "5.20114193110769e-05j"),
    ("1/2*a1 - a2", ((1, 1), (2, 1)), "-0.028294212105225834j"),
    ("1/2*a1 - a2", ((1, 1), (2, 1), (2, 1)), "0.020404479883576326j"),
    ("1/2*a1 - a2", ((1, 1), (2, 1), (2, 1), (2, 1)), "-0.004320948681227927j"),
    ("1/2*a1 - a2", ((1, 1), (2, 1), (2, 1), (2, 1), (2, 1)), "0.0007801712896661536j"),
    ("1/2*a1 - a2", ((1, 1), (2, 1), (2, 1), (3, 1)), "-0.004316947802819384j"),
    ("1/2*a1 - a2", ((1, 1), (2, 1), (2, 1), (4, 1)), "-0.0007801712896661536j"),
    ("1/2*a1 - a2", ((1, 1), (2, 1), (3, 1)), "0.001286100550237538j"),
    ("1/2*a1 - a2", ((1, 1), (2, 1), (3, 1), (3, 1)), "-0.000520114193110769j"),
    ("1/2*a1 - a2", ((1, 1), (2, 1), (4, 1)), "0.00024005270451266255j"),
    ("1/2*a1 - a2", ((1, 1), (2, 1), (5, 1)), "0.0005097119092485538j"),
    ("1/2*a1 - a2", ((1, 1), (2, 1), (6, 1)), "5.20114193110769e-05j"),
    ("1/2*a1 - a2", ((1, 1), (3, 1)), "0.024803367754581092j"),
    ("1/2*a1 - a2", ((1, 1), (3, 1), (3, 1)), "-0.001200263522563313j"),
    ("1/2*a1 - a2", ((1, 1), (3, 1), (4, 1)), "0.0002600570965553845j"),
    ("1/2*a1 - a2", ((1, 1), (4, 1)), "0.004987761749318658j"),
    ("1/2*a1 - a2", ((1, 1), (5, 1)), "0.0008359653576544j"),
    ("1/2*a1 - a2", ((1, 1), (6, 1)), "0.00012002635225633133j"),
    ("1/2*a1 - a2", ((1, 1), (7, 1)), "-7.430202758725272e-06j"),
    ("1/2*a1 - a2", ((2, 1),), "-0.0030315227255599056j"),
    ("1/2*a1 - a2", ((2, 1), (2, 1)), "-0.01802837378457977j"),
    ("1/2*a1 - a2", ((2, 1), (2, 1), (2, 1)), "0.004124178206771337j"),
    ("1/2*a1 - a2", ((2, 1), (2, 1), (2, 1), (2, 1)), "-0.0008841941282883075j"),
    ("1/2*a1 - a2", ((2, 1), (2, 1), (2, 1), (3, 1)), "-0.0007801712896661536j"),
    ("1/2*a1 - a2", ((2, 1), (2, 1), (3, 1)), "0.0013963065645819874j"),
    ("1/2*a1 - a2", ((2, 1), (2, 1), (4, 1)), "0.0008841941282883075j"),
    ("1/2*a1 - a2", ((2, 1), (2, 1), (5, 1)), "0.0001560342579332307j"),
    ("1/2*a1 - a2", ((2, 1), (3, 1)), "0.0030091455181839822j"),
    ("1/2*a1 - a2", ((2, 1), (3, 1), (3, 1)), "0.000589462752192205j"),
    ("1/2*a1 - a2", ((2, 1), (3, 1), (4, 1)), "0.0002600570965553845j"),
    ("1/2*a1 - a2", ((2, 1), (4, 1)), "0.0006986988566194316j"),
    ("1/2*a1 - a2", ((2, 1), (5, 1)), "0.00012882828475512898j"),
    ("1/2*a1 - a2", ((2, 1), (6, 1)), "-5.89462752192205e-05j"),
    ("1/2*a1 - a2", ((2, 1), (7, 1)), "-7.430202758725272e-06j"),
    ("1/2*a1 - a2", ((3, 1),), "-0.04816752775056304j"),
    ("1/2*a1 - a2", ((3, 1), (3, 1)), "0.0020734249255432106j"),
    ("1/2*a1 - a2", ((3, 1), (4, 1)), "0.000894863137377759j"),
    ("1/2*a1 - a2", ((4, 1),), "-0.009148155699606298j"),
    ("1/2*a1 - a2", ((5, 1),), "-0.0014798400562028085j"),
    ("1/2*a1 - a2", ((6, 1),), "-0.00020734249255432107j"),
    ("1/2*a1 - a2", ((7, 1),), "-2.5567518210793115e-05j"),
]


def _fractional_stdout(algebra, momentum, state, tail, terms):
    doc = {
        "schema": "latvoa/screen-apply/v1",
        "golden_key": f"screen-apply_{algebra}_l4",
        "algebra": algebra,
        "ell": 4,
        "momentum": momentum,
        "state": state,
        "checks": [],
        "banner": "APPROXIMATE: fractional residue truncated; coefficients are complex floats",
        "approximate_result": {
            "truncation": 8,
            "tail_scale": tail,
            "terms": [
                {"momentum": m, "monomial": [list(f) for f in mono], "coeff": c}
                for m, mono, c in terms
            ],
        },
        "ok": True,
    }
    return json.dumps(doc, indent=2) + "\n"


@pytest.mark.parametrize(
    "algebra, momentum, state, tail, terms",
    [
        (
            "A1",
            "-a1",
            "exp[1/2*a1] + d phi[a1] * exp[1/2*a1] + d^2 phi[a1] * exp[1/2*a1]",
            A1_CENTER_TAIL,
            A1_CENTER_TERMS,
        ),
        (
            "B2",
            "-a2",
            "exp[1/2*a1] + d phi[a2] * exp[1/2*a1] + d^2 phi[a2] * exp[1/2*a1]",
            B2_STEINBERG_TAIL,
            B2_STEINBERG_TERMS,
        ),
    ],
    ids=["A1-center", "B2-steinberg"],
)
def test_fractional_screen_apply_stdout_is_pinned(capsys, algebra, momentum, state, tail, terms):
    code, out = run_cli(
        capsys, "screen-apply", "--algebra", algebra, "--ell", "4",
        "--momentum", momentum, "--state", state, "--fractional", "--truncate", "8",
    )
    assert code == 0
    assert out == _fractional_stdout(algebra, momentum, state, tail, terms)


@pytest.mark.parametrize(
    "exc",
    [
        AssertionError("broken invariant"),
        IndexError("list index out of range"),
        TierError("tier"),
        TypeError("unsupported operand"),
        ZeroDivisionError("division by zero"),
        RecursionError("maximum recursion depth exceeded"),
        MemoryError("out of memory"),
        RuntimeError("runtime fault"),
        AttributeError("no such attribute"),
    ],
    ids=lambda exc: type(exc).__name__,
)
def test_internal_error_exits_3(capsys, monkeypatch, exc):
    def broken(_args):
        raise exc

    monkeypatch.setattr(cli, "cmd_kernel", broken)
    code, doc = run_json(capsys, "kernel", "--algebra", "B2", "--ell", "4")
    assert code == 3
    assert doc == {"ok": False, "errors": [f"internal error: {type(exc).__name__}: {exc}"]}


def test_characters_jtp(capsys):
    code, doc = run_json(
        capsys, "characters", "--algebra", "A1", "--ell", "4", "--order", "20",
        "--check-jtp",
    )
    assert code == 0
    assert doc["checks"][0]["ok"]
    blue = doc["graded_dimensions"]["blue"]
    assert blue["offset"] == "1/12"


def test_sf_characters(capsys):
    code, doc = run_json(capsys, "sf-characters", "--pairs", "2", "--order", "8")
    assert code == 0
    chars = doc["characters"]
    assert chars["ns+"]["coeffs"][:3] == [1, 4, 10]
    assert chars["r+"]["step"] == "1/2"
    assert all(c["ok"] for c in doc["checks"])


def test_degeneracy_single(capsys):
    code, doc = run_json(capsys, "degeneracy", "--algebra", "Bn", "--n", "3", "--ell", "4")
    assert code == 0
    assert doc["g0"] == "A1^3" and doc["gl"] == "C3"
    assert doc["dim_X"] == 4 and doc["central_charge"] == "-6"
    assert all(c["ok"] for c in doc["checks"])


def test_degeneracy_exotic(capsys):
    code, doc = run_json(capsys, "degeneracy", "--algebra", "G2", "--ell", "4")
    assert code == 1
    assert "exotic" in doc["errors"][0]


def test_degeneracy_table(capsys):
    code, doc = run_json(capsys, "degeneracy", "--table")
    assert code == 0
    kinds = {r["kind"] for r in doc["classification"]}
    assert "degenerate" in kinds and "exotic" in kinds
    ext = {(r["g"], r["ell"]): r for r in doc["extension"]}
    assert ext[("B3", 4)]["dim_X"] == 4
    assert ext[("F4", 4)]["central_charge"] == "-80"
    assert ext[("G2", 6)]["g0_num_simples"] == 27
    assert all(c["ok"] for c in doc["checks"])


def test_virasoro_check_small(capsys):
    code, doc = run_json(
        capsys, "virasoro-check", "--algebra", "A1", "--ell", "4",
        "--max-mode", "2", "--max-level", "3",
    )
    assert code == 0
    assert all(c["ok"] for c in doc["checks"])


@pytest.mark.parametrize("algebra, ell, modules", [("G2", "6", 3), ("A2", "4", 12)])
def test_virasoro_check_without_four_modules(capsys, algebra, ell, modules):
    # the check runs on the vacuum module, which every theory has
    sl = ScreeningLattices(build_root_system(algebra[0], int(algebra[1])), int(ell))
    assert sl.module_cosets().order == modules
    code, doc = run_json(
        capsys, "virasoro-check", "--algebra", algebra, "--ell", ell,
        "--max-mode", "2", "--max-level", "1",
    )
    assert code == 0 and doc["ok"]
    assert doc["states_checked"] > 0
    assert all(c["ok"] for c in doc["checks"])


def test_nichols_command(capsys):
    code, doc = run_json(
        capsys, "nichols", "--algebra", "B2", "--ell", "4", "--max-level", "2"
    )
    assert code == 0
    assert all(c["ok"] for c in doc["checks"])


def test_tsv_and_md_formats(capsys):
    code, out = run_cli(
        capsys, "kernel", "--algebra", "B2", "--ell", "4", "--module", "blue",
        "--max-level", "1", "--format", "tsv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split("\t") == ["h", "dim", "ker", "intersection"]
    code, out = run_cli(
        capsys, "groundstates", "--algebra", "A1", "--ell", "4", "--format", "md"
    )
    assert code == 0
    assert out.startswith("| module |")


def test_golden_dir_cycle(tmp_path, capsys):
    args = [
        "kernel", "--algebra", "B2", "--ell", "4", "--module", "blue",
        "--max-level", "1", "--golden-dir", str(tmp_path),
    ]
    code, doc = run_json(capsys, *args)
    assert code == 0
    assert any("golden recorded" in c["name"] for c in doc["checks"])
    code, doc = run_json(capsys, *args)
    assert code == 0
    assert any("golden match" in c["name"] and c["ok"] for c in doc["checks"])
    # a corrupted golden file must fail the run
    golden_file = next(tmp_path.glob("*.json"))
    data = json.loads(golden_file.read_text())
    data["rows"] = [[0, 0, 0]]
    golden_file.write_text(json.dumps(data))
    code, doc = run_json(capsys, *args)
    assert code == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("characters", "--algebra", "A1", "--ell", "4", "--order", "-3"),
        ("kernel", "--algebra", "B2", "--ell", "4", "--max-level", "-1"),
        ("virasoro-check", "--algebra", "A1", "--ell", "4", "--max-mode", "-1"),
        (
            "screen-apply", "--algebra", "A1", "--ell", "4", "--momentum", "-a/sqrtp",
            "--state", "exp[1/2*a1]", "--fractional", "--truncate", "-1",
        ),
        ("sf-characters", "--pairs", "-1"),
    ],
    ids=["order", "max-level", "max-mode", "truncate", "pairs"],
)
def test_negative_count_rejected(capsys, argv):
    code, doc = run_json(capsys, *argv)
    assert code == 2
    assert doc["ok"] is False
    assert "must be >= 0" in doc["errors"][0]


def test_missing_rank_rejected(capsys):
    code, doc = run_json(capsys, "kernel", "--algebra", "Bn", "--ell", "4")
    assert code == 2
    assert doc["ok"] is False
    assert "needs --n RANK" in doc["errors"][0]


def test_rank_label_accepts_matching_n(capsys):
    plain = run_cli(capsys, "groundstates", "--algebra", "B2", "--ell", "4")
    assert plain[0] == 0
    assert run_cli(capsys, "groundstates", "--algebra", "B2", "--n", "2", "--ell", "4") == plain
    assert run_cli(capsys, "groundstates", "--algebra", "Bn", "--n", "2", "--ell", "4") == plain


def test_unknown_flag_rejected(capsys):
    code, doc = run_json(capsys, "kernel", "--algebra", "B2", "--ell", "4", "--bogus")
    assert code == 2
    assert doc["ok"] is False
    assert "--bogus" in doc["errors"][0]


@pytest.mark.parametrize(
    "argv, names",
    [
        (("degeneracy",), "--algebra"),
        (("degeneracy", "--algebra", "B2"), "--ell"),
        (("kernel", "--algebra", "", "--ell", "4"), "--n"),
        (("lattice-info", "--algebra", "", "--n", "2", "--ell", "4"), "series"),
        (("kernel", "--algebra", "B2"), "--ell"),
        (("kernel", "--algebra", "B2", "--ell", "four"), "--ell"),
        (("kernel", "--algebra", "B2", "--ell", "4", "--module", "red"), "--module"),
        (("kernel", "--algebra", "B2", "--ell", "4", "--format", "xml"), "--format"),
        (("krenel", "--algebra", "B2", "--ell", "4"), "krenel"),
        ((), "command"),
        (("groundstates", "--algebra", "Bxyz", "--n", "2", "--ell", "4"), "'Bxyz'"),
        (("groundstates", "--algebra", "B2", "--n", "7", "--ell", "4"), "--n 7"),
        (("degeneracy", "--table", "--algebra", "B2"), "--algebra"),
        (("degeneracy", "--table", "--n", "3", "--ell", "4"), "--n --ell"),
    ],
    ids=[
        "degeneracy-alone", "degeneracy-no-ell", "empty-label", "empty-label-rank",
        "missing-ell", "bad-int", "bad-choice", "bad-format", "unknown-command", "empty",
        "label-not-rank-or-n", "label-rank-disagrees-with-n", "table-with-algebra",
        "table-with-n-and-ell",
    ],
)
def test_bad_command_line_is_json_error(capsys, argv, names):
    code, doc = run_json(capsys, *argv)
    assert code == 2
    assert doc["ok"] is False
    (error,) = doc["errors"]
    assert names in error


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["kernel", "--help"])
    assert exc.value.code == 0
    assert "--max-level" in capsys.readouterr().out


def test_repeated_command_same_stdout(capsys):
    a = ("kernel", "--algebra", "B2", "--ell", "4")
    b = ("kernel", "--algebra", "A1", "--ell", "4", "--module", "green", "--max-level", "0",
         "--format", "tsv")
    first = run_cli(capsys, *a)
    run_cli(capsys, *b)
    assert run_cli(capsys, *a) == first
    assert first[0] == 0 and json.loads(first[1])["module"] == "blue"


def test_one_parser_per_process(capsys, monkeypatch):
    cli._parser.cache_clear()
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self.prog)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for _ in range(10):
        assert main(["sf-characters", "--pairs", "1", "--order", "2"]) == 0
    capsys.readouterr()
    assert built.count("latvoa") == 1
    assert cli._parser() is cli._parser()


# Option string -> (default, required, choices) of every command, recorded
# from the parser as it was before the command table: no option may be
# added or lost, and none may change its default, requiredness or choices.
CLI_SURFACE = {
    "lattice-info": {
        "--algebra": (None, True, None),
        "--ell": (None, True, None),
        "--format": ("json", False, ("json", "tsv", "md")),
        "--golden-dir": (None, False, None),
        "--n": (None, False, None),
    },
    "groundstates": {
        "--algebra": (None, True, None),
        "--ell": (None, True, None),
        "--format": ("json", False, ("json", "tsv", "md")),
        "--golden-dir": (None, False, None),
        "--n": (None, False, None),
    },
    "kernel": {
        "--algebra": (None, True, None),
        "--ell": (None, True, None),
        "--format": ("json", False, ("json", "tsv", "md")),
        "--golden-dir": (None, False, None),
        "--max-level": (1, False, None),
        "--module": ("blue", False, ("blue", "center", "green", "steinberg")),
        "--n": (None, False, None),
    },
    "screen-apply": {
        "--algebra": (None, True, None),
        "--ell": (None, True, None),
        "--format": ("json", False, ("json", "tsv", "md")),
        "--fractional": (False, False, None),
        "--golden-dir": (None, False, None),
        "--momentum": (None, True, None),
        "--n": (None, False, None),
        "--state": (None, True, None),
        "--truncate": (8, False, None),
    },
    "characters": {
        "--algebra": (None, True, None),
        "--check-jtp": (False, False, None),
        "--ell": (None, True, None),
        "--format": ("json", False, ("json", "tsv", "md")),
        "--golden-dir": (None, False, None),
        "--n": (None, False, None),
        "--order": (12, False, None),
    },
    "sf-characters": {
        "--format": ("json", False, ("json", "tsv", "md")),
        "--golden-dir": (None, False, None),
        "--order": (12, False, None),
        "--pairs": (None, True, None),
    },
    "degeneracy": {
        "--algebra": (None, False, None),
        "--ell": (None, False, None),
        "--format": ("json", False, ("json", "tsv", "md")),
        "--golden-dir": (None, False, None),
        "--n": (None, False, None),
        "--table": (False, False, None),
    },
    "virasoro-check": {
        "--algebra": (None, True, None),
        "--ell": (None, True, None),
        "--format": ("json", False, ("json", "tsv", "md")),
        "--golden-dir": (None, False, None),
        "--max-level": (5, False, None),
        "--max-mode": (3, False, None),
        "--n": (None, False, None),
    },
    "nichols": {
        "--algebra": (None, True, None),
        "--ell": (None, True, None),
        "--format": ("json", False, ("json", "tsv", "md")),
        "--golden-dir": (None, False, None),
        "--max-level": (2, False, None),
        "--n": (None, False, None),
    },
}


def test_cli_surface():
    (sub,) = [a for a in cli._parser()._actions if isinstance(a, argparse._SubParsersAction)]
    surface = {
        name: {
            flag: (a.default, a.required, tuple(a.choices) if a.choices else None)
            for a in parser._actions
            for flag in a.option_strings
            if flag.startswith("--") and flag != "--help"
        }
        for name, parser in sub.choices.items()
    }
    assert surface == CLI_SURFACE
    assert sum(len(options) for options in surface.values()) == 56


@pytest.mark.parametrize(
    "argv",
    [
        ["kernel", "--algebra", "B2", "--ell", "4", "--max-level", "3"],
        ["virasoro-check", "--algebra", "A1", "--ell", "4", "--max-mode", "2", "--max-level", "1"],
    ],
)
def test_closed_stdout_exits_3_silently(argv):
    # the read end is closed before the child writes a byte
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=str(Path(latvoa.__file__).parents[1]))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "latvoa.cli", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (3, b"")
