import json

import pytest

from latvoa import cli
from latvoa.cli import main
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


def test_fractional_pairing_error_names_momenta(capsys):
    code, doc = run_json(
        capsys, "screen-apply", "--algebra", "B2", "--ell", "4",
        "--momentum", "-a1 - a2", "--state", "exp[1/2*a1]",
    )
    assert code == 2 and doc["ok"] is False
    (error,) = doc["errors"]
    assert "momenta -a1 - a2 and 1/2*a1 is fractional" in error
    assert "Fraction(" not in error


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


def test_unknown_flag_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["kernel", "--algebra", "B2", "--ell", "4", "--bogus"])
