"""Command-line front end: lattice reports, groundstates, kernels,
screening application, characters, degeneracy tables, Virasoro checks.

Every command emits a JSON document (or a TSV/Markdown projection of its
main table) and exits 0 exactly when all requested checks pass.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from json.encoder import encode_basestring_ascii
from math import inf
from pathlib import Path

from .characters import graded_dim_module, matches_ns_character, sf_characters
from .degeneracy import (
    classification_table,
    classify,
    divided_power_orders,
    extension_report,
    extension_table,
)
from .expr import format_momentum, format_state, parse_momentum, parse_state
from .freefield import FieldElement
from .lattice import ScreeningLattices, groundstates, num_simples, quadratic_form_F
from .rootdata import build_root_system, parse_label
from .screening import (
    apply_screening,
    braiding_matrix,
    kernel_report,
    long_screening_suite,
    module_layers,
    nichols_check,
    short_screening_set,
)
from .vertexop import residue_op
from .virasoro import commutator_check, stress_tensor, virasoro_mode

SCHEMA_PREFIX = "latvoa"
MODULE_NAMES = ("blue", "center", "green", "steinberg")
EXTENSION_HEADERS = ["g", "ell", "#simples", "dim X", "g0", "g0 #simples", "c", "symmetry"]


def _root_system(args):
    """The root system named by --algebra and --n: a series letter and a
    rank (B2), with --n absent or equal to that rank, or a series letter
    and n (Bn) with --n RANK.  Any other label is bad input."""
    label = args.algebra
    if len(label) == 2 and label[0].isalpha() and label[1] == "n":
        if args.n is None:
            raise ValueError(f"--algebra {label} needs --n RANK")
        return build_root_system(label[0], args.n)
    if label[:1].isalpha() and label[1:].isdecimal():
        series, rank = parse_label(label)
        if args.n is not None and args.n != rank:
            raise ValueError(f"--algebra {label} has rank {rank}, but --n {args.n} was given")
        return build_root_system(series, rank)
    raise ValueError(
        f"bad root system label {label!r}: expected a series letter and a rank (e.g. B2), "
        "or a series letter and n with --n RANK (e.g. Bn --n 2)"
    )


def _mom_str(m) -> str:
    return format_momentum(m.coords)


def _report(command: str, rs=None, ell=None, key: str = "", **fields) -> dict:
    """The report envelope: schema, golden key, and the algebra and level
    when the command has them, followed by the command's own fields.  The
    golden key is the command name, then `_<algebra>_l<ell>` if any, then
    `key`."""
    schema = f"{SCHEMA_PREFIX}/{command}/v1"
    if rs is None:
        return {"schema": schema, "golden_key": command + key, **fields}
    golden_key = f"{command}_{rs.label}_l{ell}{key}"
    return {"schema": schema, "golden_key": golden_key, "algebra": rs.label, "ell": ell, **fields}


def _json(x, indent: str = "") -> str:
    """x as `json.dumps(x, indent=2)` writes it, `indent` being the
    indentation of the line that x starts on: strings ASCII-escaped, floats
    as their repr or NaN, Infinity and -Infinity.  Each container's text is
    one join over its items; a list's int items, most of the items of a
    report (the factors of its monomials), are written in place.  Takes
    dicts with str keys, lists, tuples, str, int, float, bool and None;
    anything else raises TypeError."""
    if isinstance(x, str):
        return encode_basestring_ascii(x)
    if isinstance(x, (list, tuple)):
        if not x:
            return "[]"
        inner = indent + "  "
        items = [int.__repr__(y) if type(y) is int else _json(y, inner) for y in x]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "]"
    if isinstance(x, dict):
        if not x:
            return "{}"
        inner = indent + "  "
        items = []
        for k, y in x.items():
            if not isinstance(k, str):
                raise TypeError(f"keys must be str, not {type(k).__name__}")
            items.append(encode_basestring_ascii(k) + ": " + _json(y, inner))
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "}"
    if x is None:
        return "null"
    if x is True:
        return "true"
    if x is False:
        return "false"
    if isinstance(x, int):
        return int.__repr__(x)
    if isinstance(x, float):
        if x != x:
            return "NaN"
        if x == inf:
            return "Infinity"
        if x == -inf:
            return "-Infinity"
        return float.__repr__(x)
    raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")


def _emit(report: dict, args) -> int:
    golden_note = _golden_compare(report, args)
    if golden_note:
        report.setdefault("checks", []).append(golden_note)
    ok = all(c.get("ok", True) for c in report.get("checks", []))
    report["ok"] = ok and not report.get("errors")
    table = report.get("table")
    if args.format == "json" or not table:
        print(_json(report))
    elif args.format == "tsv":
        print("\t".join(table["headers"]))
        for row in table["rows"]:
            print("\t".join(str(x) for x in row))
    else:
        print("| " + " | ".join(table["headers"]) + " |")
        print("|" + "---|" * len(table["headers"]))
        for row in table["rows"]:
            print("| " + " | ".join(str(x) for x in row) + " |")
    return 0 if report["ok"] else 1


def _golden_compare(report: dict, args) -> dict | None:
    """The check of the report against its golden file in --golden-dir:
    the command's JSON document without `checks` and `ok`.  A missing
    golden fails; nothing is ever written."""
    if not args.golden_dir:
        return None
    path = Path(args.golden_dir) / (report["golden_key"] + ".json")
    if not path.exists():
        return {"name": f"golden missing {path.name}", "ok": False}
    payload = {k: v for k, v in report.items() if k not in ("checks", "ok")}
    return {"name": f"golden match {path.name}", "ok": json.loads(path.read_text()) == payload}


def _check(name: str, ok: bool, detail: str = "") -> dict:
    out = {"name": name, "ok": bool(ok)}
    if detail:
        out["detail"] = detail
    return out


# --- commands ---------------------------------------------------------------


def cmd_lattice_info(args) -> int:
    rs = _root_system(args)
    sl = ScreeningLattices(rs, args.ell)
    qg = sl.module_cosets()
    n_simples = num_simples(rs, args.ell)
    checks = [
        _check("h(short momenta) = 1", all(sl.conformal_dim(a) == 1 for a in sl.basis_short)),
        _check("h(long momenta) = 1", all(sl.conformal_dim(a) == 1 for a in sl.basis_long)),
        _check("num_simples = quotient order", n_simples == qg.order, f"{n_simples} vs {qg.order}"),
    ]
    report = _report(
        "lattice-info", rs, args.ell,
        p=sl.p,
        gram=[[int(x) for x in row] for row in rs.gram],
        positive_roots=[list(r) for r in rs.positive_roots],
        rho=[str(x) for x in rs.rho],
        rho_dual=[str(x) for x in rs.rho_dual],
        Q=_mom_str(sl.Q),
        central_charge=str(sl.central_charge),
        basis_short=[_mom_str(b) for b in sl.basis_short],
        basis_long=[_mom_str(b) for b in sl.basis_long],
        basis_dual=[_mom_str(b) for b in sl.basis_dual],
        short_screening_set=[_mom_str(b) for b in short_screening_set(sl)],
        braiding_exponents=[[str(x) for x in row] for row in braiding_matrix(sl)],
        num_simples=n_simples,
        quotient_invariant_factors=qg.invariant_factors,
        checks=checks,
    )
    report["table"] = {
        "headers": ["quantity", "value"],
        "rows": [
            ["algebra", rs.label],
            ["ell", args.ell],
            ["Q", report["Q"]],
            ["central charge", report["central_charge"]],
            ["num simples", report["num_simples"]],
            ["invariant factors", report["quotient_invariant_factors"]],
        ],
    }
    return _emit(report, args)


def cmd_groundstates(args) -> int:
    rs = _root_system(args)
    sl = ScreeningLattices(rs, args.ell)
    rows = []
    modules = []
    for name, coset in sl.named_cosets().items():
        gs, h = groundstates(sl, coset)
        f_exp = quadratic_form_F(sl, coset)
        modules.append(
            {
                "module": name,
                "representative": _mom_str(coset.rep),
                "count": len(gs),
                "conformal_dim": str(h),
                "groundstates": [_mom_str(g) for g in gs],
                "F_exponent": str(f_exp),
                "F": {0: "1", 1: "-1"}.get(f_exp, f"e^(i pi {f_exp})"),
            }
        )
        rows.append([name, len(gs), str(h), "; ".join(_mom_str(g) for g in gs)])
    report = _report(
        "groundstates", rs, args.ell,
        modules=modules,
        table={"headers": ["module", "count", "h", "groundstates"], "rows": rows},
        checks=[],
    )
    return _emit(report, args)


def cmd_kernel(args) -> int:
    rs = _root_system(args)
    sl = ScreeningLattices(rs, args.ell)
    coset = sl.named_cosets()[args.module]
    screens = short_screening_set(sl)
    rep = kernel_report(sl, coset, screens, args.max_level)
    layers = [
        {
            "h": str(lay.h),
            "dim": lay.dim,
            "ker_dims": lay.ker_dims,
            "intersection_dim": lay.intersection_dim,
            "intersection_basis": [format_state(v) for v in lay.intersection_basis],
        }
        for lay in rep.layers
    ]
    checks = [
        _check(
            "intersection <= min kernel",
            all(l.intersection_dim <= min(l.ker_dims) for l in rep.layers if l.ker_dims),
        )
    ]
    report = _report(
        "kernel", rs, args.ell, f"_{args.module}_lvl{args.max_level}",
        module=args.module,
        screenings=[_mom_str(a) for a in screens],
        weyl_powers=rep.weyl_powers,
        rows=rep.rows(),
        layers=layers,
        table={
            "headers": ["h", "dim", "ker", "intersection"],
            "rows": [[lay["h"], lay["dim"], lay["ker_dims"], lay["intersection_dim"]] for lay in layers],
        },
        checks=checks,
    )
    return _emit(report, args)


def cmd_screen_apply(args) -> int:
    rs = _root_system(args)
    sl = ScreeningLattices(rs, args.ell)
    momentum = parse_momentum(args.momentum, sl)
    state = parse_state(args.state, sl)
    report = _report(
        "screen-apply", rs, args.ell, momentum=args.momentum, state=args.state, checks=[]
    )
    if args.fractional:
        screen_exp = FieldElement.exponential(sl.space, momentum)
        res = residue_op(screen_exp, state, truncate=args.truncate)
        report["banner"] = "APPROXIMATE: fractional residue truncated; coefficients are complex floats"
        momenta = {mu: format_momentum(mu) for mu in {mu for mu, _mono in res.element_terms}}
        report["approximate_result"] = {
            "truncation": res.truncation,
            "tail_scale": {str(k): v for k, v in sorted(res.tail_scale.items())},
            "terms": [
                {"momentum": momenta[mu], "monomial": list(mono), "coeff": repr(c)}
                for (mu, mono), c in sorted(res.element_terms.items())
            ],
        }
    else:
        try:
            report["result"] = format_state(apply_screening(momentum, state))
        except ValueError as exc:
            raise ValueError(f"{exc}; rerun with --fractional --truncate K") from exc
    return _emit(report, args)


def cmd_characters(args) -> int:
    rs = _root_system(args)
    sl = ScreeningLattices(rs, args.ell)
    cosets = sl.named_cosets()
    series = {}
    rows = []
    for name, coset in cosets.items():
        dim = series[name] = graded_dim_module(sl, coset, args.order).normalized()
        rows.append([name, str(dim.offset), " ".join(str(int(c)) for c in dim.coeffs[:8])])
    checks = []
    if args.check_jtp:
        chars = sf_characters(rs.rank, args.order + 1)
        # the table's blue series is the vacuum graded dimension
        ok = matches_ns_character(sl, series["blue"], chars, args.order)
        checks.append(_check("vacuum character matches 2^{n-1} chi_ns+", ok))
        print(f"JTP check: {'MATCH' if ok else 'MISMATCH'}", file=sys.stderr)
    report = _report(
        "characters", rs, args.ell, f"_o{args.order}",
        order=args.order,
        graded_dimensions={name: dim.to_json_dict() for name, dim in series.items()},
        table={"headers": ["module", "offset", "coefficients"], "rows": rows},
        checks=checks,
    )
    return _emit(report, args)


def cmd_sf_characters(args) -> int:
    chars = sf_characters(args.pairs, args.order)
    report = _report(
        "sf-characters", key=f"_n{args.pairs}_o{args.order}",
        pairs=args.pairs,
        order=args.order,
        characters={k: v.to_json_dict() for k, v in chars.items()},
        table={
            "headers": ["character", "offset", "step", "coefficients"],
            "rows": [
                [k, str(v.offset), str(v.step), " ".join(str(int(c)) for c in v.coeffs[:9])]
                for k, v in chars.items()
            ],
        },
        checks=[
            _check("chi1 + chi2 = chi_ns+", chars["chi1"] + chars["chi2"] == chars["ns+"]),
            _check("chi3 + chi4 = chi_r+", chars["chi3"] + chars["chi4"] == chars["r+"]),
        ],
    )
    return _emit(report, args)


def _extension_row(r) -> list:
    return [
        r.g, r.ell, r.num_simples, r.dim_x, r.g0, r.g0_num_simples, str(r.central_charge),
        r.global_symmetry,
    ]


def _dim_x_check(r, where: str = "") -> dict:
    return _check(f"dim X routes agree{where}", r.dim_x == r.dim_x_from_counts)


def _central_charge_check(r, where: str = "") -> dict:
    return _check(
        f"central charge matches table formula{where}",
        r.central_charge_consistent,
        f"{r.central_charge} vs {r.central_charge_table}",
    )


def cmd_degeneracy(args) -> int:
    if args.table:
        given = [f"--{name}" for name in ("algebra", "n", "ell") if getattr(args, name) is not None]
        if given:
            raise ValueError(f"degeneracy --table covers every algebra and level; drop {' '.join(given)}")
        ext = extension_table()
        report = _report(
            "degeneracy-table", classification=classification_table(),
            extension=[
                {
                    "g": r.g,
                    "ell": r.ell,
                    "num_simples": r.num_simples,
                    "dim_X": r.dim_x,
                    "g0": r.g0,
                    "g0_num_simples": r.g0_num_simples,
                    "central_charge": str(r.central_charge),
                    "global_symmetry": r.global_symmetry,
                }
                for r in ext
            ],
            table={"headers": EXTENSION_HEADERS, "rows": [_extension_row(r) for r in ext]},
            checks=[_dim_x_check(r, f" for {r.g} l={r.ell}") for r in ext]
            + [_central_charge_check(r, f" for {r.g} l={r.ell}") for r in ext],
        )
        return _emit(report, args)
    if args.algebra is None or args.ell is None:
        raise ValueError("degeneracy requires --algebra and --ell (or --table)")
    rs = _root_system(args)
    try:
        g0, gl = classify(rs, args.ell)
    except ValueError as exc:
        return _emit(_report("degeneracy", rs, args.ell, errors=[str(exc)], checks=[]), args)
    report = _report(
        "degeneracy", rs, args.ell,
        g0=g0,
        gl=gl,
        divided_power_orders=divided_power_orders(rs, args.ell),
        checks=[],
    )
    try:
        rep = extension_report(rs, args.ell)
    except ValueError:
        return _emit(report, args)
    report.update(
        num_simples=rep.num_simples,
        dim_X=rep.dim_x,
        dim_X_from_counts=rep.dim_x_from_counts,
        g0_num_simples=rep.g0_num_simples,
        central_charge=str(rep.central_charge),
        central_charge_table=str(rep.central_charge_table),
        global_symmetry=rep.global_symmetry,
        table={"headers": EXTENSION_HEADERS, "rows": [_extension_row(rep)]},
    )
    report["checks"] += [_dim_x_check(rep), _central_charge_check(rep)]
    return _emit(report, args)


def cmd_virasoro_check(args) -> int:
    rs = _root_system(args)
    sl = ScreeningLattices(rs, args.ell)
    st = stress_tensor(sl)
    vacuum = sl.long_lattice_coset(sl.space.zero())
    states = [v for layer in module_layers(sl, vacuum, args.max_level) for v in layer.basis]
    rep = commutator_check(st, states, max_mode=args.max_mode)
    suite = long_screening_suite(sl, st)
    checks = [
        _check(
            f"[Lm, Ln] identity, |m|,|n| <= {args.max_mode} on {rep.states_checked} states",
            rep.ok,
        ),
        *[_check(c.name, c.ok) for c in suite.checks],
    ]
    # L_{-1} = derivation on one layer of states
    ok_der = all(virasoro_mode(st, -1, v) == v.derive() for v in states[: min(len(states), 40)])
    checks.append(_check("L_{-1} = derivation", ok_der))
    report = _report(
        "virasoro-check", rs, args.ell, f"_m{args.max_mode}_lvl{args.max_level}",
        central_charge=str(st.c),
        max_mode=args.max_mode,
        max_level=args.max_level,
        states_checked=rep.states_checked,
        checks=checks,
    )
    return _emit(report, args)


def cmd_nichols(args) -> int:
    rs = _root_system(args)
    sl = ScreeningLattices(rs, args.ell)
    screens = short_screening_set(sl)
    cosets = sl.named_cosets()
    reports = nichols_check(
        sl, screens, [cosets["blue"], cosets["green"]], max_level=args.max_level
    )
    report = _report(
        "nichols", rs, args.ell, f"_lvl{args.max_level}",
        relations=[r.name for r in reports],
        checks=[_check(r.name, r.ok) for r in reports],
    )
    return _emit(report, args)


# --- the command line ---------------------------------------------------------


def count(text: str) -> int:
    """An integer option that counts orders, levels, modes, terms or pairs."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


# Every command: its help, whether it takes --algebra/--n/--ell
# ("required", "optional" or None) and its own options.  Each command also
# takes --format and --golden-dir.  Its handler is cmd_<name, with "-" as
# "_">, looked up when it runs.
COMMANDS = {
    "lattice-info": ("lattices, Q, central charge, braiding", "required", ()),
    "groundstates": ("groundstate table of every module", "required", ()),
    "kernel": ("screening kernels layer by layer", "required", (
        ("--module", {"choices": MODULE_NAMES, "default": "blue"}),
        ("--max-level", {"type": count, "default": 1}),
    )),
    "screen-apply": ("apply one screening charge to a state", "required", (
        ("--momentum", {"required": True, "help": 'e.g. "-a/sqrtp" or "-a2"'}),
        ("--state", {"required": True, "help": 'e.g. "d phi[a1] * exp[a1]"'}),
        ("--fractional", {"action": "store_true"}),
        ("--truncate", {"type": count, "default": 8}),
    )),
    "characters": ("graded dimensions of the four modules", "required", (
        ("--order", {"type": count, "default": 12}),
        ("--check-jtp", {"action": "store_true", "help": "match vacuum character against fermions"}),
    )),
    "sf-characters": ("symplectic fermion characters", None, (
        ("--pairs", {"type": count, "required": True}),
        ("--order", {"type": count, "default": 12}),
    )),
    "degeneracy": ("quantum-group degeneracy and extension data", "optional", (
        ("--table", {"action": "store_true", "help": "emit the full classification table"}),
    )),
    "virasoro-check": ("commutator identity on vacuum layers", "required", (
        ("--max-mode", {"type": count, "default": 3}),
        ("--max-level", {"type": count, "default": 5}),
    )),
    "nichols": ("screening nilpotency/commutation relations", "required", (
        ("--max-level", {"type": count, "default": 2}),
    )),
}


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors are bad input: it raises ValueError,
    which `main` reports as the JSON error document, instead of printing
    its usage and exiting."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of every command, built from COMMANDS on first use."""
    output = _Parser(add_help=False)
    output.add_argument("--format", choices=("json", "tsv", "md"), default="json")
    output.add_argument("--golden-dir", help="directory of golden JSON files for regression")
    algebra = {}
    for need in ("required", "optional"):
        p = algebra[need] = _Parser(add_help=False)
        p.add_argument("--algebra", required=need == "required", help="root system label, e.g. A1, B2, Bn")
        p.add_argument("--n", type=int, help="rank when the label ends in 'n'")
        p.add_argument("--ell", type=int, required=need == "required", help="even level l = 2p")
    parser = _Parser(
        prog="latvoa",
        description="Lattice vertex algebra screening-kernel toolkit (exact arithmetic)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, need, options) in COMMANDS.items():
        parents = [algebra[need], output] if need else [output]
        p = sub.add_parser(name, help=help_text, parents=parents)
        for flag, spec in options:
            p.add_argument(flag, **spec)
    return parser


def main(argv=None) -> int:
    """Run one command and return its exit code.

    0: every requested check passed.  1: a check failed (the document
    reports `ok: false` and which check).  2: bad input: a bad command line
    (an unknown command or option, a missing or malformed value, a negative
    count), an unknown symbol, malformed state text or an integer residue
    on a fractional pairing (a ValueError or KeyError).  3: an internal
    error, i.e. any other exception raised by the command (AssertionError,
    IndexError, TypeError, ZeroDivisionError, RecursionError, MemoryError,
    ...), which points at a fault of the program or of its resources
    rather than of the input.  Codes 2 and 3 print the JSON
    document {"ok": false, "errors": [...]}, except when stdout is closed:
    a BrokenPipeError from any write to stdout, the error document's
    included, returns 3 and writes nothing more.  Only --help exits
    through SystemExit (code 0), after printing the usage.
    """
    if argv is None:
        argv = sys.argv[1:]
    # let values like "-a/sqrtp" follow their flag without argparse
    # mistaking them for options
    glued = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in ("--momentum", "--state") and i + 1 < len(argv):
            glued.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            glued.append(tok)
            i += 1
    try:
        try:
            args = _parser().parse_args(glued)
            code = globals()["cmd_" + args.command.replace("-", "_")](args)
        except (ValueError, KeyError) as exc:
            print(_json({"ok": False, "errors": [str(exc)]}))
            code = 2
        except BrokenPipeError:
            raise
        except Exception as exc:
            error = f"internal error: {type(exc).__name__}: {exc}"
            print(_json({"ok": False, "errors": [error]}))
            code = 3
        # a closed stdout shows here at the latest, not in the flush at exit
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout; point fd 1 at devnull so that the flush
        # at exit cannot raise again (the SIGPIPE note of the Python docs)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 3


if __name__ == "__main__":
    sys.exit(main())
