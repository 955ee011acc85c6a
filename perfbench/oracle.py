"""Answer checks for every benchmark job, run outside the timed window.

The expected numbers come from outside the code under test: q-series
coefficients of the symplectic-fermion characters and of the module graded
dimensions (pinned below; perfbench/tests/test_perfbench.py recomputes them),
the repository's goldens under `tests/golden/` (read only), and the
conformal weight, which a screening charge preserves term by term.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from pathlib import Path

# Intersection of the screening kernels on each level of a module equals a
# symplectic-fermion character coefficient: chi1 for blue, chi2 for green.
KERNEL_INTERSECTIONS = {
    ("B2", "blue"): [1, 0, 6, 16, 23, 48],
    ("B2", "green"): [0, 4, 4, 8, 28, 52],
    ("B3", "blue"): [1, 0, 15, 36],
    ("B3", "green"): [0, 6, 6, 26],
}
CHI_OF_MODULE = {"blue": "chi1", "green": "chi2"}
# Level dimensions of the blue (= green) module: graded_dim_module coefficients.
LAYER_DIMS = {
    "A1": [1, 2, 3, 6, 9, 14],
    "B2": [2, 8, 20, 48, 102, 200],
    "B3": [4, 24, 84, 248],
}
# Groundstate count and conformal weight per module where no golden exists.
GROUNDSTATES = {
    "B4": {"blue": (8, "0"), "center": (1, "-1/2"), "green": (8, "0"), "steinberg": (8, "0")},
}
# Ambient Gram matrix (simple roots over sqrt p) and Q at ell = 4, for the
# conformal weight h(mu) + deg = (mu, mu)/2 - (mu, Q) + deg of a state term.
WEIGHT_DATA = {
    "A1": ([[1]], [Fraction(1, 2)]),
    "B2": ([[2, -1], [-1, 1]], [Fraction(1, 2), Fraction(1)]),
}


def _flag(argv: list[str], name: str, default=None):
    return argv[argv.index(name) + 1] if name in argv else default


# --- state text -------------------------------------------------------------


def _split_top(text: str, separators: tuple[str, ...]) -> list[str]:
    """Split at separators that sit outside square brackets (signs of
    terms are dropped: weights do not depend on them)."""
    parts, depth, start, i = [], 0, 0, 0
    while i < len(text):
        ch = text[i]
        depth += ch == "["
        depth -= ch == "]"
        sep = next((s for s in separators if depth == 0 and text.startswith(s, i)), None)
        if sep is None:
            i += 1
            continue
        parts.append(text[start:i])
        i += len(sep)
        start = i
    parts.append(text[start:])
    return parts


_MOM_TERM = re.compile(r"([+-]?)(?:(\d+(?:/\d+)?)\*)?a(\d+)")
_DERIV = re.compile(r"d(?:\^(\d+))? phi\[a\d+\]$")


def parse_momentum(text: str, rank: int) -> list[Fraction]:
    coords = [Fraction(0)] * rank
    compact = text.replace(" ", "")
    if compact == "0":
        return coords
    if _MOM_TERM.sub("", compact):
        raise ValueError(f"unreadable momentum {text!r}")
    for sign, coeff, idx in _MOM_TERM.findall(compact):
        value = Fraction(coeff) if coeff else Fraction(1)
        coords[int(idx) - 1] += -value if sign == "-" else value
    return coords


def term_weights(state: str, algebra: str) -> list[Fraction]:
    """Conformal weight of every term of a printed state."""
    if state == "0":
        return []
    gram, q = WEIGHT_DATA[algebra]
    rank = len(gram)
    weights = []
    for term in _split_top(state, (" + ", " - ")):
        degree, mom = 0, None
        for factor in _split_top(term.lstrip("-"), (" * ",)):
            factor = factor.strip()
            deriv = _DERIV.match(factor)
            if factor.startswith("exp[") and factor.endswith("]"):
                mom = parse_momentum(factor[4:-1], rank)
            elif deriv:
                degree += int(deriv.group(1) or 1)
        if mom is None:
            raise ValueError(f"term without exp[...] in {state!r}")
        norm = sum(mom[i] * gram[i][j] * mom[j] for i in range(rank) for j in range(rank))
        pair_q = sum(mom[i] * gram[i][j] * q[j] for i in range(rank) for j in range(rank))
        weights.append(norm / 2 - pair_q + degree)
    return weights


# --- per-command checks --------------------------------------------------------


def _load_golden(golden_dir: Path, key: str):
    path = golden_dir / f"{key}.json"
    return json.loads(path.read_text()) if path.is_file() else None


def _check_groundstates(argv, doc, golden_dir, problems):
    golden = _load_golden(golden_dir, doc["golden_key"])
    if golden is not None:
        payload = {k: v for k, v in doc.items() if k not in ("checks", "ok")}
        if payload != golden:
            problems.append(f"differs from golden {doc['golden_key']}")
        return
    expected = GROUNDSTATES.get(doc["algebra"])
    if expected is None:
        problems.append(f"no oracle for groundstates of {doc['algebra']}")
        return
    got = {m["module"]: (m["count"], m["conformal_dim"]) for m in doc["modules"]}
    if got != expected:
        problems.append(f"groundstates {got} != {expected}")


def _check_kernel(argv, doc, golden_dir, problems):
    algebra, module = doc["algebra"], doc["module"]
    levels = int(_flag(argv, "--max-level", 1)) + 1
    want = KERNEL_INTERSECTIONS.get((algebra, module), [])[:levels]
    dims = LAYER_DIMS.get(algebra, [])[:levels]
    if len(want) < levels or len(dims) < levels:
        problems.append(f"no oracle for kernel {algebra} {module} through level {levels - 1}")
        return
    layers = doc["layers"]
    got = [lay["intersection_dim"] for lay in layers]
    if got != want:
        problems.append(f"intersection dims {got} != {CHI_OF_MODULE[module]} coefficients {want}")
    if [lay["dim"] for lay in layers] != dims:
        problems.append(f"layer dims {[lay['dim'] for lay in layers]} != graded dims {dims}")
    for lay in layers:
        if len(lay["intersection_basis"]) != lay["intersection_dim"]:
            problems.append(f"h={lay['h']}: basis size differs from intersection dim")
        if any(lay["intersection_dim"] > k for k in lay["ker_dims"]):
            problems.append(f"h={lay['h']}: intersection larger than a kernel")
    # goldens of lower levels pin the first layers, bases included
    for path in sorted(golden_dir.glob(f"kernel_{algebra}_l{doc['ell']}_{module}_lvl*.json")):
        golden = json.loads(path.read_text())
        n = len(golden["layers"])
        if n > len(layers):
            continue
        if (
            golden["layers"] != layers[:n]
            or golden["rows"] != doc["rows"][:n]
            or golden["screenings"] != doc["screenings"]
            or golden["weyl_powers"] != doc["weyl_powers"]
        ):
            problems.append(f"first {n} layers differ from golden {path.stem}")


def _check_characters(argv, doc, golden_dir, problems):
    if not doc["checks"]:
        problems.append("the JTP check did not run")
    series = doc["graded_dimensions"]
    for path in sorted(golden_dir.glob(f"characters_{doc['algebra']}_l{doc['ell']}_o*.json")):
        golden = json.loads(path.read_text())
        for module, ref in golden["graded_dimensions"].items():
            got = series.get(module)
            n = min(len(ref["coeffs"]), len(got["coeffs"])) if got else 0
            if (
                got is None
                or got["coeffs"][:n] != ref["coeffs"][:n]
                or (got["offset"], got["step"]) != (ref["offset"], ref["step"])
            ):
                problems.append(f"{module} series differs from golden {path.stem}")
    blue = series.get("blue")
    dims = LAYER_DIMS.get(doc["algebra"])
    if blue and dims and blue["coeffs"][: len(dims)] != dims[: len(blue["coeffs"])]:
        problems.append("blue graded dims differ from the pinned layer dims")


def _check_virasoro(argv, doc, golden_dir, problems):
    dims = LAYER_DIMS[doc["algebra"]]
    want = sum(dims[: doc["max_level"] + 1])
    if doc["states_checked"] != want:
        problems.append(f"checked {doc['states_checked']} states, vacuum layers hold {want}")


def _check_nichols(argv, doc, golden_dir, problems):
    if not doc["relations"] or len(doc["checks"]) != len(doc["relations"]):
        problems.append("no relation was checked")


def _check_screen_apply(job, doc, problems):
    algebra = doc["algebra"]
    h = Fraction(job["h"])
    if any(w != h for w in term_weights(doc["state"], algebra)):
        problems.append(f"input state is not of weight {h}")
    if job["fractional"]:
        banner = doc.get("banner", "")
        approx = doc.get("approximate_result") or {}
        if not banner.startswith("APPROXIMATE"):
            problems.append("fractional result lacks the APPROXIMATE banner")
        if str(approx.get("truncation")) != _flag(job["argv"], "--truncate"):
            problems.append("fractional result does not report its truncation")
        return
    if "result" not in doc:
        problems.append("integer screening gave no result")
        return
    bad = [w for w in term_weights(doc["result"], algebra) if w != h]
    if bad:
        problems.append(f"screening changed the weight {h} to {bad[0]}")


_CHECKS = {
    "groundstates": _check_groundstates,
    "kernel": _check_kernel,
    "characters": _check_characters,
    "virasoro-check": _check_virasoro,
    "nichols": _check_nichols,
}


def check_job(job: dict, result: dict, golden_dir: Path) -> list[str]:
    """Problems with one job's answer; an empty list means correct."""
    if result.get("error"):
        return [f"raised: {result['error'].strip().splitlines()[-1]}"]
    if result.get("rc") != 0:
        return [f"exit code {result.get('rc')!r}"]
    try:
        doc = json.loads(result["stdout"])
    except ValueError:
        return ["output is not one JSON document"]
    if doc.get("ok") is not True or doc.get("errors"):
        return [f"ok is {doc.get('ok')!r}: {doc.get('errors') or doc.get('checks')}"]
    command = job["argv"][0]
    problems: list[str] = []
    try:
        if command == "screen-apply":
            _check_screen_apply(job, doc, problems)
        else:
            _CHECKS[command](job["argv"], doc, golden_dir, problems)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        problems.append(f"malformed {command} answer: {exc!r}")
    return problems
