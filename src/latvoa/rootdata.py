"""Finite-type root systems with the normalization used throughout.

Short roots have norm 2, long roots norm 4 (norm 6 for the long G2 root).
For B_n the last simple root is the unique short one; for C_n the last is
the unique long one; F4 has roots 1,2 long and 3,4 short; G2 has root 1
long and root 2 short.

The Cartan matrix convention is cartan[i][j] = 2 (a_i, a_j) / (a_j, a_j),
so gram[i][j] = d[j] * cartan[i][j] with d[j] = (a_j, a_j) / 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg

SERIES = ("A", "B", "C", "D", "F", "G")


@dataclass(frozen=True)
class RootSystem:
    series: str
    rank: int
    cartan: tuple[tuple[int, ...], ...]
    gram: tuple[tuple[int, ...], ...]
    d: tuple[int, ...]
    positive_roots: tuple[tuple[int, ...], ...]
    rho: tuple[Fraction, ...]
    rho_dual: tuple[Fraction, ...]
    fund_weights: tuple[tuple[Fraction, ...], ...]
    fundamental_group_order: int

    @property
    def label(self) -> str:
        return f"{self.series}{self.rank}"

    def pair_roots(self, x, y) -> Fraction:
        """Inner product of two vectors given in the simple-root basis."""
        return Fraction(_gram_pair(self.gram, x, y))

    def norm(self, x) -> Fraction:
        return self.pair_roots(x, x)

    def coroot(self, x) -> tuple[Fraction, ...]:
        n = self.norm(x)
        return tuple(Fraction(2 * c, 1) / n for c in x)


def _gram_pair(gram, x, y):
    """sum x_i gram_ij y_j: the inner product of two vectors in the
    simple-root basis, an int when both are integral."""
    total = 0
    for xi, row in zip(x, gram):
        if xi:
            total += xi * sum(g * yj for g, yj in zip(row, y))
    return total


def _gram_from_norms(rank: int, norms: list[int], links: dict[tuple[int, int], int]) -> list[list[int]]:
    g = [[0] * rank for _ in range(rank)]
    for i in range(rank):
        g[i][i] = norms[i]
    for (i, j), v in links.items():
        g[i][j] = v
        g[j][i] = v
    return g


def _simple_gram(series: str, rank: int) -> list[list[int]]:
    chain = {(i, i + 1): -1 for i in range(rank - 1)}
    if series == "A":
        return _gram_from_norms(rank, [2] * rank, chain)
    if series == "B":
        # last root short; adjacent long roots pair with -2
        norms = [4] * (rank - 1) + [2]
        links = {(i, i + 1): -2 for i in range(rank - 1)}
        return _gram_from_norms(rank, norms, links)
    if series == "C":
        norms = [2] * (rank - 1) + [4]
        links = {(i, i + 1): -1 for i in range(rank - 2)}
        links[(rank - 2, rank - 1)] = -2
        return _gram_from_norms(rank, norms, links)
    if series == "D":
        links = {(i, i + 1): -1 for i in range(rank - 2)}
        links[(rank - 3, rank - 1)] = -1
        return _gram_from_norms(rank, [2] * rank, links)
    if series == "F":
        return [
            [4, -2, 0, 0],
            [-2, 4, -2, 0],
            [0, -2, 2, -1],
            [0, 0, -1, 2],
        ]
    if series == "G":
        return [[6, -3], [-3, 2]]
    raise ValueError(f"unknown series {series!r}")


def _positive_roots(gram: list[list[int]]) -> list[tuple[int, ...]]:
    """All positive roots, generated by closing simple roots under the
    simple reflections s_i(r) = r - <r, a_i^v> a_i."""
    rank = len(gram)
    simples = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]

    roots = set(simples) | {tuple(-c for c in s) for s in simples}
    frontier = set(roots)
    while frontier:
        new = set()
        for r in frontier:
            for i, s in enumerate(simples):
                coeff = 2 * _gram_pair(gram, r, s) // gram[i][i]
                img = tuple(rc - coeff * sc for rc, sc in zip(r, s))
                if img not in roots:
                    new.add(img)
        roots |= new
        frontier = new
    positive = [r for r in roots if all(c >= 0 for c in r)]
    positive.sort(key=lambda r: (sum(r), r))
    assert 2 * len(positive) == len(roots)
    return positive


_CLASSICAL_COUNTS = {
    "A": lambda n: n * (n + 1) // 2,
    "B": lambda n: n * n,
    "C": lambda n: n * n,
    "D": lambda n: n * (n - 1),
    "F": lambda n: 24,
    "G": lambda n: 6,
}


def build_root_system(series: str, rank: int) -> RootSystem:
    """Construct the root system for a valid finite (series, rank) pair.

    B1 is accepted as an alias for A1.
    """
    series = series.upper()
    if series not in SERIES:
        raise ValueError(f"unknown series {series!r}; expected one of {SERIES}")
    ok = (
        (series == "A" and rank >= 1)
        or (series == "B" and rank >= 1)
        or (series == "C" and rank >= 2)
        or (series == "D" and rank >= 3)
        or (series == "F" and rank == 4)
        or (series == "G" and rank == 2)
    )
    if not ok:
        raise ValueError(f"invalid finite type ({series}, {rank})")
    if series == "B" and rank == 1:
        series = "A"

    gram = _simple_gram(series, rank)
    d = [gram[i][i] // 2 for i in range(rank)]
    cartan = [[_cartan_entry(gram, i, j) for j in range(rank)] for i in range(rank)]
    positive = _positive_roots(gram)
    assert len(positive) == _CLASSICAL_COUNTS[series](rank)

    two_rho = [sum(r[i] for r in positive) for i in range(rank)]
    rho = tuple(Fraction(c, 2) for c in two_rho)

    rho_dual_acc = [Fraction(0)] * rank
    for r in positive:
        n = _gram_pair(gram, r, r)
        for i in range(rank):
            rho_dual_acc[i] += Fraction(2, 1) * r[i] / n
    rho_dual = tuple(x / 2 for x in rho_dual_acc)

    gram_inv = linalg.inverse(linalg.frac_matrix(gram))
    fund = tuple(
        tuple(d[i] * gram_inv[i][j] for j in range(rank)) for i in range(rank)
    )

    cart_det = linalg.det(linalg.frac_matrix(cartan))
    assert cart_det.denominator == 1

    return RootSystem(
        series=series,
        rank=rank,
        cartan=tuple(tuple(row) for row in cartan),
        gram=tuple(tuple(row) for row in gram),
        d=tuple(d),
        positive_roots=tuple(positive),
        rho=rho,
        rho_dual=rho_dual,
        fund_weights=fund,
        fundamental_group_order=int(cart_det),
    )


def _cartan_entry(gram: list[list[int]], i: int, j: int) -> int:
    num = 2 * gram[i][j]
    assert num % gram[j][j] == 0
    return num // gram[j][j]


def parse_label(label: str) -> tuple[str, int]:
    """Parse labels like 'B2', 'F4', 'a3'."""
    label = label.strip()
    if not label or not label[0].isalpha():
        raise ValueError(f"bad root system label {label!r}")
    series = label[0].upper()
    try:
        rank = int(label[1:])
    except ValueError as exc:
        raise ValueError(f"bad root system label {label!r}") from exc
    return series, rank


def dual_root_system(rs: RootSystem) -> RootSystem:
    """The dual root system (Cartan matrix transposed): B_n <-> C_n."""
    mapping = {"A": "A", "D": "D", "F": "F", "G": "G", "B": "C", "C": "B"}
    dual_series = mapping[rs.series]
    if rs.series in ("B", "C") and rs.rank < 2:
        dual_series = "A"
    return build_root_system(dual_series, rs.rank)


def short_root_norm(rs: RootSystem) -> int:
    return min(rs.gram[i][i] for i in range(rs.rank))


def short_positive_roots(rs: RootSystem) -> list[tuple[int, ...]]:
    norm = short_root_norm(rs)
    return [r for r in rs.positive_roots if rs.norm(r) == norm]


def short_simple_system(rs: RootSystem) -> list[tuple[int, ...]]:
    """Simple roots of the subsystem formed by the short roots.

    A positive short root is simple in the subsystem iff it is not the sum
    of two positive short roots.
    """
    shorts = short_positive_roots(rs)
    short_set = set(shorts)
    simples = []
    for r in shorts:
        decomposable = any(
            tuple(a - b for a, b in zip(r, s)) in short_set for s in shorts if s != r
        )
        if not decomposable:
            simples.append(r)
    simples.sort(key=lambda r: (sum(r), r))
    return simples


def classify_simply_laced(gram_like: list[list[Fraction]]) -> str:
    """Identify an ADE Cartan/gram shape (all norms equal, links -1 scale).

    Takes the gram matrix of a simply-laced simple system (norm 2 each) and
    returns a label such as 'A3', 'D4', or 'A1^3' for reducible systems.
    """
    n = len(gram_like)
    adj = {i: [j for j in range(n) if j != i and gram_like[i][j] != 0] for i in range(n)}
    seen: set[int] = set()
    components: list[list[int]] = []
    for i in range(n):
        if i in seen:
            continue
        comp = [i]
        seen.add(i)
        stack = [i]
        while stack:
            cur = stack.pop()
            for nb in adj[cur]:
                if nb not in seen:
                    seen.add(nb)
                    comp.append(nb)
                    stack.append(nb)
        components.append(comp)

    labels: list[str] = []
    for comp in components:
        k = len(comp)
        degrees = sorted(len(adj[i]) for i in comp)
        if k == 1:
            labels.append("A1")
        elif max(degrees) <= 2:
            labels.append(f"A{k}")
        elif degrees.count(3) == 1 and max(degrees) == 3:
            # D or E: count the arm lengths from the trivalent node
            node = next(i for i in comp if len(adj[i]) == 3)
            arms = []
            for start in adj[node]:
                length = 1
                prev, cur = node, start
                while True:
                    nxt = [x for x in adj[cur] if x != prev]
                    if not nxt:
                        break
                    prev, cur = cur, nxt[0]
                    length += 1
                arms.append(length)
            arms.sort()
            if arms[0] == 1 and arms[1] == 1:
                labels.append(f"D{k}")
            elif arms[:2] == [1, 2]:
                labels.append(f"E{k}")
            else:
                raise ValueError("unrecognized simply-laced diagram")
        else:
            raise ValueError("unrecognized simply-laced diagram")

    counts: dict[str, int] = {}
    for lab in labels:
        counts[lab] = counts.get(lab, 0) + 1
    parts = [lab if c == 1 else f"{lab}^{c}" for lab, c in sorted(counts.items())]
    return "x".join(parts)
