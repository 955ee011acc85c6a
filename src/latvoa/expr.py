"""Text grammar for states and momenta.

States:   sums of products of factors
          factor := rational | exp[<mom>] | d phi[<mom>] | d^k phi[<mom>]
Momenta:  rational linear combinations of the symbols a1..an (the ambient
          basis vectors, i.e. the simple roots over sqrt p), l1..ln (the
          dual basis) and Q; `a` is accepted for a1 in rank one.
          In the --momentum flag a trailing /sqrtp or *sqrtp reinterprets
          the combination in root units (divided resp. multiplied by
          sqrt p).

parse(print(x)) is the identity on canonical forms; print(parse(s))
canonicalizes s.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .freefield import FieldElement
from .lattice import Momentum, ScreeningLattices

_TOKEN = re.compile(
    r"\s*(?:(?P<number>\d+)|(?P<name>[A-Za-z]\w*)|(?P<op>[\^+\-*/()\[\]]))"
)


class ParseError(ValueError):
    def __init__(self, message: str, text: str, pos: int):
        super().__init__(f"{message} at position {pos}: {text!r}")
        self.pos = pos


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.items: list[tuple[str, str, int]] = []
        pos = 0
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if m is None:
                if text[pos:].strip() == "":
                    break
                raise ParseError("unexpected character", text, pos)
            for kind in ("number", "name", "op"):
                val = m.group(kind)
                if val is not None:
                    self.items.append((kind, val, m.start(kind)))
                    break
            pos = m.end()
        self.i = 0

    def peek(self):
        return self.items[self.i] if self.i < len(self.items) else ("end", "", len(self.text))

    def next(self):
        tok = self.peek()
        self.i += 1
        return tok

    def expect(self, kind: str, value: str | None = None):
        tok = self.next()
        if tok[0] != kind or (value is not None and tok[1] != value):
            raise ParseError(f"expected {value or kind}", self.text, tok[2])
        return tok


def _symbol_momentum(name: str, sl: ScreeningLattices) -> Momentum:
    rank = sl.space.rank
    if name == "Q":
        return sl.Q
    if name == "a" and rank == 1:
        return sl.space.basis_vector(0)
    m = re.fullmatch(r"([al])(\d+)", name)
    if not m:
        raise KeyError(name)
    idx = int(m.group(2)) - 1
    if not 0 <= idx < rank:
        raise KeyError(name)
    if m.group(1) == "a":
        return sl.space.basis_vector(idx)
    return sl.basis_dual[idx]


def _parse_rational(toks: _Tokens) -> Fraction:
    num = toks.expect("number")[1]
    if toks.peek()[:2] == ("op", "/"):
        toks.next()
        _kind, den, pos = toks.expect("number")
        if int(den) == 0:
            raise ParseError("zero denominator", toks.text, pos)
        return Fraction(int(num), int(den))
    return Fraction(int(num))


def _parse_momexpr(toks: _Tokens, sl: ScreeningLattices) -> Momentum:
    total = sl.space.zero()
    sign = Fraction(1)
    first = True
    while True:
        tok = toks.peek()
        if tok[:2] == ("op", "+"):
            toks.next()
        elif tok[:2] == ("op", "-"):
            toks.next()
            sign = -sign
        elif not first:
            break
        coeff = Fraction(1)
        tok = toks.peek()
        if tok[0] == "number":
            coeff = _parse_rational(toks)
            if toks.peek()[:2] == ("op", "*"):
                toks.next()
                tok = toks.peek()
            else:
                tok = ("none", "", tok[2])
        if tok[0] == "name":
            name = toks.next()[1]
            try:
                base = _symbol_momentum(name, sl)
            except KeyError:
                raise ParseError(f"unknown symbol {name!r}", toks.text, tok[2]) from None
            total = total + (sign * coeff) * base
        elif coeff == 0:
            pass  # a bare 0 denotes the zero momentum
        else:
            raise ParseError("expected a momentum symbol", toks.text, tok[2])
        sign = Fraction(1)
        first = False
        nxt = toks.peek()
        if nxt[:2] not in (("op", "+"), ("op", "-")):
            break
    return total


def parse_momentum(text: str, sl: ScreeningLattices) -> Momentum:
    """Momentum expression with optional /sqrtp or *sqrtp suffix."""
    toks = _Tokens(text)
    mom = _parse_momexpr(toks, sl)
    tok = toks.peek()
    if tok[:2] in (("op", "/"), ("op", "*")):
        op = toks.next()[1]
        name = toks.expect("name")
        if name[1] != "sqrtp":
            raise ParseError("expected sqrtp", text, name[2])
        # symbols denote roots over sqrt p; dividing by sqrt p keeps the
        # ambient coordinates, multiplying scales them by p
        if op == "*":
            mom = Fraction(sl.p) * mom
    if toks.peek()[0] != "end":
        raise ParseError("trailing input", text, toks.peek()[2])
    return mom


def _parse_factor(toks: _Tokens, sl: ScreeningLattices) -> FieldElement:
    space = sl.space
    tok = toks.peek()
    if tok[:2] == ("op", "("):
        toks.next()
        inner = _parse_sum(toks, sl)
        toks.expect("op", ")")
        return inner
    if tok[0] == "number":
        return _parse_rational(toks) * FieldElement.vacuum(space)
    if tok[0] == "name" and tok[1] == "exp":
        toks.next()
        toks.expect("op", "[")
        mom = _parse_momexpr(toks, sl)
        toks.expect("op", "]")
        return FieldElement.exponential(space, mom)
    if tok[0] == "name" and tok[1] == "d":
        toks.next()
        order = 1
        if toks.peek()[:2] == ("op", "^"):
            toks.next()
            order = int(toks.expect("number")[1])
        toks.expect("name", "phi")
        toks.expect("op", "[")
        mom = _parse_momexpr(toks, sl)
        toks.expect("op", "]")
        return FieldElement.dphi(space, mom, order)
    raise ParseError("expected a factor", toks.text, tok[2])


def _parse_term(toks: _Tokens, sl: ScreeningLattices) -> FieldElement:
    out = _parse_factor(toks, sl)
    while toks.peek()[:2] == ("op", "*"):
        toks.next()
        out = out * _parse_factor(toks, sl)
    return out


def _parse_sum(toks: _Tokens, sl: ScreeningLattices) -> FieldElement:
    sign = 1
    tok = toks.peek()
    if tok[:2] == ("op", "-"):
        toks.next()
        sign = -1
    elif tok[:2] == ("op", "+"):
        toks.next()
    out = sign * _parse_term(toks, sl)
    while True:
        tok = toks.peek()
        if tok[:2] == ("op", "+"):
            toks.next()
            out = out + _parse_term(toks, sl)
        elif tok[:2] == ("op", "-"):
            toks.next()
            out = out - _parse_term(toks, sl)
        else:
            break
    return out


def parse_state(text: str, sl: ScreeningLattices) -> FieldElement:
    toks = _Tokens(text)
    out = _parse_sum(toks, sl)
    if toks.peek()[0] != "end":
        raise ParseError("trailing input", text, toks.peek()[2])
    return out


# --- printing ---------------------------------------------------------------


def format_momentum(coords) -> str:
    parts = []
    for i, c in enumerate(coords):
        if c == 0:
            continue
        sym = f"a{i + 1}"
        if c == 1:
            piece = sym
        elif c == -1:
            piece = f"-{sym}"
        else:
            piece = f"{c}*{sym}"
        if parts and not piece.startswith("-"):
            parts.append(f"+ {piece}")
        elif parts:
            parts.append(f"- {piece[1:]}")
        else:
            parts.append(piece)
    return " ".join(parts) if parts else "0"


def format_state(elem: FieldElement) -> str:
    if not elem.terms:
        return "0"
    out = []
    for (mom, mono) in sorted(elem.terms, key=lambda k: (k[0], k[1])):
        coeff = elem.terms[(mom, mono)]
        factors = []
        for order, idx in mono:
            dsym = "d" if order == 1 else f"d^{order}"
            factors.append(f"{dsym} phi[a{idx + 1}]")
        factors.append(f"exp[{format_momentum(mom)}]")
        body = " * ".join(factors)
        if isinstance(coeff, complex):
            text, negative = f"({coeff}) * {body}", False
        else:
            negative = coeff < 0
            mag = -coeff if negative else coeff
            text = body if mag == 1 else f"{mag} * {body}"
        if not out:
            out.append(f"-{text}" if negative else text)
        else:
            out.append(f"- {text}" if negative else f"+ {text}")
    return " ".join(out)
