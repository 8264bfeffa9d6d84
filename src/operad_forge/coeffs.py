"""Exact coefficient arithmetic in Q[L] plus Koszul sign utilities.

``L`` is a formal weight variable.  Working over Q[L] keeps every identity
generic in the weight; fixing the weight amounts to specializing ``L`` to a
rational number, which :func:`Coefficient.specialize` does exactly.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

Rat = Union[int, Fraction]


def _normalize_value(v: Rat) -> Rat:
    if isinstance(v, Fraction) and v.denominator == 1:
        return int(v)
    return v


class Coefficient:
    """Sparse polynomial in L over Q.

    Zero entries are never stored; the zero polynomial is the empty map.
    Instances are immutable and safe to share.
    """

    __slots__ = ("_c",)

    def __init__(self, coeffs: Mapping[int, Rat] | None = None):
        c: dict[int, Rat] = {}
        if coeffs:
            for e, v in coeffs.items():
                if v:
                    if e < 0:
                        raise ValueError("negative power of L")
                    c[int(e)] = _normalize_value(v)
        self._c = c

    @staticmethod
    def zero() -> "Coefficient":
        return _ZERO

    @staticmethod
    def one() -> "Coefficient":
        return _ONE

    @staticmethod
    def rational(v: Rat) -> "Coefficient":
        return Coefficient({0: v}) if v else _ZERO

    @staticmethod
    def lam(power: int = 1, scale: Rat = 1) -> "Coefficient":
        """scale * L**power"""
        return Coefficient({power: scale})

    @property
    def coeffs(self) -> dict[int, Rat]:
        return dict(self._c)

    def is_zero(self) -> bool:
        return not self._c

    def __bool__(self) -> bool:
        return bool(self._c)

    def __add__(self, other: "Coefficient") -> "Coefficient":
        if not other._c:
            return self
        if not self._c:
            return other
        c = dict(self._c)
        for e, v in other._c.items():
            w = c.get(e, 0) + v
            if w:
                c[e] = _normalize_value(w)
            else:
                c.pop(e, None)
        out = Coefficient.__new__(Coefficient)
        out._c = c
        return out

    def __neg__(self) -> "Coefficient":
        out = Coefficient.__new__(Coefficient)
        out._c = {e: -v for e, v in self._c.items()}
        return out

    def __sub__(self, other: "Coefficient") -> "Coefficient":
        return self + (-other)

    def __mul__(self, other: "Coefficient | Rat") -> "Coefficient":
        if not isinstance(other, Coefficient):
            return self.scale(other)
        if not self._c or not other._c:
            return _ZERO
        a, b = self._c, other._c
        if len(b) == 1:
            (eb, vb), = b.items()
            if vb == 1:
                c = {ea + eb: va for ea, va in a.items()}
            elif vb == -1:
                c = {ea + eb: -va for ea, va in a.items()}
            else:
                c = {ea + eb: _normalize_value(va * vb) for ea, va in a.items()}
            out = Coefficient.__new__(Coefficient)
            out._c = c
            return out
        c: dict[int, Rat] = {}
        for ea, va in a.items():
            for eb, vb in b.items():
                e = ea + eb
                w = c.get(e, 0) + va * vb
                if w:
                    c[e] = w
                else:
                    c.pop(e, None)
        out = Coefficient.__new__(Coefficient)
        out._c = {e: _normalize_value(v) for e, v in c.items()}
        return out

    __rmul__ = __mul__

    def scale(self, v: Rat) -> "Coefficient":
        if not v:
            return _ZERO
        if v == 1:
            return self
        out = Coefficient.__new__(Coefficient)
        out._c = {e: _normalize_value(w * v) for e, w in self._c.items()}
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Coefficient):
            return NotImplemented
        return self._c == other._c

    def __hash__(self) -> int:
        return hash(frozenset(self._c.items()))

    def specialize(self, lam: Rat) -> Fraction:
        """Evaluate at L = lam, exactly."""
        lam = Fraction(lam)
        acc = Fraction(0)
        for e, v in self._c.items():
            acc += Fraction(v) * lam**e
        return acc

    def constant_term(self) -> Fraction:
        return Fraction(self._c.get(0, 0))

    def __repr__(self) -> str:
        return f"Coefficient({format_coefficient(self)!r})"

    def __str__(self) -> str:
        return format_coefficient(self)


_ZERO = Coefficient()
_ONE = Coefficient({0: 1})

MINUS_ONE = Coefficient({0: -1})
LAMBDA = Coefficient({1: 1})


def sign_coeff(exponent: int) -> Coefficient:
    return _ONE if exponent % 2 == 0 else MINUS_ONE


def as_coefficient(c: "Coefficient | Rat") -> Coefficient:
    return c if isinstance(c, Coefficient) else Coefficient.rational(c)


def unit_sign(c: "Coefficient | Rat") -> int:
    """1 or -1 when ``c`` is the constant +-1, else 0; scaling by a unit
    only returns or negates."""
    if isinstance(c, Coefficient):
        c = c._c.get(0) if len(c._c) == 1 else None
    return 1 if c == 1 else -1 if c == -1 else 0


# ---------------------------------------------------------------------------
# Sparse sums
# ---------------------------------------------------------------------------

def add_into(acc: dict, key, value) -> None:
    """acc[key] += value, removing the entry when the sum is zero.

    This is the one place a sparse sum drops its zeros.  A dict value (a
    row, or a table of rows) is added entry by entry into a dict that
    ``acc`` owns, so ``acc`` never shares a mutable value with an operand;
    any other value (a Coefficient, a MultiMap) is combined with ``+`` and
    tested for zero by its truth value.  ``acc`` itself must be a fresh
    dict: values handed out by a cache must never be accumulated into.
    """
    prev = acc.get(key)
    if type(value) is dict:
        if prev is None:
            prev = acc[key] = {}
        for k, v in value.items():
            add_into(prev, k, v)
        if not prev:
            del acc[key]
        return
    tot = value if prev is None else prev + value
    if tot:
        acc[key] = tot
    elif prev is not None:
        del acc[key]


# ---------------------------------------------------------------------------
# textual grammar:
#   coeff    := term (('+'|'-') term)*
#   term     := rational ('*' 'L' ('^' uint)?)? | 'L' ('^' uint)?
#   rational := int ('/' uint)?
# ---------------------------------------------------------------------------

_TERM_RE = re.compile(
    r"\s*(?P<sign>[+-])?\s*"
    r"(?:(?P<rat>\d+(?:/\d+)?)(?:\s*\*\s*(?P<lam1>L(?:\^(?P<p1>\d+))?))?"
    r"|(?P<lam2>L(?:\^(?P<p2>\d+))?))"
)


def parse_rational(s: str) -> Fraction:
    return Fraction(s.strip())


def parse_coefficient(s: str) -> Coefficient:
    """Parse the coefficient grammar; inverse of :func:`format_coefficient`."""
    s = s.strip()
    if not s:
        raise ValueError("empty coefficient string")
    pos = 0
    coeffs: dict[int, Rat] = {}
    first = True
    while pos < len(s):
        m = _TERM_RE.match(s, pos)
        if not m:
            raise ValueError(f"bad coefficient syntax at {s[pos:]!r}")
        sign = m.group("sign")
        if sign is None and not first:
            raise ValueError(f"missing +/- between terms in {s!r}")
        sgn = -1 if sign == "-" else 1
        if m.group("rat") is not None:
            val = Fraction(m.group("rat"))
            if m.group("lam1") is not None:
                power = int(m.group("p1") or 1)
            else:
                power = 0
        else:
            val = Fraction(1)
            power = int(m.group("p2") or 1)
        coeffs[power] = coeffs.get(power, 0) + sgn * val
        pos = m.end()
        first = False
    return Coefficient(coeffs)


def _format_term(power: int, v: Rat, leading: bool) -> str:
    neg = v < 0
    av = -v if neg else v
    if power == 0:
        body = str(av)
    elif av == 1:
        body = "L" if power == 1 else f"L^{power}"
    else:
        body = f"{av}*L" if power == 1 else f"{av}*L^{power}"
    if leading:
        return ("-" if neg else "") + body
    return (" - " if neg else " + ") + body


def format_coefficient(c: Coefficient) -> str:
    """Canonical rendering: terms by descending power of L."""
    if c.is_zero():
        return "0"
    parts = []
    for i, power in enumerate(sorted(c._c, reverse=True)):
        parts.append(_format_term(power, c._c[power], i == 0))
    return "".join(parts)


# ---------------------------------------------------------------------------
# Koszul signs
# ---------------------------------------------------------------------------

def perm_sign(perm: Sequence[int]) -> int:
    """Signature of a permutation given in one-line form (0-based values)."""
    n = len(perm)
    inv = 0
    for a in range(n):
        pa = perm[a]
        for b in range(a + 1, n):
            if pa > perm[b]:
                inv += 1
    return -1 if inv % 2 else 1


def koszul_sign(degrees: Sequence[int], perm: Sequence[int]) -> int:
    """Koszul sign of reordering graded factors.

    ``perm`` in one-line form: position ``i`` of the reordered tuple holds the
    original factor ``perm[i]``.  Swapping adjacent factors of degrees p, q
    contributes (-1)**(p*q).
    """
    if len(degrees) != len(perm):
        raise ValueError("degrees/permutation size mismatch")
    n = len(perm)
    exp = 0
    for a in range(n):
        pa = perm[a]
        da = degrees[pa]
        if da % 2 == 0:
            continue
        for b in range(a + 1, n):
            pb = perm[b]
            if pa > pb and degrees[pb] % 2:
                exp += 1
    return -1 if exp % 2 else 1


def chi_sign(degrees: Sequence[int], perm: Sequence[int]) -> int:
    """chi = sgn(perm) * koszul_sign."""
    return perm_sign(perm) * koszul_sign(degrees, perm)


def shuffles(i: int, j: int) -> Iterable[tuple[int, ...]]:
    """All (i, j)-shuffles of {0,...,i+j-1} in one-line form."""
    n = i + j
    for first in itertools.combinations(range(n), i):
        rest = tuple(k for k in range(n) if k not in first)
        yield first + rest
