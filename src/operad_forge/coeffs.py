"""Exact coefficient arithmetic in Q[L] plus Koszul sign utilities.

``L`` is a formal weight variable.  Working over Q[L] keeps every identity
generic in the weight; fixing the weight amounts to specializing ``L`` to a
rational number, which :func:`Coefficient.specialize` does exactly.

The multilinear map tables of `hom_complex` and the operad elements of
`free_operad` hold raw cells, plain dicts {power of L: rational}
(`raw_cell`); a `Coefficient` wraps one, for scalars and the values that
are read or printed.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

Rat = Union[int, Fraction]


def normalize(v: "Rat | str") -> Rat:
    """The exact scalar ``v``: an int where it is integral, else a Fraction.

    An int (not a bool), a Fraction or a rational string is accepted;
    anything else, a float included, is a ValueError.
    """
    if type(v) is int:
        return v
    if type(v) is Fraction:
        return v.numerator if v.denominator == 1 else v
    if isinstance(v, str):
        try:
            return normalize(Fraction(v))
        except ZeroDivisionError:
            pass
    raise ValueError(f"{v!r} is not an exact rational")


def raw_cell(c) -> "dict[int, Rat]":
    """The raw cell of ``c``, a Coefficient or a mapping {power of L:
    rational}: a fresh dict with every value in `normalize` form and no
    zero entry.  A negative power of L is a ValueError."""
    out: dict[int, Rat] = {}
    for e, v in c.items():
        v = normalize(v)
        if v:
            if e < 0:
                raise ValueError("negative power of L")
            out[int(e)] = v
    return out


# ---------------------------------------------------------------------------
# Sparse sums
# ---------------------------------------------------------------------------

def add_into(acc: dict, key, value) -> None:
    """acc[key] += value, removing the entry when the sum is zero.

    This is the one zero-dropping accumulator of the element types and of
    `Coefficient`; `hom_complex.Walk` drops the zeros of its raw cells
    when it hands out a table.  A dict value (a row, or a table of rows)
    is added entry by entry into a dict that ``acc`` owns, so ``acc``
    never shares a mutable value with an operand; any other value (a
    rational, a Coefficient, a MultiMap) is combined with ``+`` and tested
    for zero by its truth value.  ``acc`` itself must be a fresh dict:
    values handed out by a cache must never be accumulated into.
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


class Combination:
    """Addition, subtraction, negation and scaling of a sparse type, all
    from its one sum: ``_sum(pairs)`` is the sum of c * x over (c, x)
    pairs, c a Coefficient or a rational, and refuses operands it cannot
    add."""

    __slots__ = ()

    def __add__(self, other):
        return self._sum(((1, self), (1, other)))

    def __sub__(self, other):
        return self._sum(((1, self), (-1, other)))

    def __neg__(self):
        return self._sum(((-1, self),))

    def scale(self, c):
        """c * self; scaling by the constant 1 returns self."""
        return self if c == 1 or c == _ONE else self._sum(((c, self),))


class Coefficient(Combination):
    """Sparse polynomial in L over Q.

    Zero entries are never stored; the zero polynomial is the empty map.
    Instances are immutable and safe to share.
    """

    __slots__ = ("_c",)

    def __init__(self, coeffs: Mapping[int, Rat] | None = None):
        self._c = raw_cell(coeffs) if coeffs else {}

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

    def items(self):
        """The (power of L, rational) pairs, as a read-only view."""
        return self._c.items()

    def is_zero(self) -> bool:
        return not self._c

    def __bool__(self) -> bool:
        return bool(self._c)

    def _sum(self, pairs) -> "Coefficient":
        """sum of c * x over (c, x) pairs, every power added into one dict
        and normalized once."""
        acc: dict[int, Rat] = {}
        for c, x in pairs:
            if isinstance(c, Coefficient):
                c, x = 1, c * x
            for e, v in x._c.items():
                add_into(acc, e, c * v)
        out = Coefficient.__new__(Coefficient)
        out._c = {e: normalize(v) for e, v in acc.items()}
        return out

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
                c = {ea + eb: normalize(va * vb) for ea, va in a.items()}
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
        out._c = {e: normalize(v) for e, v in c.items()}
        return out

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Coefficient":
        """self**k for an int k >= 0."""
        if k < 0:
            raise ValueError("negative exponent of a Q[L] coefficient")
        out = _ONE
        for _ in range(k):
            out = out * self
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

    def constant_term(self) -> Rat:
        return self._c.get(0, 0)

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


def parse_weight(spec: "str | Rat") -> Coefficient:
    """The weight named by ``spec``: "generic" for L, else a rational that
    `normalize` accepts; anything else is a ValueError."""
    if spec == "generic":
        return LAMBDA
    return Coefficient.rational(normalize(spec))


def format_weight(lam: Coefficient) -> str:
    """Inverse of `parse_weight`; a weight that is neither L nor a constant
    has no spec, so it raises ValueError rather than lose its L terms."""
    if lam == LAMBDA:
        return "generic"
    if set(lam._c) - {0}:
        raise ValueError(f"weight {lam} is neither L nor a rational")
    return str(lam.constant_term())


def parse_coefficient(s: str) -> Coefficient:
    """Parse the coefficient grammar; inverse of :func:`format_coefficient`.
    A non-string or a zero denominator is a ValueError."""
    if not isinstance(s, str):
        raise ValueError(f"coefficient {s!r} is not a string")
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
            val = normalize(m.group("rat"))
            power = int(m.group("p1") or 1) if m.group("lam1") else 0
        else:
            val, power = 1, int(m.group("p2") or 1)
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


def compositions(total: int, parts: int) -> Iterable[tuple[int, ...]]:
    """Ordered tuples of `parts` positive integers summing to `total`."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        if total >= 1:
            yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def shuffles(i: int, j: int) -> Iterable[tuple[int, ...]]:
    """All (i, j)-shuffles of {0,...,i+j-1} in one-line form."""
    n = i + j
    for first in itertools.combinations(range(n), i):
        rest = tuple(k for k in range(n) if k not in first)
        yield first + rest
