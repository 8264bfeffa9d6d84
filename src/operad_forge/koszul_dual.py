"""Decomposition tables of the two homotopy cooperads dual to the weighted
differential-algebra operad, and their cobar constructions.

Both cooperads live on two generators per arity.  In the suspended table
("sdif") they are mt_n (degree 0) and dt_n (degree 1); in the Koszul dual
proper ("difk") they are sm_n (degree n-1) and sd_n (degree n).  Nonzero
decompositions are supported on two families of trees:

* type I: two vertices, the upper one of arity j grafted at input i of the
  root of arity n-j+1;
* type II: a root of arity p with q >= 2 upper vertices of arities
  l_1..l_q at inputs k_1 < ... < k_q, with l_1+...+l_q+p-q = n.

The cobar differential of "difk" reproduces the Difinfty differential under
sm_n -> m_n, sd_n -> d_n; that of "sdif" squares to zero on generators.
Both facts are machine-checked, which is how the homotopy-cooperad axioms
are verified here, on raw cells summed from `delta_table` (`cobar_cells`).
The decorations are interned (`coop_gen`, as `m_gen` and `d_gen` are),
`delta_table` takes each power of L once for all its shapes, and
`cobar_cells` writes each tree's cells straight into its accumulator.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Literal, Optional, Union

from .coeffs import Coefficient, LAMBDA, Rat, compositions, sign_coeff
from .dif_operads import Difinfty, alphabet, d_gen, m_gen
from .free_operad import (OperadElement, add_cells, d_square_residuals,
                          image_terms)
from .trees import Generator, gen_id, two_level_word

Kind = Literal["mt", "dt", "sm", "sd"]

_DEGREES = {
    "mt": lambda n: 0,
    "dt": lambda n: 1,
    "sm": lambda n: n - 1,
    "sd": lambda n: n,
}


@dataclass(frozen=True)
class CoopGenerator:
    kind: Kind
    arity: int

    @property
    def degree(self) -> int:
        return _DEGREES[self.kind](self.arity)

    def __repr__(self):
        return f"{self.kind}{self.arity}"


@dataclass(frozen=True)
class TypeI:
    """Weight-2 tree: upper arity j at input i of a root of arity n-j+1."""

    n: int
    j: int
    i: int

    def __post_init__(self):
        if not (1 <= self.j <= self.n and 1 <= self.i <= self.n - self.j + 1):
            raise ValueError("invalid two-vertex shape parameters")

    @property
    def weight(self) -> int:
        return 2


@dataclass(frozen=True)
class TypeII:
    """Root of arity p, upper arities ls at the increasing inputs ks."""

    p: int
    ks: tuple[int, ...]
    ls: tuple[int, ...]

    def __post_init__(self):
        q = len(self.ks)
        if q < 2 or len(self.ls) != q:
            raise ValueError("type II shapes need q >= 2 upper vertices")
        if not all(1 <= k <= self.p for k in self.ks):
            raise ValueError("attachment slot out of range")
        if list(self.ks) != sorted(set(self.ks)):
            raise ValueError("attachment slots must be strictly increasing")
        if any(l < 1 for l in self.ls):
            raise ValueError("upper arities must be >= 1")
        if not (2 <= q <= self.p):
            raise ValueError("need 2 <= q <= p")

    @property
    def n(self) -> int:
        return sum(self.ls) + self.p - len(self.ks)

    @property
    def weight(self) -> int:
        return 1 + len(self.ks)


TreeShape = Union[TypeI, TypeII]


@lru_cache(maxsize=None)
def shapes_for_arity(n: int) -> tuple[TreeShape, ...]:
    """The shapes of arity n, built and validated once and shared."""
    out: list[TreeShape] = [TypeI(n, j, i) for j in range(1, n + 1)
                            for i in range(1, n - j + 2)]
    for p in range(2, n + 1):
        for q in range(2, p + 1):
            rest = n - p + q
            if rest < q:
                continue
            for ks in itertools.combinations(range(1, p + 1), q):
                out.extend(TypeII(p, ks, ls) for ls in compositions(rest, q))
    return tuple(out)


@lru_cache(maxsize=None)
def coop_gen(kind: Kind, n: int) -> CoopGenerator:
    """The interned generator of the given kind and arity."""
    return CoopGenerator(kind, n)


def delta(c: CoopGenerator, shape: TreeShape,
          lam: Coefficient = LAMBDA) -> list[tuple[Coefficient, tuple[CoopGenerator, ...]]]:
    """Value of the decomposition map at `c` over the given tree shape.

    Each summand is (coefficient, decorations in planar order: root first,
    then upper vertices left to right).  The empty list encodes zero.
    """
    power = (lam ** (len(shape.ks) - 1) if isinstance(shape, TypeII)
             else Coefficient.one())
    return _delta(c, shape, (power, -power))


def _delta(c: CoopGenerator, shape: TreeShape, power: tuple
           ) -> list[tuple[Coefficient, tuple[CoopGenerator, ...]]]:
    """`delta`, given ``power`` = (L**(q-1), -L**(q-1)) for a type II
    shape with q upper vertices."""
    n = c.arity
    if isinstance(shape, TypeI):
        if shape.n != n:
            raise ValueError("shape arity mismatch")
        j, i = shape.j, shape.i
        one = Coefficient.one()
        if c.kind == "mt":
            return [(one, (coop_gen("mt", n - j + 1), coop_gen("mt", j)))]
        if c.kind == "dt":
            return [
                (one, (coop_gen("dt", n - j + 1), coop_gen("mt", j))),
                (one, (coop_gen("mt", n - j + 1), coop_gen("dt", j))),
            ]
        if c.kind == "sm":
            s = sign_coeff((j - 1) * (n - i - j + 1))
            return [(s, (coop_gen("sm", n - j + 1), coop_gen("sm", j)))]
        if c.kind == "sd":
            s1 = sign_coeff((j - 1) * (n - j - i + 1))
            s2 = sign_coeff((j - 1) * (n - i - j + 1) + n - j)
            return [
                (s1, (coop_gen("sd", n - j + 1), coop_gen("sm", j))),
                (s2, (coop_gen("sm", n - j + 1), coop_gen("sd", j))),
            ]
        raise ValueError(f"unknown kind {c.kind}")
    if isinstance(shape, TypeII):
        if shape.n != n:
            raise ValueError("shape arity mismatch")
        if c.kind not in ("dt", "sd"):
            return []
        p, ks, ls = shape.p, shape.ks, shape.ls
        q = len(ks)
        if c.kind == "dt":
            decs = (coop_gen("mt", p),) + tuple(coop_gen("dt", l) for l in ls)
            return [(power[q * (q - 1) // 2 & 1], decs)]
        alpha = (
            sum((ls[s] - 1) * (p - ks[s]) for s in range(q))
            + q * (p - 1)
            + sum((q - t) * ls[t - 1] for t in range(1, q))
        )
        decs = (coop_gen("sm", p),) + tuple(coop_gen("sd", l) for l in ls)
        return [(power[alpha & 1], decs)]
    raise TypeError("unknown shape")


def delta_table(c: CoopGenerator, lam: Coefficient = LAMBDA):
    """All nonzero decompositions of `c`: (shape, coefficient, decorations),
    each power of L taken once."""
    powers = [Coefficient.one()]
    for _ in range(1, c.arity):
        powers.append(powers[-1] * lam)
    signed = [(x, -x) for x in powers]
    out = []
    for shape in shapes_for_arity(c.arity):
        q = len(shape.ks) if isinstance(shape, TypeII) else 1
        for coeff, decs in _delta(c, shape, signed[q - 1]):
            if not coeff.is_zero():
                out.append((shape, coeff, decs))
    return out


# ---------------------------------------------------------------------------
# Cobar construction
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def mu_gen(n: int) -> Generator:
    if n < 2:
        raise ValueError("mu_n requires n >= 2")
    return Generator(f"mu{n}", n, -1)


@lru_cache(maxsize=None)
def nu_gen(n: int) -> Generator:
    if n < 1:
        raise ValueError("nu_n requires n >= 1")
    return Generator(f"nu{n}", n, 0)


_DESUSPENSIONS = {"sm": m_gen, "sd": d_gen, "mt": mu_gen, "dt": nu_gen}


@lru_cache(maxsize=None)
def _desuspended(kind: Kind, n: int) -> Optional[Generator]:
    """s^-1 of the cooperad generator of the given kind and arity, whose
    degree is one less; None for the counit."""
    if kind not in _DESUSPENSIONS:
        raise ValueError(kind)
    return None if n == 1 and kind in ("mt", "sm") else \
        _DESUSPENSIONS[kind](n)


def cobar_cells(c: CoopGenerator, lam: Coefficient = LAMBDA
                ) -> dict[tuple, Rat]:
    """`cobar_differential` as raw cells {(word, power of L): rational},
    each tree's word the root's with the upper corollas grafted in."""
    if _desuspended(c.kind, c.arity) is None:
        raise ValueError("the counit is not a cobar generator")
    acc: dict[tuple, Rat] = {}
    for shape, coeff, decs in delta_table(c, lam):
        gens = [_desuspended(x.kind, x.arity) for x in decs]
        if None in gens:
            continue
        r = len(gens)
        # the Koszul sign of the desuspensions, deg c_i = deg s^-1 c_i + 1
        exp = sum((r - pos) * (gens[pos - 1].degree + 1)
                  for pos in range(1, r))
        ks = (shape.i,) if isinstance(shape, TypeI) else shape.ks
        word = two_level_word(gens[0], zip(ks, gens[1:]))
        for e, v in coeff.items():
            acc[word, e] = acc.get((word, e), 0) + (v if exp & 1 else -v)
    return acc


def cobar_differential(c: CoopGenerator, lam: Coefficient = LAMBDA) -> OperadElement:
    """Differential of the cobar construction on the desuspended generator.

    diff(s^-1 c) = - sum over trees of (s^-1 tensor ... tensor s^-1) o
    Delta_T(c), restricted to the counit-free part; the desuspension factors
    contribute the Koszul sign (-1)**(sum_{i<r} (r-i) deg c_i).
    """
    return OperadElement.from_cells(cobar_cells(c, lam).items())


def cross_check_cobar(max_arity: int, lam: Coefficient = LAMBDA
                      ) -> list[tuple[str, OperadElement]]:
    """Difference between the cobar differential of the Koszul dual and the
    explicit Difinfty differential, per generator; empty means agreement.
    The cells of `Difinfty.diff` are subtracted from the cobar cells one by
    one."""
    op = Difinfty(lam)
    mismatches = []
    for gen in alphabet(max_arity):
        acc = cobar_cells(CoopGenerator("s" + gen.symbol[0], gen.arity), lam)
        add_cells(acc, op.diff(gen).terms.items(), ((0, -1),))
        diff = OperadElement.from_cells(acc.items())
        if not diff.is_zero():
            mismatches.append((gen.symbol, diff))
    return mismatches


def sdif_cobar_d_square(max_arity: int, lam: Coefficient = LAMBDA
                        ) -> list[tuple[str, OperadElement]]:
    """diff o diff on the cobar generators of the degree-(0,1) table; a
    nonempty result would refute the homotopy-cooperad property.  Each
    image is made once, for every generator's derivation."""
    diffs: dict[Generator, OperadElement] = {}
    for gen in alphabet(max_arity):     # mt_n, dt_n for m_n, d_n
        c = CoopGenerator(gen.symbol[0] + "t", gen.arity)
        diffs[_desuspended(c.kind, c.arity)] = cobar_differential(c, lam)
    if not {x for y in diffs.values() for w in y.terms for x in w} <= {
            0, *map(gen_id, diffs)}:
        raise ValueError("increase max_arity")
    images = {g: image_terms(y) for g, y in diffs.items()}
    return d_square_residuals(images.__getitem__, diffs)
