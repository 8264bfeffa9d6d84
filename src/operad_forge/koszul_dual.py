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
are verified here.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Literal, Sequence, Union

from .coeffs import Coefficient, LAMBDA, add_into, sign_coeff
from .dif_operads import Difinfty, compositions, d_gen, m_gen
from .free_operad import OperadElement, TreeMonomial
from .trees import Generator, gen_id

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


def shapes_for_arity(n: int) -> Iterator[TreeShape]:
    for j in range(1, n + 1):
        for i in range(1, n - j + 2):
            yield TypeI(n, j, i)
    for p in range(2, n + 1):
        for q in range(2, p + 1):
            rest = n - p + q
            if rest < q:
                continue
            for ks in itertools.combinations(range(1, p + 1), q):
                for ls in compositions(rest, q):
                    yield TypeII(p, ks, ls)


def delta(c: CoopGenerator, shape: TreeShape,
          lam: Coefficient = LAMBDA) -> list[tuple[Coefficient, tuple[CoopGenerator, ...]]]:
    """Value of the decomposition map at `c` over the given tree shape.

    Each summand is (coefficient, decorations in planar order: root first,
    then upper vertices left to right).  The empty list encodes zero.
    """
    n = c.arity
    if isinstance(shape, TypeI):
        if shape.n != n:
            raise ValueError("shape arity mismatch")
        j, i = shape.j, shape.i
        if c.kind == "mt":
            return [(Coefficient.one(),
                     (CoopGenerator("mt", n - j + 1), CoopGenerator("mt", j)))]
        if c.kind == "dt":
            return [
                (Coefficient.one(),
                 (CoopGenerator("dt", n - j + 1), CoopGenerator("mt", j))),
                (Coefficient.one(),
                 (CoopGenerator("mt", n - j + 1), CoopGenerator("dt", j))),
            ]
        if c.kind == "sm":
            s = sign_coeff((j - 1) * (n - i - j + 1))
            return [(s, (CoopGenerator("sm", n - j + 1), CoopGenerator("sm", j)))]
        if c.kind == "sd":
            s1 = sign_coeff((j - 1) * (n - j - i + 1))
            s2 = sign_coeff((j - 1) * (n - i - j + 1) + n - j)
            return [
                (s1, (CoopGenerator("sd", n - j + 1), CoopGenerator("sm", j))),
                (s2, (CoopGenerator("sm", n - j + 1), CoopGenerator("sd", j))),
            ]
        raise ValueError(f"unknown kind {c.kind}")
    if isinstance(shape, TypeII):
        if shape.n != n:
            raise ValueError("shape arity mismatch")
        if c.kind not in ("dt", "sd"):
            return []
        p, ks, ls = shape.p, shape.ks, shape.ls
        q = len(ks)
        lam_q = Coefficient.one()
        for _ in range(q - 1):
            lam_q = lam_q * lam
        if c.kind == "dt":
            coeff = lam_q * sign_coeff(q * (q - 1) // 2)
            decs = (CoopGenerator("mt", p),) + tuple(
                CoopGenerator("dt", l) for l in ls)
            return [(coeff, decs)]
        alpha = (
            sum((ls[s] - 1) * (p - ks[s]) for s in range(q))
            + q * (p - 1)
            + sum((q - t) * ls[t - 1] for t in range(1, q))
        )
        coeff = lam_q * sign_coeff(alpha)
        decs = (CoopGenerator("sm", p),) + tuple(
            CoopGenerator("sd", l) for l in ls)
        return [(coeff, decs)]
    raise TypeError("unknown shape")


def delta_table(c: CoopGenerator, lam: Coefficient = LAMBDA):
    """All nonzero decompositions of `c`: (shape, coefficient, decorations)."""
    out = []
    for shape in shapes_for_arity(c.arity):
        for coeff, decs in delta(c, shape, lam):
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


def _desuspended(c: CoopGenerator) -> Generator:
    if c.kind == "sm":
        return m_gen(c.arity)
    if c.kind == "sd":
        return d_gen(c.arity)
    if c.kind == "mt":
        return mu_gen(c.arity)
    if c.kind == "dt":
        return nu_gen(c.arity)
    raise ValueError(c.kind)


def _is_counit(c: CoopGenerator) -> bool:
    return c.arity == 1 and c.kind in ("mt", "sm")


def _shape_monomial(shape: TreeShape, gens: Sequence[Generator]) -> TreeMonomial:
    """The shape's tree decorated by gens: the root's word with the upper
    corolla words spliced into its leaves (the cobar sign is paid apart)."""
    ks = (shape.i,) if isinstance(shape, TypeI) else shape.ks
    word = [gen_id(gens[0])] + [0] * gens[0].arity
    for k, g in reversed(list(zip(ks, gens[1:]))):
        word[k:k + 1] = [gen_id(g)] + [0] * g.arity
    return TreeMonomial.from_word(tuple(word), word.count(0),
                                  sum(g.degree for g in gens), len(gens))


def cobar_differential(c: CoopGenerator, lam: Coefficient = LAMBDA) -> OperadElement:
    """Differential of the cobar construction on the desuspended generator.

    diff(s^-1 c) = - sum over trees of (s^-1 tensor ... tensor s^-1) o
    Delta_T(c), restricted to the counit-free part; the desuspension factors
    contribute the Koszul sign (-1)**(sum_{i<r} (r-i) deg c_i).
    """
    if _is_counit(c):
        raise ValueError("the counit is not a cobar generator")
    acc: dict[TreeMonomial, Coefficient] = {}
    for shape, coeff, decs in delta_table(c, lam):
        if any(_is_counit(x) for x in decs):
            continue
        r = len(decs)
        exp = sum((r - pos) * decs[pos - 1].degree for pos in range(1, r))
        mono = _shape_monomial(shape, [_desuspended(x) for x in decs])
        add_into(acc, mono, coeff * sign_coeff(exp + 1))
    return OperadElement(acc)


def cross_check_cobar(max_arity: int, lam: Coefficient = LAMBDA
                      ) -> list[tuple[str, OperadElement]]:
    """Difference between the cobar differential of the Koszul dual and the
    explicit Difinfty differential, per generator; empty means agreement."""
    op = Difinfty(lam)
    mismatches = []
    for n in range(1, max_arity + 1):
        if n >= 2:
            lhs = cobar_differential(CoopGenerator("sm", n), lam)
            diff = lhs - op.diff(m_gen(n))
            if not diff.is_zero():
                mismatches.append((f"m{n}", diff))
        lhs = cobar_differential(CoopGenerator("sd", n), lam)
        diff = lhs - op.diff(d_gen(n))
        if not diff.is_zero():
            mismatches.append((f"d{n}", diff))
    return mismatches


def sdif_cobar_d_square(max_arity: int, lam: Coefficient = LAMBDA
                        ) -> list[tuple[str, OperadElement]]:
    """diff o diff on the cobar generators of the degree-(0,1) table; a
    nonempty result would refute the homotopy-cooperad property."""
    from .free_operad import extend_derivation

    images: dict[Generator, OperadElement] = {}
    for n in range(1, max_arity + 1):
        if n >= 2:
            images[mu_gen(n)] = cobar_differential(CoopGenerator("mt", n), lam)
        images[nu_gen(n)] = cobar_differential(CoopGenerator("dt", n), lam)

    def diff_elem(x: OperadElement) -> OperadElement:
        return extend_derivation(images, x)

    bad = []
    for gen, img in list(images.items()):
        needed = {g for t in img.terms for g in t.gens}
        if not needed.issubset(images):
            raise ValueError("increase max_arity")
        residual = diff_elem(img)
        if not residual.is_zero():
            bad.append((gen.symbol, residual))
    return bad
