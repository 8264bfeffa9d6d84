"""Convolution route to the deformation brackets.

An element here assigns to each arity a pair of suspended-endomorphism
values: one at the degree-0 cooperad generator, one at the degree-1 one.
The weight-n operation is

    m_T(F_1 .. F_r)(c) = (-1)^(r(r-1)/2 + 1 + r sum|F_i|)
                         compose_along_T( F_1(c_1), ..., F_r(c_r) )

summed over the decomposition summands c_1 .. c_r of c over trees T of
weight r (with the Koszul sign of evaluating the F tensor on the c tensor),
then antisymmetrized into ell_n.  Composition along a tree grafts the
values in planar order, which realizes the peel-off-the-last-vertex
recursion without extra signs.

The point of this module is the cross-check that ell_n agrees exactly with
the directly defined deformation brackets under f |-> value at the
degree-0 generator, g |-> (-1)^|g| s o g at the degree-1 one.
"""

from __future__ import annotations

import itertools
from typing import Optional, Sequence

from .coeffs import Coefficient, chi_sign
from .hom_complex import (GradedSpace, MultiMap, compose_at, sum_maps,
                          suspend_target)
from .koszul_dual import CoopGenerator, TypeI, TypeII, delta
from .linf import ALG, DO, CdaElement


class ConvElement:
    """Per arity: values at the degree-0 (mt) and degree-1 (dt) generators,
    both in Hom((sV)^n, sV)."""

    __slots__ = ("space", "at_mt", "at_dt")

    def __init__(self, space: GradedSpace,
                 at_mt: Optional[dict[int, MultiMap]] = None,
                 at_dt: Optional[dict[int, MultiMap]] = None):
        self.space = space
        self.at_mt = {n: mm for n, mm in (at_mt or {}).items()
                      if not mm.is_zero()}
        self.at_dt = {n: mm for n, mm in (at_dt or {}).items()
                      if not mm.is_zero()}

    def is_zero(self) -> bool:
        return not self.at_mt and not self.at_dt

    def degree(self) -> int:
        degs = {mm.degree for mm in self.at_mt.values()}
        degs |= {mm.degree - 1 for mm in self.at_dt.values()}
        if len(degs) != 1:
            raise ValueError(f"not homogeneous: {degs}")
        return next(iter(degs))

    def value(self, c: CoopGenerator) -> Optional[MultiMap]:
        store = self.at_mt if c.kind == "mt" else self.at_dt
        return store.get(c.arity)

    @staticmethod
    def sum(space: GradedSpace, pairs: Sequence[tuple]) -> "ConvElement":
        """sum of c * x over (c, x) pairs."""
        return ConvElement(space,
                           sum_maps((c, x.at_mt) for c, x in pairs),
                           sum_maps((c, x.at_dt) for c, x in pairs))

    def __add__(self, other: "ConvElement") -> "ConvElement":
        return ConvElement.sum(self.space, [(1, self), (1, other)])

    def scale(self, c) -> "ConvElement":
        return ConvElement(self.space,
                           {n: mm.scale(c) for n, mm in self.at_mt.items()},
                           {n: mm.scale(c) for n, mm in self.at_dt.items()})

    def __eq__(self, other):
        return (isinstance(other, ConvElement) and self.at_mt == other.at_mt
                and self.at_dt == other.at_dt)


def from_cda(x: CdaElement) -> ConvElement:
    """The dictionary f -> hat f, g -> (-1)^|g| s g."""
    at_mt: dict[int, MultiMap] = {}
    at_dt: dict[int, MultiMap] = {}
    for (n, flag), mm in x.parts.items():
        if flag == ALG:
            at_mt[n] = mm
        else:
            sg = suspend_target(mm)
            at_dt[n] = sg if mm.degree % 2 == 0 else -sg
    return ConvElement(x.space, at_mt, at_dt)


def to_cda(x: ConvElement) -> CdaElement:
    from .hom_complex import desuspend_target

    parts = {}
    for n, mm in x.at_mt.items():
        parts[(n, ALG)] = mm
    for n, mm in x.at_dt.items():
        g = desuspend_target(mm)
        parts[(n, DO)] = g if g.degree % 2 == 0 else -g
    return CdaElement(x.space, parts)


def _compose_along_shape(shape, values: Sequence[MultiMap]) -> MultiMap:
    """Composition in the endomorphism operad along the shape's tree, the
    values listed in planar order (root, then upper vertices left to
    right)."""
    acc = values[0]
    if isinstance(shape, TypeI):
        return compose_at(acc, shape.i, values[1])
    shift = 0
    for t, (k, l) in enumerate(zip(shape.ks, shape.ls)):
        acc = compose_at(acc, k + shift, values[1 + t])
        shift += l - 1
    return acc


def _shapes_with_targets(fs: Sequence[ConvElement]):
    """Candidate (target generator, shape) pairs supported by the inputs.

    Over-approximation is harmless (unsupported decorations contribute
    nothing); candidates are driven by the arity support of the inputs.
    """
    r = len(fs)
    if r == 2:
        arities0 = set(fs[0].at_mt) | set(fs[0].at_dt)
        arities1 = set(fs[1].at_mt) | set(fs[1].at_dt)
        for a0, a1 in itertools.product(sorted(arities0), sorted(arities1)):
            n = a0 + a1 - 1
            for i in range(1, a0 + 1):
                shape = TypeI(n, a1, i)
                yield CoopGenerator("mt", n), shape
                yield CoopGenerator("dt", n), shape
        return
    # weight >= 3: only (mt_p; dt_l1, ..., dt_lq) decorations occur
    q = r - 1
    for p in fs[0].at_mt:
        if q > p:
            continue
        ls_options = [sorted(f.at_dt) for f in fs[1:]]
        for ls in itertools.product(*ls_options):
            n = sum(ls) + p - q
            for ks in itertools.combinations(range(1, p + 1), q):
                yield CoopGenerator("dt", n), TypeII(p, ks, tuple(ls))


def conv_m(space: GradedSpace, lam: Coefficient,
           fs: Sequence[ConvElement]) -> ConvElement:
    """The weight-r operation m_r = sum over trees of weight r."""
    r = len(fs)
    out = ConvElement(space)
    if r < 2 or any(f.is_zero() for f in fs):
        return out
    fdegs = [f.degree() for f in fs]
    global_exp = (r * (r - 1)) // 2 + 1 + r * sum(fdegs)
    seen = set()
    terms: dict[str, list] = {"mt": [], "dt": []}
    for target, shape in _shapes_with_targets(fs):
        key = (target, shape)
        if key in seen:
            continue
        seen.add(key)
        for coeff, decs in delta(target, shape, lam):
            values = []
            dead = False
            for f, c in zip(fs, decs):
                v = f.value(c)
                if v is None:
                    dead = True
                    break
                values.append(v)
            if dead:
                continue
            # Koszul sign of evaluating (F_1 .. F_r) on (c_1 .. c_r)
            exp = global_exp
            for i in range(r):
                if decs[i].degree % 2:
                    exp += sum(fdegs[i + 1:])
            terms[target.kind].append(
                (coeff if exp % 2 == 0 else -coeff,
                 {target.arity: _compose_along_shape(shape, values)}))
    return ConvElement(space, sum_maps(terms["mt"]), sum_maps(terms["dt"]))


def conv_ell(space: GradedSpace, lam: Coefficient,
             fs: Sequence[ConvElement]) -> ConvElement:
    """Antisymmetrization of conv_m over all permutations of the inputs."""
    n = len(fs)
    degs = [f.degree() for f in fs]
    return ConvElement.sum(space, [
        (chi_sign(degs, sigma), conv_m(space, lam, [fs[s] for s in sigma]))
        for sigma in itertools.permutations(range(n))])
