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
from typing import Sequence

from .coeffs import Coefficient, chi_sign
from .hom_complex import (GradedSpace, MapFamily, MultiMap, compose_at,
                          desuspend_target, sum_maps, suspend_target)
from .koszul_dual import CoopGenerator, TypeI, TypeII, delta
from .linf import ALG, DO, CdaElement


class ConvElement(MapFamily):
    """Values in Hom((sV)^n, sV) keyed by cooperad generator: at the
    degree-0 (mt) and degree-1 (dt) generators of each arity."""

    __slots__ = ()

    def degree(self) -> int:
        degs = {mm.degree - c.degree for c, mm in self.parts.items()}
        if len(degs) != 1:
            raise ValueError(f"not homogeneous: {degs}")
        return next(iter(degs))


def from_cda(x: CdaElement) -> ConvElement:
    """The dictionary f -> hat f, g -> (-1)^|g| s g."""
    parts: dict[CoopGenerator, MultiMap] = {}
    for (n, flag), mm in x.parts.items():
        if flag == ALG:
            parts[CoopGenerator("mt", n)] = mm
        else:
            sg = suspend_target(mm)
            parts[CoopGenerator("dt", n)] = sg if mm.degree % 2 == 0 else -sg
    return ConvElement(x.space, parts)


def to_cda(x: ConvElement) -> CdaElement:
    parts = {}
    for c, mm in x.parts.items():
        if c.kind == "mt":
            parts[(c.arity, ALG)] = mm
        else:
            g = desuspend_target(mm)
            parts[(c.arity, DO)] = g if g.degree % 2 == 0 else -g
    return CdaElement(x.space, parts)


def _arities(f: ConvElement, kind: str) -> list[int]:
    return sorted(c.arity for c in f.parts if c.kind == kind)


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
        arities0 = sorted({c.arity for c in fs[0].parts})
        arities1 = sorted({c.arity for c in fs[1].parts})
        for a0, a1 in itertools.product(arities0, arities1):
            n = a0 + a1 - 1
            for i in range(1, a0 + 1):
                shape = TypeI(n, a1, i)
                yield CoopGenerator("mt", n), shape
                yield CoopGenerator("dt", n), shape
        return
    # weight >= 3: only (mt_p; dt_l1, ..., dt_lq) decorations occur
    q = r - 1
    for p in _arities(fs[0], "mt"):
        if q > p:
            continue
        ls_options = [_arities(f, "dt") for f in fs[1:]]
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
    terms = []
    for target, shape in _shapes_with_targets(fs):
        key = (target, shape)
        if key in seen:
            continue
        seen.add(key)
        for coeff, decs in delta(target, shape, lam):
            values = []
            dead = False
            for f, c in zip(fs, decs):
                v = f.parts.get(c)
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
            terms.append((coeff if exp % 2 == 0 else -coeff,
                          {target: _compose_along_shape(shape, values)}))
    return ConvElement(space, sum_maps(terms))


def conv_ell(space: GradedSpace, lam: Coefficient,
             fs: Sequence[ConvElement]) -> ConvElement:
    """Antisymmetrization of conv_m over all permutations of the inputs."""
    n = len(fs)
    degs = [f.degree() for f in fs]
    return ConvElement.sum(space, [
        (chi_sign(degs, sigma), conv_m(space, lam, [fs[s] for s in sigma]))
        for sigma in itertools.permutations(range(n))])
