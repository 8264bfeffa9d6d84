"""Gather-form cochain differentials, an oracle for `operad_forge.cochain`.

`GatherComplexes` computes each differential key by key: for every output
basis tuple it evaluates the cochain at unit vectors through `eval_table`,
exactly as the formulas are displayed.  `CochainComplexes` evaluates the
same formulas entry by entry (push form); the tests compare the two on
seeded tables, and `da_matrix` of this class is the gather-form matrix.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Sequence

from operad_forge.algebras import (
    DifBimoduleData,
    Vec,
    add_vec,
    scale_vec,
    vec_is_zero,
    zero_vec,
)
from operad_forge.cochain import CochainComplexes, DaCochain, Table


def table_add(a: Table, b: Table, dim: int) -> Table:
    out = dict(a)
    for k, v in b.items():
        w = add_vec(out.get(k, zero_vec(dim)), v)
        if vec_is_zero(w):
            out.pop(k, None)
        else:
            out[k] = w
    return out


def table_scale(c, a: Table) -> Table:
    c = Fraction(c)
    if c == 0:
        return {}
    return {k: scale_vec(c, v) for k, v in a.items()}


def eval_table(table: Table, args: Sequence[Vec], dim_m: int) -> Vec:
    """Multilinear evaluation of a basis-tuple table at coordinate vectors."""
    if not table:
        return zero_vec(dim_m)
    out = zero_vec(dim_m)
    for key, val in table.items():
        c = Fraction(1)
        for pos, i in enumerate(key):
            c *= args[pos][i]
            if c == 0:
                break
        if c != 0:
            out = add_vec(out, scale_vec(c, val))
    return out


class GatherComplexes(CochainComplexes):
    """The three differentials evaluated at every output key."""

    def _gather_hochschild(self, n: int, f: Table,
                           bim: DifBimoduleData) -> Table:
        alg = self.alg
        dim_a, dim_m = alg.dim, bim.dim
        out: Table = {}
        for key in itertools.product(range(dim_a), repeat=n + 1):
            args = [alg.unit_vec(i) for i in key]
            acc = zero_vec(dim_m)
            v = eval_table(f, args[1:], dim_m)
            sign = -1 if (n + 1) % 2 else 1
            acc = add_vec(acc, scale_vec(sign, bim.act_left(args[0], v)))
            for i in range(1, n + 1):
                inner = args[: i - 1] + [alg.product(args[i - 1], args[i])] + \
                    args[i + 1:]
                v = eval_table(f, inner, dim_m)
                sign = -1 if (n + 1 - i) % 2 else 1
                acc = add_vec(acc, scale_vec(sign, v))
            v = eval_table(f, args[:-1], dim_m)
            acc = add_vec(acc, bim.act_right(v, args[-1]))
            if not vec_is_zero(acc):
                out[key] = acc
        return out

    def hochschild_diff(self, n: int, f: Table) -> Table:
        return self._gather_hochschild(n, f, self.bim)

    def do_diff(self, n: int, g: Table) -> Table:
        return self._gather_hochschild(n, g, self.vdash_bim)

    def phi(self, n: int, f: Table) -> Table:
        """Phi(f)(a_1..a_n) = sum_k L^{k-1} sum_{i_1<..<i_k}
        f(.. d(a_{i_t}) ..) - d_M(f(a_1..a_n))."""
        alg, bim = self.alg, self.bim
        dim_a, dim_m = alg.dim, bim.dim
        lam = alg.lam
        out: Table = {}
        for key in itertools.product(range(dim_a), repeat=n):
            args = [alg.unit_vec(i) for i in key]
            acc = scale_vec(-1, bim.apply_d(eval_table(f, args, dim_m)))
            for k in range(1, n + 1):
                lam_pow = lam ** (k - 1)
                if lam_pow == 0 and k > 1:
                    continue
                for subset in itertools.combinations(range(n), k):
                    inner = list(args)
                    for pos in subset:
                        inner[pos] = alg.apply_d(inner[pos])
                    v = eval_table(f, inner, dim_m)
                    acc = add_vec(acc, scale_vec(lam_pow, v))
            if not vec_is_zero(acc):
                out[key] = acc
        return out

    def da_diff(self, x: DaCochain) -> DaCochain:
        n = x.level
        new_f = self.hochschild_diff(n, x.f)
        new_g = table_scale(-1, self.phi(n, x.f))
        if x.g is not None:
            new_g = table_add(new_g,
                              table_scale(-1, self.do_diff(n - 1, x.g)),
                              self.bim.dim)
        return DaCochain(n + 1, new_f, new_g)
