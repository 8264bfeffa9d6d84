"""Homotopy differential algebras of weight L on finite graded spaces.

A structure is a pair of table families m_n: V^n -> V (degree n-2) and
d_n: V^n -> V (degree n-1) up to an arity bound.  Its defining identities,
per output arity n:

  stasheff:   sum_{i+j+k=n} (-1)^(i+jk) m_{i+1+k} o (1^i, m_j, 1^k) = 0

  weighted Leibniz:
    sum_{i+j+k=n} (-1)^(i+jk) d_{i+1+k} o (1^i, m_j, 1^k)
      = sum (-1)^eta L^(q-1) m_p o (1^{j_1}, d_{l_1}, ..., d_{l_q}, 1^{j_{q+1}})

with eta = sum_k (l_k-1)(q-k+sum_{r>k} j_r), summed over j_r >= 0,
l_t >= 1, l_1+..+l_q+j_1+..+j_{q+1} = n, j_1+..+j_{q+1}+q = p,
n >= p >= q >= 1.  Identities are arity-graded, so truncation at the bound
is exact per arity.

The suspended picture (b_n, R_n), both of degree -1, and the Maurer-Cartan
formulation in the reduced deformation space are provided for the
equivalence checks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterator, Optional

from .coeffs import Coefficient, LAMBDA, add_into
from .hom_complex import (
    GradedSpace,
    MultiMap,
    brace_terms,
    compose_sum,
    iso1_down,
    iso1_up,
    iso2_down,
    iso2_up,
    suspend_target,
)
from .linf import ALG, DO, CdaElement, mc_residual


@dataclass
class HdaStructure:
    space: GradedSpace
    lam: Coefficient
    bound: int
    m: dict[int, MultiMap] = field(default_factory=dict)
    d: dict[int, MultiMap] = field(default_factory=dict)

    def __post_init__(self):
        for n, mm in self.m.items():
            if mm.arity != n or (mm.table and mm.degree != n - 2):
                raise ValueError(f"m_{n} must have arity {n}, degree {n - 2}")
        for n, mm in self.d.items():
            if mm.arity != n or (mm.table and mm.degree != n - 1):
                raise ValueError(f"d_{n} must have arity {n}, degree {n - 1}")

    def m_at(self, n: int) -> Optional[MultiMap]:
        mm = self.m.get(n)
        return mm if mm is not None and not mm.is_zero() else None

    def d_at(self, n: int) -> Optional[MultiMap]:
        mm = self.d.get(n)
        return mm if mm is not None and not mm.is_zero() else None


def _insertion_terms(outers: Callable[[int], Optional[MultiMap]],
                     inners: Callable[[int], Optional[MultiMap]], n: int
                     ) -> list[tuple]:
    """The terms (-1)^(i+jk) outer_{i+1+k} o (1^i, inner_j, 1^k) of arity
    n, over the present (not None) maps."""
    terms = []
    for j in range(1, n + 1):
        inner, outer = inners(j), outers(n - j + 1)
        if inner is None or outer is None:
            continue
        for i in range(0, n - j + 1):
            k = n - j - i
            slots: list[Optional[MultiMap]] = [None] * (n - j + 1)
            slots[i] = inner
            terms.append((-1 if (i + j * k) % 2 else 1, outer, slots))
    return terms


def stasheff_residual(s: HdaStructure, n: int) -> MultiMap:
    return compose_sum(s.space, s.space, n, n - 3,
                       _insertion_terms(s.m_at, s.m_at, n))


def _leibniz_rhs_terms(n: int) -> Iterator[tuple[int, int, tuple, tuple]]:
    """(q, p, ls, js) with the constraints of the weighted Leibniz identity."""
    for q in range(1, n + 1):
        for p in range(q, n + 1):
            free = p - q          # j_1 + ... + j_{q+1}
            l_total = n - free
            if l_total < q:
                continue
            for js in _weak_compositions(free, q + 1):
                for ls in _positive_compositions(l_total, q):
                    yield q, p, ls, js


def _weak_compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _weak_compositions(total - first, parts - 1):
            yield (first,) + rest


def _positive_compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        if total >= 1:
            yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _positive_compositions(total - first, parts - 1):
            yield (first,) + rest


def eta_sign_exponent(ls: tuple[int, ...], js: tuple[int, ...]) -> int:
    """The simplified eta: sum_k (l_k-1)(q-k+sum_{r=k+1}^{q+1} j_r)."""
    q = len(ls)
    return sum((ls[k] - 1) * (q - (k + 1) + sum(js[k + 1:]))
               for k in range(q))


def eta_sign_exponent_long(n: int, p: int, ls: tuple[int, ...],
                           js: tuple[int, ...]) -> int:
    """The unsimplified eta, kept as an independent cross-check."""
    q = len(ls)
    out = n * (n - 1) // 2 + p * (p - 1) // 2
    out += sum(l * (l - 1) // 2 for l in ls)
    out += sum((ls[k] - 1) * (sum(js[: k + 1]) + sum(ls[:k]))
               for k in range(q))
    return out


def weighted_leibniz_residual(s: HdaStructure, n: int) -> MultiMap:
    terms = _insertion_terms(s.d_at, s.m_at, n)
    lam_pows = [Coefficient.one()]
    for _ in range(n):
        lam_pows.append(lam_pows[-1] * s.lam)
    for q, p, ls, js in _leibniz_rhs_terms(n):
        outer = s.m_at(p)
        if outer is None:
            continue
        inners = [s.d_at(l) for l in ls]
        if any(x is None for x in inners):
            continue
        slots: list[Optional[MultiMap]] = [None] * p
        pos = 0
        for t in range(q):
            pos += js[t]
            slots[pos] = inners[t]
            pos += 1
        coeff = lam_pows[q - 1]    # the right-hand side is subtracted
        terms.append((coeff if eta_sign_exponent(ls, js) % 2 else -coeff,
                      outer, slots))
    return compose_sum(s.space, s.space, n, n - 2, terms)


def check_identities(s: HdaStructure, max_arity: Optional[int] = None
                     ) -> list[tuple[str, int]]:
    """Names and arities of failing identities up to the bound."""
    bound = s.bound if max_arity is None else max_arity
    bad = []
    for n in range(1, bound + 1):
        if not stasheff_residual(s, n).is_zero():
            bad.append(("stasheff", n))
        if not weighted_leibniz_residual(s, n).is_zero():
            bad.append(("weighted_leibniz", n))
    return bad


# ---------------------------------------------------------------------------
# Suspended picture and Maurer-Cartan formulation
# ---------------------------------------------------------------------------

def to_br(s: HdaStructure) -> tuple[dict[int, MultiMap], dict[int, MultiMap]]:
    """(b_n, R_n): both families of degree -1 on the suspension."""
    bs = {n: iso1_up(mm) for n, mm in s.m.items() if not mm.is_zero()}
    rs = {n: iso2_up(mm) for n, mm in s.d.items() if not mm.is_zero()}
    return bs, rs


def from_br(space: GradedSpace, lam: Coefficient, bound: int,
            bs: dict[int, MultiMap], rs: dict[int, MultiMap]) -> HdaStructure:
    m = {n: iso1_down(mm) for n, mm in bs.items() if not mm.is_zero()}
    d = {n: iso2_down(mm) for n, mm in rs.items() if not mm.is_zero()}
    return HdaStructure(space, lam, bound, m, d)


def br_b_residual(space: GradedSpace, bs: dict[int, MultiMap], n: int
                  ) -> MultiMap:
    """sum_{i+j-1=n} b_i{b_j}."""
    sv = space.shift(1)
    return compose_sum(sv, sv, n, -2, [
        t for i, bi in bs.items() if n - i + 1 in bs
        for t in brace_terms(1, bi, [bs[n - i + 1]])])


def br_r_residual(space: GradedSpace, lam: Coefficient,
                  bs: dict[int, MultiMap], rs: dict[int, MultiMap], n: int
                  ) -> MultiMap:
    """sum_{u+j-1=n} sR_u{b_j} - sum L^(q-1) b_p{sR_{l_1},..,sR_{l_q}}."""
    sv = space.shift(1)
    srs = {u: suspend_target(ru) for u, ru in rs.items()}
    terms = [t for u, sru in srs.items() if n - u + 1 in bs
             for t in brace_terms(1, sru, [bs[n - u + 1]])]
    lam_pows = [Coefficient.one()]
    for _ in range(n):
        lam_pows.append(lam_pows[-1] * lam)
    for q in range(1, n + 1):
        for p in range(q, n + 1):
            bp = bs.get(p)
            if bp is None:
                continue
            for ls in _positive_compositions(n - p + q, q):
                if all(l in srs for l in ls):
                    terms.extend(brace_terms(-lam_pows[q - 1], bp,
                                             [srs[l] for l in ls]))
    return compose_sum(sv, sv, n, -1, terms)


def mc_element(s: HdaStructure) -> CdaElement:
    bs, rs = to_br(s)
    parts = {}
    for n, mm in bs.items():
        parts[(n, ALG)] = mm
    for n, mm in rs.items():
        parts[(n, DO)] = mm
    return CdaElement(s.space, parts)


def mc_equivalence_report(s: HdaStructure) -> list[dict]:
    """Per arity: do the two residual families vanish exactly when the
    Maurer-Cartan components do?"""
    alpha = mc_element(s)
    residual = mc_residual(s.space, s.lam, alpha) if not alpha.is_zero() \
        else CdaElement.zero(s.space)
    report = []
    for n in range(1, s.bound + 1):
        st = stasheff_residual(s, n).is_zero()
        lb = weighted_leibniz_residual(s, n).is_zero()
        mc_alg = (n, ALG) not in residual.parts
        mc_do = (n, DO) not in residual.parts
        report.append({
            "arity": n,
            "stasheff_zero": st,
            "leibniz_zero": lb,
            "mc_alg_zero": mc_alg,
            "mc_do_zero": mc_do,
            "match": (st == mc_alg) and (lb == mc_do),
        })
    return report


# ---------------------------------------------------------------------------
# Sampling and file interchange
# ---------------------------------------------------------------------------

def random_structure(rng, dims: dict[int, int], bound: int,
                     lam: Coefficient, density: float = 0.5,
                     values=(-1, 1)) -> HdaStructure:
    """Seeded random tables with exact degree bookkeeping."""
    space = GradedSpace(dims)
    m: dict[int, MultiMap] = {}
    d: dict[int, MultiMap] = {}
    for n in range(1, bound + 1):
        for store, degree in ((m, n - 2), (d, n - 1)):
            table = {}
            for key in itertools.product(space.basis(), repeat=n):
                in_deg = sum(space.degree_of(i) for i in key)
                row = {}
                for b in space.basis():
                    if space.degree_of(b) == in_deg + degree and \
                            rng.random() < density:
                        row[b] = Coefficient.rational(rng.choice(values))
                if row:
                    table[key] = row
            if table:
                store[n] = MultiMap(space, space, n, degree, table,
                                    check=False)
    return HdaStructure(space, lam, bound, m, d)


def embed_algebra(mult_table, d_table, lam, bound: int = 4) -> HdaStructure:
    """A plain differential algebra seen as a structure with m_2, d_1 only."""
    dim = len(mult_table)
    space = GradedSpace({0: dim})
    m2 = {}
    for i in range(dim):
        for j in range(dim):
            row = {k: Coefficient.rational(c)
                   for k, c in enumerate(mult_table[i][j]) if c}
            if row:
                m2[(i, j)] = row
    d1 = {}
    for i in range(dim):
        row = {k: Coefficient.rational(c) for k, c in enumerate(d_table[i])
               if c}
        if row:
            d1[(i,)] = row
    m = {2: MultiMap(space, space, 2, 0, m2)} if m2 else {}
    d = {1: MultiMap(space, space, 1, 0, d1)} if d1 else {}
    return HdaStructure(space, lam, bound, m, d)


def load_structure(obj) -> HdaStructure:
    """JSON schema: {"dims": {"0": 1}, "lambda": "generic"|rational,
    "bound": 4, "m": {"2": [{"args": [label..], "out": [[label, coeff]..]}]},
    "d": {...}} with basis labels "<degree>:<index>"."""
    import json

    from .coeffs import parse_coefficient, parse_rational

    if isinstance(obj, (str, bytes)):
        obj = json.loads(obj)
    space = GradedSpace({int(k): v for k, v in obj["dims"].items()})
    lam_spec = obj.get("lambda", "generic")
    lam = LAMBDA if lam_spec == "generic" else \
        Coefficient.rational(parse_rational(lam_spec))
    bound = int(obj.get("bound", 4))

    def load_maps(block, degree_of_n):
        out = {}
        for n_str, records in (block or {}).items():
            n = int(n_str)
            table: dict[tuple, dict[int, Coefficient]] = {}
            for rec in records:
                key = tuple(space.id_of_label(a) for a in rec["args"])
                row = table.setdefault(key, {})
                for label, coeff in rec["out"]:
                    row[space.id_of_label(label)] = parse_coefficient(coeff)
            out[n] = MultiMap(space, space, n, degree_of_n(n), table)
        return out

    m = load_maps(obj.get("m"), lambda n: n - 2)
    d = load_maps(obj.get("d"), lambda n: n - 1)
    return HdaStructure(space, lam, bound, m, d)


def dump_structure(s: HdaStructure) -> str:
    import json

    from .coeffs import format_coefficient

    def dump_maps(block):
        out = {}
        for n, mm in sorted(block.items()):
            records = []
            for key in sorted(mm.table):
                records.append({
                    "args": [s.space.label(i) for i in key],
                    "out": [[s.space.label(b), format_coefficient(c)]
                            for b, c in sorted(mm.table[key].items())],
                })
            out[str(n)] = records
        return out

    lam_c = s.lam.coeffs
    if lam_c == {1: 1}:
        lam_str = "generic"
    else:
        lam_str = str(s.lam.constant_term())
    return json.dumps({
        "dims": {str(k): v for k, v in s.space.dims.items()},
        "lambda": lam_str,
        "bound": s.bound,
        "m": dump_maps(s.m),
        "d": dump_maps(s.d),
    }, indent=1)


# ---------------------------------------------------------------------------
# Homology of (V, m_1) and descent of d_1
# ---------------------------------------------------------------------------

def homology_descent(s: HdaStructure) -> dict:
    """For a structure with differential m_1, check that d_1 preserves
    cycles and boundaries degreewise, so it descends to homology.  Requires
    weight-free (constant) tables for m_1 and d_1."""
    v = s.space

    def as_matrix(mm: Optional[MultiMap]) -> dict:
        cols: dict[int, dict[int, Fraction]] = {}
        if mm is None:
            return cols
        for (i,), out in mm.table.items():
            col = cols.setdefault(i, {})
            for b, c in out.items():
                cc = c.coeffs
                if set(cc) - {0}:
                    raise ValueError("homology descent needs constant tables")
                col[b] = Fraction(cc.get(0, 0))
        return cols

    m1_cols = as_matrix(s.m_at(1))
    d1_cols = as_matrix(s.d_at(1))

    def apply_cols(cols, vec: dict[int, Fraction]) -> dict[int, Fraction]:
        out: dict[int, Fraction] = {}
        for i, c in vec.items():
            for b, w in cols.get(i, {}).items():
                add_into(out, b, c * w)
        return out

    def rank(vectors) -> int:
        return len(_echelon(vectors, v.dim())[0])

    def preserved(span) -> bool:
        r = rank(span)
        return all(rank(span + [apply_cols(d1_cols, x)]) == r for x in span)

    m1_rows: dict[int, dict[int, Fraction]] = {}
    for i, col in m1_cols.items():
        for b, c in col.items():
            m1_rows.setdefault(b, {})[i] = c
    _, cycles = _echelon(list(m1_rows.values()), v.dim())
    boundaries = [apply_cols(m1_cols, {i: Fraction(1)}) for i in v.basis()]
    return {"cycles_preserved": preserved(cycles),
            "boundaries_preserved": preserved(boundaries),
            "homology_dim": len(cycles) - rank(boundaries)}


def _echelon(rows, ncols: int) -> tuple[list, list[dict]]:
    """Gaussian elimination on sparse rational rows {column: value}.

    Returns the pivots, as (column, row) with the row reduced against the
    earlier pivots and scaled to 1 at its column, so that their number is
    the rank; and a basis of the kernel {x : row . x = 0 for every row}
    on columns 0..ncols-1, one vector per column without a pivot.
    """
    pivots: list[tuple[int, dict[int, Fraction]]] = []
    for row in rows:
        row = dict(row)
        for pc, prow in pivots:
            factor = row.get(pc)
            if factor:
                for c, val in prow.items():
                    add_into(row, c, -factor * val)
        if row:
            pc = min(row)
            scale = row[pc]
            pivots.append((pc, {c: val / scale for c, val in row.items()}))
    pivot_cols = {pc for pc, _ in pivots}
    kernel = []
    for free in range(ncols):
        if free in pivot_cols:
            continue
        vec = {free: Fraction(1)}
        for pc, prow in reversed(pivots):
            val = -sum(prow.get(c, 0) * x for c, x in vec.items())
            if val:
                vec[pc] = val
        kernel.append(vec)
    return pivots, kernel
