"""Finite-dimensional graded spaces, multilinear maps between their tensor
powers, suspension translations and the brace calculus on suspended maps.

Suspension convention: s is a degree +1 symbol, moving s or s^-1 past a
degree-p element costs (-1)**p, and s^-1 s = s s^-1 = id with no sign.  The
two translations

    iso1:  Hom((sV)^n, sV) -> Hom(V^n, V)     F |-> s^-1 o F o s^n
    iso2:  Hom((sV)^n, V)  -> Hom(V^n, V)     G |->        G o s^n

then carry the sign (-1)**(sum_j (n-j) p_j) on inputs of V-degrees
p_1..p_n, and similarly for their inverses.

Composition and braces run on one kernel over raw Q[L] values, `_walk`.
It sums terms c * f with slot maps placed into f's inputs, c in Q[L] (a
sign, a power of L or any other polynomial).  Each slot map is indexed by
output basis element once per call, with each entry's block degree.  The
walk passes over f's inputs once, left to right, on states (input key so
far, node of a small automaton, rest of f's key) that hold rows of raw
Q[L] cells and merge wherever two paths meet; the Koszul sign is
paid per placement, and each output entry becomes a Coefficient once, at
the end.  The callers differ only in the automaton: `compose_sum` follows
one fixed path per slot list, `brace_sum` counts the maps placed in
order, so all insertion positions fold into one pass, and
`brace_orderings` tracks the set of maps placed, with a sign exponent per
placement from a table the caller builds (bracket item (iii) of `linf`),
so it visits at most 2^m sets of placed maps where the orderings are m!
brace terms.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional, Sequence

from .coeffs import (Coefficient, Combination, add_into, as_coefficient,
                     unit_sign)

_new = object.__new__


class GradedSpace:
    """Finitely supported dims per integer degree, with a flat basis
    enumeration (degree-major, ascending)."""

    __slots__ = ("dims", "degrees", "_offsets", "_shifts")

    def __init__(self, dims: Mapping[int, int]):
        self.dims = {int(d): int(n) for d, n in sorted(dims.items()) if n > 0}
        degs: list[int] = []
        offsets: dict[int, int] = {}
        for d, n in self.dims.items():
            offsets[d] = len(degs)
            degs.extend([d] * n)
        self.degrees = tuple(degs)
        self._offsets = offsets
        self._shifts: dict[int, GradedSpace] = {}

    def dim(self) -> int:
        return len(self.degrees)

    def degree_of(self, i: int) -> int:
        return self.degrees[i]

    def basis(self) -> range:
        return range(len(self.degrees))

    def shift(self, k: int = 1) -> "GradedSpace":
        """Suspension: same flat basis, degrees moved up by k.  A space is
        never changed, so each shift is built once and shifting back
        returns this space itself."""
        out = self._shifts.get(k)
        if out is None:
            out = self._shifts[k] = GradedSpace(
                {d + k: n for d, n in self.dims.items()})
            out._shifts[-k] = self
        return out

    def label(self, i: int) -> str:
        d = self.degrees[i]
        return f"{d}:{i - self._offsets[d]}"

    def id_of_label(self, label: str) -> int:
        d_str, k_str = label.split(":")
        d, k = int(d_str), int(k_str)
        if d not in self.dims or not 0 <= k < self.dims[d]:
            raise ValueError(f"no basis element {label!r}")
        return self._offsets[d] + k

    def __eq__(self, other):
        return self is other or (isinstance(other, GradedSpace)
                                 and self.dims == other.dims)

    def __hash__(self):
        return hash(tuple(self.dims.items()))

    def __repr__(self):
        return f"GradedSpace({self.dims})"


class MultiMap(Combination):
    """Multilinear map source^(tensor arity) -> target of fixed degree,
    stored as a sparse table on basis tuples (flat indices).

    A table is never changed after construction, so maps share tables and
    rows freely."""

    __slots__ = ("source", "target", "arity", "degree", "table")

    def __init__(self, source: GradedSpace, target: GradedSpace, arity: int,
                 degree: int,
                 table: Optional[Mapping[tuple, Mapping[int, Coefficient]]] = None,
                 check: bool = True):
        self.source = source
        self.target = target
        self.arity = arity
        self.degree = degree
        tab: dict[tuple, dict[int, Coefficient]] = {}
        if table:
            for key, out in table.items():
                add_into(tab, tuple(key),
                         out if type(out) is dict else dict(out))
        self.table = tab
        if check:
            self._check()

    def _with(self, table: dict, target: Optional[GradedSpace] = None,
              degree: Optional[int] = None) -> "MultiMap":
        """A map like this one on ``table``, which must hold no zeros and
        no empty rows; the table is taken as is, not copied or checked."""
        out = _new(MultiMap)
        out.source, out.arity, out.table = self.source, self.arity, table
        out.target = self.target if target is None else target
        out.degree = self.degree if degree is None else degree
        return out

    def _check(self):
        for key, out in self.table.items():
            if len(key) != self.arity:
                raise ValueError("input tuple of wrong length")
            in_deg = sum(self.source.degree_of(i) for i in key)
            for b in out:
                if self.target.degree_of(b) != in_deg + self.degree:
                    raise ValueError(
                        f"entry {key}->{b} violates degree {self.degree}")

    @staticmethod
    def zero(source: GradedSpace, target: GradedSpace, arity: int,
             degree: int) -> "MultiMap":
        return MultiMap(source, target, arity, degree, None, check=False)

    def is_zero(self) -> bool:
        return not self.table

    def __bool__(self) -> bool:
        return bool(self.table)

    def _compatible(self, other: "MultiMap"):
        if (self.source != other.source or self.target != other.target
                or self.arity != other.arity):
            raise ValueError("incompatible maps")
        if self.table and other.table and self.degree != other.degree:
            raise ValueError("mixed degrees")

    def _sum(self, pairs: Iterable[tuple]) -> "MultiMap":
        pairs = list(pairs)
        for _, mm in pairs:
            if mm is not self:
                self._compatible(mm)
        return sum_maps((c, {0: mm}) for c, mm in pairs).get(0) \
            or self._with({})

    def scale(self, c) -> "MultiMap":
        unit = unit_sign(c)
        if unit == 1:
            return self
        if unit == -1:
            return self._with({k: {b: -w for b, w in out.items()}
                               for k, out in self.table.items()})
        c = as_coefficient(c)
        if c.is_zero():
            return self._with({})
        return self._with({k: {b: w * c for b, w in out.items()}
                           for k, out in self.table.items()})

    def __eq__(self, other):
        if not isinstance(other, MultiMap):
            return NotImplemented
        if self.is_zero() and other.is_zero():
            return (self.source == other.source and self.target == other.target
                    and self.arity == other.arity)
        return (self.source == other.source and self.target == other.target
                and self.arity == other.arity and self.degree == other.degree
                and self.table == other.table)

    def __repr__(self):
        n = sum(len(v) for v in self.table.values())
        return (f"MultiMap(arity={self.arity}, degree={self.degree}, "
                f"{n} entries)")

    def evaluate(self, key: Sequence[int]) -> dict[int, Coefficient]:
        return self.table.get(tuple(key), {})


def sum_maps(pairs: Iterable[tuple]) -> dict:
    """Keywise sum of c * family over (c, family) pairs, each family a dict
    of MultiMaps, in one pass over the pairs.  A key with one map keeps
    that map; from a key's second map on, its rows are added into one fresh
    table.  Keys whose sum is zero are dropped."""
    out: dict = {}
    merged: set = set()
    tables: dict = {}
    for c, family in pairs:
        for key, mm in family.items():
            mm = mm.scale(c)
            if not mm.table:
                continue
            first = out.get(key)
            if first is None:
                out[key] = mm
                continue
            first._compatible(mm)
            if key not in merged:
                merged.add(key)
                add_into(tables, key, first.table)
            add_into(tables, key, mm.table)
    for key in merged:
        if key in tables:
            out[key] = out[key]._with(tables[key])
        else:
            del out[key]
    return out


class MapFamily(Combination):
    """Nonzero MultiMaps over one graded space, under any keys: an element
    of a convolution algebra, one map per generator of its cooperad."""

    __slots__ = ("space", "parts")

    def __init__(self, space: GradedSpace,
                 parts: Optional[Mapping[object, MultiMap]] = None):
        self.space = space
        self.parts = {k: mm for k, mm in parts.items() if mm.table} \
            if parts else {}

    @classmethod
    def sum(cls, space: GradedSpace, pairs: Iterable[tuple]):
        """sum of c * x over (c, x) pairs of families on ``space``, each
        part accumulated row by row into one fresh table."""
        def families():
            for c, x in pairs:
                if x.space != space:
                    raise ValueError("mixed spaces")
                yield c, x.parts

        out = _new(cls)
        out.space, out.parts = space, sum_maps(families())
        return out

    def _sum(self, pairs: Iterable[tuple]):
        return self.sum(self.space, pairs)

    def is_zero(self) -> bool:
        return not self.parts

    def __eq__(self, other):
        if not isinstance(other, MapFamily):
            return NotImplemented
        return (type(self) is type(other) and self.space == other.space
                and self.parts == other.parts)


# ---------------------------------------------------------------------------
# Composition and braces: one kernel on raw Q[L] values
# ---------------------------------------------------------------------------

def _slot(index: dict, source: GradedSpace, h: MultiMap) -> tuple:
    """h by output basis element, b -> [(input block, its degree, raw
    coefficient)], and the parity of h's degree; built once per map and
    call (``index`` is keyed by id(h))."""
    out = index.get(id(h))
    if out is None:
        if h.target != source or h.source != source:
            raise ValueError("slot maps must go from and to the input space")
        degs, by_out = source.degrees, {}
        for key, row in h.table.items():
            d = sum(degs[i] for i in key)
            for b, c in row.items():
                by_out.setdefault(b, []).append(
                    (key, d, tuple(c.coeffs.items())))
        out = index[id(h)] = (by_out, h.degree & 1)
    return out


def _put(states: dict, skey, pd: int, row: dict) -> None:
    """Add ``row``, which no other state holds, into the state ``skey``."""
    dst = states.get(skey)
    if dst is None:
        states[skey] = (pd, row)
        return
    drow = dst[1]
    for ob, cell in row.items():
        dcell = drow.get(ob)
        if dcell is None:
            drow[ob] = cell
            continue
        for e, v in cell.items():
            dcell[e] = dcell.get(e, 0) + v


def _walk(out: MultiMap, starts: Iterable[tuple], nodes: Sequence[tuple]
          ) -> MultiMap:
    """``out`` with the table of the sum over (c, f, q) starts of c * f
    with slot maps placed into f's inputs, as the automaton ``nodes`` allows
    from node q.

    A node is (need, ident, places).  An input of f either passes through
    to node ``ident``, if that is not None and at least ``need`` inputs are
    left after it, or gets a slot map from ``places``, a list of (indexed
    map, next node, sign exponent).  A state is (input key so far, node,
    rest of f's key) and holds a row of raw Q[L] cells; paths that reach
    the same state merge.  A placement pays its sign exponent plus the
    map's degree times the degree of the key so far (the Koszul sign).
    """
    degs = out.source.degrees
    states: dict[tuple, tuple] = {}
    for c, f, q in starts:
        if f.source != out.source or f.target != out.target:
            raise ValueError("f must go from the source to the target")
        for key, frow in f.scale(c).table.items():
            _put(states, ((), q, key), 0,
                 {b: v.coeffs for b, v in frow.items()})
    done: dict[tuple, tuple] = {}
    while states:
        nxt: dict[tuple, tuple] = {}
        for (key, q, rest), (pd, row) in states.items():
            if not rest:
                _put(done, key, 0, row)
                continue
            b, rest = rest[0], rest[1:]
            need, ident, places = nodes[q]
            if ident is not None and len(rest) >= need:
                # the row moves on uncopied: it belongs to this state alone
                _put(nxt, (key + (b,), ident, rest), pd + degs[b], row)
            for (by_out, odd), nq, sign in places:
                opts = by_out.get(b)
                if opts is None:
                    continue
                neg = (sign + pd * odd) & 1
                for block, d, hc in opts:
                    skey = (key + block, nq, rest)
                    dst = nxt.get(skey)
                    if dst is None:
                        drow = {}
                        nxt[skey] = (pd + d, drow)
                    else:
                        drow = dst[1]
                    if neg:
                        hc = [(eh, -vh) for eh, vh in hc]
                    for ob, cell in row.items():
                        dcell = drow.get(ob)
                        if dcell is None:
                            dcell = drow[ob] = {}
                        for eh, vh in hc:
                            for e, v in cell.items():
                                dcell[e + eh] = dcell.get(e + eh, 0) + v * vh
        states = nxt
    table: dict[tuple, dict[int, Coefficient]] = {}
    for key, (_, row) in done.items():
        add_into(table, key, {b: Coefficient(cell) for b, cell in row.items()})
    return out._with(table)


def compose_sum(source: GradedSpace, target: GradedSpace, arity: int,
                degree: int, terms: Iterable[tuple]) -> MultiMap:
    """sum of c * f o (slots) over (c, f, slots) terms, c a Coefficient or
    a rational; every f goes from ``source`` to ``target`` and every term
    has the given arity and degree.  Each slot list is one fixed path of
    the walk, shared by the terms that repeat it."""
    index, paths, nodes, starts = {}, {}, [], []
    # a list keeps every map alive for the whole call: index and paths are
    # keyed by id()
    for c, f, slots in list(terms):
        if (len(slots) != f.arity
                or sum(1 if h is None else h.arity for h in slots) != arity
                or f.degree + sum(h.degree for h in slots if h is not None)
                != degree):
            raise ValueError("terms of mixed arity or degree")
        ids = tuple(map(id, slots))
        q = paths.get(ids)
        if q is None:
            q = paths[ids] = len(nodes)
            nodes.extend((0, i, ()) if h is None else
                         (0, None, ((_slot(index, source, h), i, 0),))
                         for i, h in enumerate(slots, q + 1))
        starts.append((c, f, q))
    return _walk(MultiMap.zero(source, target, arity, degree), starts, nodes)


def compose_full(f: MultiMap, slots: Sequence[Optional[MultiMap]]
                 ) -> MultiMap:
    """f o (h_1 tensor ... tensor h_k), None meaning the identity slot.

    Koszul signs: each h_s passes the argument blocks of the slots to its
    left, contributing (-1)**(deg(h_s) * deg(those arguments)).
    """
    arity = sum(1 if h is None else h.arity for h in slots)
    degree = f.degree + sum(0 if h is None else h.degree for h in slots)
    return compose_sum(f.source, f.target, arity, degree, [(1, f, slots)])


def compose_at(f: MultiMap, i: int, g: MultiMap) -> MultiMap:
    """f o_i g: insert g into the i-th input of f (1-based)."""
    if not 1 <= i <= f.arity:
        raise ValueError(f"position {i} out of range")
    slots: list[Optional[MultiMap]] = [None] * f.arity
    slots[i - 1] = g
    return compose_full(f, slots)


def brace_sum(terms: Sequence[tuple]) -> MultiMap:
    """sum of c * f{g_1,...,g_k} over nonempty (c, f, gs) terms of one
    arity and degree.  A term's walk places its maps in order, its node
    counting the maps placed, so every insertion position of every term
    folds into one pass; a term with more maps than inputs gives nothing."""
    _, f0, gs0 = terms[0]
    out = MultiMap.zero(f0.source, f0.target,
                        f0.arity + sum(g.arity - 1 for g in gs0),
                        f0.degree + sum(g.degree for g in gs0))
    index, nodes, starts = {}, [], []
    for c, f, gs in terms:
        if (f.arity + sum(g.arity - 1 for g in gs) != out.arity
                or f.degree + sum(g.degree for g in gs) != out.degree):
            raise ValueError("terms of mixed arity or degree")
        m, q = len(gs), len(nodes)
        for k, g in enumerate(gs):
            slot = _slot(index, out.source, g)
            nodes.append((m - k, q + k, ((slot, q + k + 1, 0),)))
        nodes.append((0, q + m, ()))
        if m <= f.arity:
            starts.append((c, f, q))
    return _walk(out, starts, nodes)


def hom_brace(f: MultiMap, gs: Sequence[MultiMap]) -> MultiMap:
    """f{g_1,...,g_k}: sum over strictly increasing insertion slots, each
    g_j indexed once and all positions summed in one raw table."""
    return brace_sum([(1, f, gs)]) if gs else f


def hom_gerstenhaber(f: MultiMap, g: MultiMap) -> MultiMap:
    """[f,g] = f{g} - (-1)**(|f||g|) g{f} on maps with target = source."""
    return brace_sum([(1, f, [g]),
                      (1 if f.degree * g.degree % 2 else -1, g, [f])])


def brace_orderings(c, f: MultiMap, gs: Sequence[MultiMap],
                    step: Sequence[Sequence[int]]) -> MultiMap:
    """sum over sigma in S_m of (-1)**e(sigma) * c * f{g_sigma(1), ...,
    g_sigma(m)}, where e(sigma) adds up step[S][t] over the placements of
    sigma: t placed after the maps of the bitmask S.

    The walk's node is the bitmask of the maps placed so far: an input of
    f either passes through, if enough inputs are left for the maps still
    to place, or gets any unplaced g_t.  Orderings fold together wherever
    their input keys agree: at most 2**m masks per key instead of m!
    separate brace terms.
    """
    m, index = len(gs), {}
    slots = [_slot(index, f.source, g) for g in gs]
    out = MultiMap.zero(f.source, f.target,
                        f.arity + sum(g.arity - 1 for g in gs),
                        f.degree + sum(g.degree for g in gs))
    if m > f.arity:
        return out
    return _walk(out, [(c, f, 0)], [
        (m - mask.bit_count(), mask,
         [(slots[t], mask | 1 << t, step[mask][t])
          for t in range(m) if not mask >> t & 1])
        for mask in range(1 << m)])


# ---------------------------------------------------------------------------
# Suspension translations
# ---------------------------------------------------------------------------

def _conjugation_sign(space: GradedSpace, key: Sequence[int]) -> int:
    """(-1)**(sum_j (n-j) p_j) on V-degrees p_j of the input tuple."""
    n = len(key)
    exp = sum((n - 1 - j) * space.degree_of(b) for j, b in enumerate(key))
    return -1 if exp % 2 else 1


def suspend_target(f: MultiMap) -> MultiMap:
    """Post-compose with s (flat basis unchanged, target degrees up by 1).
    Only degrees are relabelled, so the table is shared."""
    return f._with(f.table, f.target.shift(1), f.degree + 1)


def desuspend_target(f: MultiMap) -> MultiMap:
    return f._with(f.table, f.target.shift(-1), f.degree - 1)


def _translate(f: MultiMap, shift_in: int, shift_out: int) -> MultiMap:
    """Conjugate by suspension on inputs (and optionally the target).

    shift_in = +1 turns V-inputs into sV-inputs, -1 the other way; the sign
    is always computed from the V-degrees.
    """
    src = f.source.shift(shift_in)
    tgt = f.target.shift(shift_out)
    plain = f.source if shift_in > 0 else src
    table: dict[tuple, dict[int, Coefficient]] = {}
    for key, out in f.table.items():
        sign = _conjugation_sign(plain, key)
        if sign == 1:
            table[key] = out
        else:
            table[key] = {b: -c for b, c in out.items()}
    degree = f.degree - shift_in * (f.arity) + shift_out
    return MultiMap.zero(src, tgt, f.arity, degree)._with(table)


def iso1_down(f: MultiMap) -> MultiMap:
    """Hom((sV)^n, sV) -> Hom(V^n, V)."""
    return _translate(f, -1, -1)


def iso1_up(f: MultiMap) -> MultiMap:
    """Hom(V^n, V) -> Hom((sV)^n, sV); inverse of iso1_down."""
    return _translate(f, +1, +1)


def iso2_down(f: MultiMap) -> MultiMap:
    """Hom((sV)^n, V) -> Hom(V^n, V)."""
    return _translate(f, -1, 0)


def iso2_up(f: MultiMap) -> MultiMap:
    """Hom(V^n, V) -> Hom((sV)^n, V); inverse of iso2_down."""
    return _translate(f, +1, 0)
