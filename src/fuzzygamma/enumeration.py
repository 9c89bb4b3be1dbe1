"""Exhaustive generation of small ordered gamma-semigroups.

Tables are filled cell by cell in row-major order by backtracking, which
after each assignment checks only the associativity instances that read
the new cell.  The labeled posets on n elements (OEIS A001035) are listed
once per n and filtered per table for two-sided compatibility, as
bitmasks, against the pairs each strict pair forces.  Isomorphism
reduction tests each table once, before listing its orders: an encoding
is (flat table, sorted order), compared lexicographically, so when a
relabeling gives a smaller flat table no order on that table is
canonical.  On a table that passes, each order is tested in full.  Both
tests take the minimum over every element and operation relabeling,
adequate at the configured caps.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from .structure import GammaStructure, _forced_pairs
# Never called here. perfbench traces the enumerator's validation under this
# name, and its count of zero shows that emitted structures skip validation.
from .structure import validate_structure  # noqa: F401

MAX_N = 4
MAX_M = 3


@dataclass(frozen=True)
class SearchSpec:
    n: int
    m: int
    limit: int | None = None
    up_to_iso: bool = False

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise ValueError("carrier and operation family must be nonempty")
        if self.n > MAX_N or self.m > MAX_M:
            raise ValueError(
                f"search caps exceeded (n <= {MAX_N}, m <= {MAX_M})")
        if self.limit is not None and self.limit < 0:
            raise ValueError(f"limit must be non-negative, got {self.limit}")


def enumerate_tables(n: int, m: int):
    """All fully associative tables, lexicographic in row-major cell order.

    After each cell assignment only the associativity instances that read
    the new cell are checked: the earlier state was consistent, so every
    instance that has just become fully determined contains it.
    """
    SearchSpec(n=n, m=m)  # raises past the search caps
    N, M = range(n), range(m)
    cells = [(x, g, y) for x in N for g in M for y in N]
    table = [[[-1] * n for _ in M] for _ in N]

    def consistent_at(x: int, g: int, y: int) -> bool:
        # each instance reads (a γ b) μ c == a γ (b μ c); here v = x g y
        v = table[x][g][y]
        Txg, Tv = table[x][g], table[v]
        for mu in M:  # as a γ b: (x g y) μ c == x g (y μ c)
            Tymu, Tvmu = table[y][mu], Tv[mu]
            for c in N:
                yc = Tymu[c]
                if yc >= 0:
                    left, right = Tvmu[c], Txg[yc]
                    if left >= 0 and right >= 0 and left != right:
                        return False
        for a in N:
            Ta = table[a]
            for gam in M:
                Tagam = Ta[gam]
                ax = Tagam[x]  # as b μ c: (a γ x) g y == a γ v
                if ax >= 0:
                    left, right = table[ax][g][y], Tagam[v]
                    if left >= 0 and right >= 0 and left != right:
                        return False
                for b in N:  # as the outer left product, a γ b == x
                    if Tagam[b] == x:
                        by = table[b][g][y]
                        if by >= 0:
                            right = Tagam[by]
                            if right >= 0 and right != v:
                                return False
        for b in N:  # as the outer right product, b μ c == y
            xb = Txg[b]
            if xb < 0:
                continue
            Tb, Txb = table[b], table[xb]
            for mu in M:
                Tbmu, Txbmu = Tb[mu], Txb[mu]
                for c in N:
                    if Tbmu[c] == y:
                        left = Txbmu[c]
                        if left >= 0 and left != v:
                            return False
        return True

    def fill(i: int):
        if i == len(cells):
            yield tuple(tuple(tuple(row) for row in plane) for plane in table)
            return
        x, g, y = cells[i]
        for v in N:
            table[x][g][y] = v
            if consistent_at(x, g, y):
                yield from fill(i + 1)
        table[x][g][y] = -1

    yield from fill(0)


@functools.cache
def _posets(n: int) -> tuple[tuple[frozenset, int, tuple], ...]:
    """All labeled partial orders on n elements, bitmask-ascending, each
    with its ``_bits`` mask and its strict pairs."""
    posets = []
    offdiag = [(i, j) for i in range(n) for j in range(n) if i != j]
    diagonal = frozenset((i, i) for i in range(n))
    for bits in range(2 ** len(offdiag)):
        rel = {p for k, p in enumerate(offdiag) if bits >> k & 1}
        leq = frozenset(rel) | diagonal
        if any((j, i) in rel for i, j in rel):
            continue
        if any((i, k) not in leq
               for i, j in rel for jj, k in rel if j == jj):
            continue
        posets.append((leq, _bits(n, leq), tuple(rel)))
    return tuple(posets)


def _bits(n: int, pairs) -> int:
    """Index pairs as a bitmask, pair (i, j) at bit i*n + j."""
    return sum(1 << (i * n + j) for i, j in pairs)


def enumerate_orders(n: int, table=None):
    """The labeled partial orders on n elements, bitmask-ascending; with a
    table, only those compatible with each operation on both sides: those
    that hold every pair their strict pairs force
    (``structure._forced_pairs``)."""
    if table is None:
        yield from (leq for leq, _, _ in _posets(n))
        return
    forced = {p: _bits(n, pairs) for p, pairs
              in _forced_pairs(table, n, len(table[0])).items()}
    for leq, mask, strict in _posets(n):
        need = 0
        for p in strict:
            need |= forced[p]
        if not need & ~mask:
            yield leq


def _encoding(n: int, m: int, table, leq, elems=None, ops=None):
    """Flat table and sorted order, relabeled: new element i is old element
    ``elems[i]``, new operation k is old ``ops[k]`` (identity by default)."""
    elems, ops = elems or range(n), ops or range(m)
    rank = {x: i for i, x in enumerate(elems)}
    flat = tuple(rank[table[x][g][y]]
                 for x in elems for g in ops for y in elems)
    return flat, tuple(sorted((rank[i], rank[j]) for i, j in leq))


def canonical_encoding(n: int, m: int, table, leq):
    """Lexicographically least encoding over all relabelings.

    With an empty order this is the least flat table, which the
    enumerator tests once per table before it lists that table's orders.
    """
    return min(_encoding(n, m, table, leq, elems, ops)
               for elems in itertools.permutations(range(n))
               for ops in itertools.permutations(range(m)))


def canonical_form(S: GammaStructure):
    """Canonical encoding of a structure; isomorphic inputs agree."""
    return canonical_encoding(S.n, S.m, S.table, S.leq)


def are_isomorphic(S1: GammaStructure, S2: GammaStructure) -> bool:
    if S1.n != S2.n or S1.m != S2.m:
        return False
    return canonical_form(S1) == canonical_form(S2)


def enumerate_structures(spec: SearchSpec):
    """Structures in a deterministic order; optionally up to iso.

    The search yields only associative tables and compatible orders, so the
    structures are built without validation; the tests re-validate them.
    Up-to-iso mode keeps exactly the structures whose own encoding is the
    canonical one, so each isomorphism class is represented once (the
    labeled space is complete, hence contains every class's minimum).
    """
    n, m = spec.n, spec.m
    labels = tuple(f"e{i}" for i in range(n))
    glabels = tuple(f"g{k}" for k in range(m))

    def canonical(table, leq):
        return (_encoding(n, m, table, leq)
                == canonical_encoding(n, m, table, leq))

    structures = (GammaStructure(labels, glabels, table, leq, True, True)
                  for table in enumerate_tables(n, m)
                  if not spec.up_to_iso or canonical(table, ())
                  for leq in enumerate_orders(n, table)
                  if not spec.up_to_iso or canonical(table, leq))
    yield from itertools.islice(structures, spec.limit)
