"""Exhaustive generation of small ordered gamma-semigroups.

Tables are filled cell by cell in row-major order with associativity-pruned
backtracking.  The labeled posets on n elements (OEIS A001035) are listed
once per n and filtered per table for two-sided compatibility.  Isomorphism
reduction is a brute-force search over element and operation relabelings,
adequate at the configured caps.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from .structure import (GammaStructure, order_is_compatible,
                        validate_structure)

MAX_N = 4
MAX_M = 3


@dataclass(frozen=True)
class SearchSpec:
    n: int
    m: int
    limit: int | None = None
    up_to_iso: bool = False
    require_compat: bool = True

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise ValueError("carrier and operation family must be nonempty")
        if self.n > MAX_N or self.m > MAX_M:
            raise ValueError(
                f"search caps exceeded (n <= {MAX_N}, m <= {MAX_M})")
        if self.limit is not None and self.limit < 0:
            raise ValueError(f"limit must be non-negative, got {self.limit}")


def enumerate_tables(n: int, m: int):
    """All fully associative tables, lexicographic in row-major cell order."""
    SearchSpec(n=n, m=m)  # raises past the search caps
    cells = [(x, g, y) for x in range(n) for g in range(m) for y in range(n)]
    triples = [(x, g, y, mu, z)
               for x in range(n) for g in range(m) for y in range(n)
               for mu in range(m) for z in range(n)]
    table = [[[-1] * n for _ in range(m)] for _ in range(n)]

    def consistent() -> bool:
        # prune on every fully determined associativity instance
        for x, g, y, mu, z in triples:
            xy = table[x][g][y]
            if xy < 0:
                continue
            yz = table[y][mu][z]
            if yz < 0:
                continue
            left = table[xy][mu][z]
            right = table[x][g][yz]
            if left < 0 or right < 0:
                continue
            if left != right:
                return False
        return True

    def fill(i: int):
        if i == len(cells):
            yield tuple(tuple(tuple(row) for row in plane) for plane in table)
            return
        x, g, y = cells[i]
        for v in range(n):
            table[x][g][y] = v
            if consistent():
                yield from fill(i + 1)
        table[x][g][y] = -1

    yield from fill(0)


@functools.cache
def _posets(n: int) -> tuple[frozenset, ...]:
    """All labeled partial orders on n elements, bitmask-ascending."""
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
        posets.append(leq)
    return tuple(posets)


def enumerate_orders(n: int, table=None):
    """The labeled partial orders on n elements, bitmask-ascending; with a
    table, only those compatible with each operation on both sides."""
    for leq in _posets(n):
        if table is None or order_is_compatible(table, n, len(table[0]), leq):
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
    """Lexicographically least encoding over all relabelings."""
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
    """Validated structures, deterministic order; optionally up to iso.

    Up-to-iso mode keeps exactly the structures whose own encoding is the
    canonical one, so each isomorphism class is represented once (the
    labeled space is complete, hence contains every class's minimum).
    """
    n, m = spec.n, spec.m
    labels = [f"e{i}" for i in range(n)]
    glabels = [f"g{k}" for k in range(m)]
    emitted = 0
    for table in enumerate_tables(n, m):
        for leq in enumerate_orders(n, table if spec.require_compat else None):
            if spec.up_to_iso and (_encoding(n, m, table, leq)
                                   != canonical_encoding(n, m, table, leq)):
                continue
            if spec.limit is not None and emitted >= spec.limit:
                return
            yield validate_structure(labels, glabels, table, sorted(leq),
                                     require_compat=spec.require_compat)
            emitted += 1
