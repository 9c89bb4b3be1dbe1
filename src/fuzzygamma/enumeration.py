"""Exhaustive generation of small ordered gamma-semigroups.

Tables are filled cell by cell in row-major order with associativity-pruned
backtracking; orders are enumerated as full relation matrices filtered for
the poset axioms and two-sided compatibility.  Isomorphism reduction is a
brute-force permutation search over element and operation relabelings,
adequate at the configured caps.
"""

from __future__ import annotations

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


def _check_caps(n: int, m: int) -> None:
    SearchSpec(n=n, m=m)


def enumerate_tables(n: int, m: int):
    """All fully associative tables, lexicographic in row-major cell order."""
    _check_caps(n, m)
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


def enumerate_orders(n: int, table=None):
    """All labeled partial orders on n elements, bitmask-ascending.

    With a table given, only orders compatible with every operation on both
    sides are kept.  The discrete order (bitmask 0) always qualifies.
    """
    m = len(table[0]) if table is not None else 0
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
        if table is not None and not order_is_compatible(table, n, m, leq):
            continue
        yield leq


def _element_labels(n: int) -> list[str]:
    return [f"e{i}" for i in range(n)]


def _gamma_labels(m: int) -> list[str]:
    return [f"g{k}" for k in range(m)]


def _encode(n: int, m: int, table, leq):
    flat = tuple(table[x][g][y]
                 for x in range(n) for g in range(m) for y in range(n))
    return flat, tuple(sorted(leq))


def _relabel(n: int, m: int, table, leq, sigma, tau):
    new_table = [[[0] * n for _ in range(m)] for _ in range(n)]
    for x in range(n):
        for g in range(m):
            for y in range(n):
                new_table[sigma[x]][tau[g]][sigma[y]] = sigma[table[x][g][y]]
    new_leq = frozenset((sigma[i], sigma[j]) for i, j in leq)
    return new_table, new_leq


def canonical_encoding(n: int, m: int, table, leq):
    """Lexicographically least encoding over all relabelings."""
    best = None
    for sigma in itertools.permutations(range(n)):
        for tau in itertools.permutations(range(m)):
            t2, l2 = _relabel(n, m, table, leq, sigma, tau)
            enc = _encode(n, m, t2, l2)
            if best is None or enc < best:
                best = enc
    return best


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
    labels = _element_labels(spec.n)
    glabels = _gamma_labels(spec.m)
    emitted = 0
    for table in enumerate_tables(spec.n, spec.m):
        order_table = table if spec.require_compat else None
        for leq in enumerate_orders(spec.n, order_table):
            if spec.up_to_iso:
                enc = _encode(spec.n, spec.m, table, leq)
                if enc != canonical_encoding(spec.n, spec.m, table, leq):
                    continue
            if spec.limit is not None and emitted >= spec.limit:
                return
            yield validate_structure(labels, glabels, table, sorted(leq),
                                     require_compat=spec.require_compat)
            emitted += 1
