"""Exhaustive generation of small ordered gamma-semigroups.

Single-operation tables are filled cell by cell in row-major order by
backtracking, which after each assignment checks only the associativity
instances that read the new cell.  An associativity instance reads at
most two operations, so a table with m >= 2 operations is an m-tuple of
single-operation tables whose mixed instances hold for each pair, both
ways round; the pairs are found once, by numpy over all tables, and the
tuples are emitted in the cell search's order (compare Distler,
"Classification and enumeration of finite semigroups", 2010).  The
labeled posets on n elements (OEIS A001035) are listed once per n and
filtered per table for two-sided compatibility, as bitmasks, against the
pairs each strict pair forces.

Isomorphism reduction tests each table once, before listing its orders:
an encoding is (flat table, sorted order), compared lexicographically, so
when a relabeling gives a smaller flat table no order on that table is
canonical.  That test takes the minimum over every element and operation
relabeling, adequate at the configured caps.  On a table that passes,
the relabelings that keep its flat table are its automorphisms, every
other one raises it, so an order is canonical exactly when no
automorphism lowers its sorted pairs (the orbit test of McKay,
"Isomorph-free exhaustive generation", 1998).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

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


def _semigroups(n: int):
    """All associative binary tables on n elements, as tuples of rows,
    lexicographic in row-major cell order.

    After each cell assignment only the associativity instances that read
    the new cell are checked: the earlier state was consistent, so every
    instance that has just become fully determined contains it.
    """
    N = range(n)
    cells = [(x, y) for x in N for y in N]
    table = [[-1] * n for _ in N]

    def consistent_at(x: int, y: int) -> bool:
        # each instance reads (a b) c == a (b c); here v = x y
        v = table[x][y]
        Tx, Tv, Ty = table[x], table[v], table[y]
        for c in N:  # as a b: (x y) c == x (y c)
            yc = Ty[c]
            if yc >= 0:
                left, right = Tv[c], Tx[yc]
                if left >= 0 and right >= 0 and left != right:
                    return False
        for a in N:
            Ta = table[a]
            ax = Ta[x]  # as b c: (a x) y == a v
            if ax >= 0:
                left, right = table[ax][y], Ta[v]
                if left >= 0 and right >= 0 and left != right:
                    return False
            for b in N:  # as the outer left product, a b == x
                if Ta[b] == x:
                    by = table[b][y]
                    if by >= 0:
                        right = Ta[by]
                        if right >= 0 and right != v:
                            return False
        for b in N:  # as the outer right product, b c == y
            xb = Tx[b]
            if xb < 0:
                continue
            Tb, Txb = table[b], table[xb]
            for c in N:
                if Tb[c] == y:
                    left = Txb[c]
                    if left >= 0 and left != v:
                        return False
        return True

    def fill(i: int):
        if i == len(cells):
            yield tuple(tuple(row) for row in table)
            return
        x, y = cells[i]
        for v in N:
            table[x][y] = v
            if consistent_at(x, y):
                yield from fill(i + 1)
        table[x][y] = -1

    yield from fill(0)


def _compatible(singles, n: int) -> list[set]:
    """For each single-operation table, the tables it pairs with, itself
    included: those whose mixed instances (x A y) B z == x A (y B z) hold
    with A and B either way round.

    Each block of candidate pairs (I[p], J[p]) is cut by one instance at a
    time, both ways round, as numpy index arrays into the tables.
    """
    T = np.array(singles, dtype=np.intp)  # T[k, x, y] = x k y
    K = len(T)
    compat = [{k} for k in range(K)]
    step = max(1, 2 ** 16 // K)
    for i0 in range(0, K, step):
        block = np.arange(i0, min(i0 + step, K))
        I, J = np.nonzero(block[:, None] < np.arange(K))
        I += i0
        for x, y, z in itertools.product(range(n), repeat=3):
            if not len(I):
                break
            keep = ((T[J, T[I, x, y], z] == T[I, x, T[J, y, z]])
                    & (T[I, T[J, x, y], z] == T[J, x, T[I, y, z]]))
            I, J = I[keep], J[keep]
        for i, j in zip(I.tolist(), J.tolist()):
            compat[i].add(j)
            compat[j].add(i)
    return compat


def enumerate_tables(n: int, m: int):
    """All fully associative tables, lexicographic in row-major cell order.

    At m = 1 these are the tables of the cell search.  At m >= 2 a table is
    an m-tuple of single-operation tables, each two of them compatible
    (``_compatible``); each tuple is keyed by its flat table as an integer,
    and the sorted keys are read back as tables one at a time.
    """
    SearchSpec(n=n, m=m)  # raises past the search caps
    if m == 1:
        yield from (tuple((row,) for row in t) for t in _semigroups(n))
        return
    singles = list(_semigroups(n))
    compat = _compatible(singles, n)
    rows = list(itertools.product(range(n), repeat=n))  # ascending
    code = {row: i for i, row in enumerate(rows)}
    w = len(rows)
    # a key has one base-w digit per row x γ -, most significant first, so
    # row x of operation γ sits at digit (n - 1 - x) m + (m - 1 - γ)
    spread = [sum(code[row] * w ** ((n - 1 - x) * m)
                  for x, row in enumerate(t)) for t in singles]
    keys = []

    def extend(key, allowed, g):
        if g == m:
            keys.append(key)
            return
        for k in allowed:
            extend(key + spread[k] * w ** (m - 1 - g), allowed & compat[k],
                   g + 1)

    extend(0, set(range(len(singles))), 0)
    keys.sort()
    for key in keys:
        digits = []
        for _ in range(n * m):
            key, digit = divmod(key, w)
            digits.append(rows[digit])
        digits.reverse()
        yield tuple(tuple(digits[x * m:x * m + m]) for x in range(n))


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
    flat = tuple([rank[table[x][g][y]]
                  for x in elems for g in ops for y in elems])
    return flat, tuple(sorted([(rank[i], rank[j]) for i, j in leq]))


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


def _automorphisms(n: int, m: int, table) -> list[tuple[int, ...]]:
    """The element permutations of the relabelings (elements and
    operations) that leave the flat table unchanged, identity first.

    They form a group, so each one's inverse is listed too: reading
    ``p`` as the map from old element i to new element ``p[i]`` gives the
    same relabeled orders as reading it as ``_encoding`` does.
    """
    flat = _encoding(n, m, table, ())
    return list(dict.fromkeys(
        elems for elems in itertools.permutations(range(n))
        for ops in itertools.permutations(range(m))
        if _encoding(n, m, table, (), elems, ops) == flat))


def enumerate_structures(spec: SearchSpec):
    """Structures in a deterministic order; optionally up to iso.

    The search yields only associative tables and compatible orders, so the
    structures are built without validation; the tests re-validate them.
    Up-to-iso mode keeps exactly the structures whose own encoding is the
    canonical one, so each isomorphism class is represented once (the
    labeled space is complete, hence contains every class's minimum); the
    module docstring says how that is decided, table first.
    """
    n, m = spec.n, spec.m
    labels = tuple(f"e{i}" for i in range(n))
    glabels = tuple(f"g{k}" for k in range(m))

    def canonical_orders(table):
        if _encoding(n, m, table, ()) != canonical_encoding(n, m, table, ()):
            return
        others = _automorphisms(n, m, table)[1:]
        for leq in enumerate_orders(n, table):
            own = sorted(leq)
            if all(sorted([(p[i], p[j]) for i, j in leq]) >= own
                   for p in others):
                yield leq

    orders = (canonical_orders if spec.up_to_iso
              else functools.partial(enumerate_orders, n))
    structures = (GammaStructure(labels, glabels, table, leq, True, True)
                  for table in enumerate_tables(n, m)
                  for leq in orders(table))
    yield from itertools.islice(structures, spec.limit)
