"""Exhaustive generation of small ordered gamma-semigroups.

Single-operation tables come from one cell search, which fills cells in
row-major order, checks after each assignment only the associativity
instances that read the new cell, and keeps only lex-leaders: the tables
whose flat table no element relabeling lowers (the symmetry-breaking form
of McKay's orderly generation, "Isomorph-free exhaustive generation",
1998).  A relabeling whose image of the filled cells, read in row-major
order while both the cell and its image are filled, first differs from the
table by a smaller value lowers every completion, so the node is pruned;
at a complete table the relabelings still tied are its automorphisms.  So
the search yields exactly the canonical tables, in lexicographic order.
Every labeled table is a relabeling of exactly one of them, so the labeled
tables are the canonical tables' orbits under element relabeling, merged
and sorted.

An associativity instance reads at most two operations, so a table with
m operations is an m-tuple of single-operation tables whose mixed
instances hold for each pair, both ways round (compare Distler,
"Classification and enumeration of finite semigroups", 2010); the tables
and pairs are found once per n, and the tuples sorted by their rows.  The
labeled posets on n elements (OEIS A001035) are built once per n, each
from one on n - 1 elements, and stacked as one boolean array, which
``structure.compatible`` filters per table in one numpy call.

Up to isomorphism an encoding is (flat table, sorted order), compared
lexicographically, so when a relabeling gives a smaller flat table no
order on that table is canonical.  At m = 1 the canonical tables are the
search's; at m >= 2 each table is tested once, before its orders are
listed, by the minimum over every element and operation relabeling,
adequate at the configured caps.  On a canonical table the relabelings
that keep its flat table are its automorphisms, every other one raises it,
so an order is canonical exactly when no automorphism lowers its sorted
pairs (McKay's orbit test).  Labeled mode is the same one filter, over
every table read as having no automorphism but the identity.
"""

from __future__ import annotations

import array
import functools
import itertools
import sys
from dataclasses import dataclass

import numpy as np

from .structure import GammaStructure, compatible
# Never called here. perfbench traces the enumerator's validation under this
# name, and its count of zero shows that emitted structures skip validation.
from .structure import validate_structure  # noqa: F401

MAX_N = 4
MAX_M = 3
MAX_ISO_N = 5  # the cap on n up to isomorphism at m = 1


@dataclass(frozen=True)
class SearchSpec:
    n: int
    m: int
    limit: int | None = None
    up_to_iso: bool = False

    def __post_init__(self):
        if not all(type(v) is int and v >= 1 for v in (self.n, self.m)):
            raise ValueError(f"n and m must be ints of at least 1, got {self}")
        max_n = MAX_ISO_N if self.up_to_iso and self.m == 1 else MAX_N
        if self.n > max_n or self.m > MAX_M:
            raise ValueError(
                f"search caps exceeded (n <= {MAX_N}, m <= {MAX_M}; "
                f"n <= {MAX_ISO_N} up to isomorphism at m = 1)")
        if self.limit is not None and not (type(self.limit) is int
                                           and 0 <= self.limit <= sys.maxsize):
            raise ValueError(f"limit must be non-negative and at most "
                             f"{sys.maxsize}, as an int; got {self.limit!r}")


@functools.cache
def _canonical_semigroups(n: int) -> tuple[tuple[tuple, tuple], ...]:
    """The associative binary tables on n elements that no element
    relabeling lowers, as tuples of rows, lexicographic in row-major cell
    order; each with its automorphisms, identity first.

    After each cell assignment only the associativity instances that read
    the new cell are checked: the earlier state was consistent, so every
    instance that has just become fully determined contains it.  Then each
    live relabeling p (new element i is old ``p[i]``) is compared with the
    table as the module docstring says: a lower first difference prunes the
    node, a higher one drops p for the subtree, and a tie keeps p, to
    resume at the same flat position below.
    """
    N = range(n)
    table = [[-1] * n for _ in N]
    flat = [-1] * (n * n)

    def holds(a: int, b: int, c: int) -> bool:
        """(a b) c == a (b c), or one of the instance's cells is unset."""
        ab, bc = table[a][b], table[b][c]
        if ab < 0 or bc < 0:
            return True
        left, right = table[ab][c], table[a][bc]
        return left < 0 or right < 0 or left == right

    def consistent_at(x: int, y: int) -> bool:
        # the new cell x y read as a b, as b c, and as the outer product:
        # (a b) y with a b == x, and x (a b) with a b == y
        for a in N:
            if not (holds(x, y, a) and holds(a, x, y)):
                return False
            Ta = table[a]
            for b in N:
                if Ta[b] == x and not holds(a, b, y):
                    return False
                if Ta[b] == y and not holds(x, a, b):
                    return False
        return True

    def still_live(live, last: int):
        """The relabelings that tie the table on its filled prefix, each
        with the position to resume at; None when one lowers it."""
        kept = []
        for p, rank, src, k in live:
            while (k <= last and flat[src[k]] >= 0
                   and rank[flat[src[k]]] == flat[k]):
                k += 1
            if k > last or flat[src[k]] < 0:
                kept.append((p, rank, src, k))
            elif rank[flat[src[k]]] < flat[k]:
                return None
        return kept

    def fill(i: int, live):
        if i == n * n:
            yield (tuple(tuple(row) for row in table),
                   (tuple(N),) + tuple(p for p, _, _, _ in live))
            return
        x, y = divmod(i, n)
        for v in N:
            table[x][y] = flat[i] = v
            if consistent_at(x, y):
                kept = still_live(live, i)
                if kept is not None:
                    yield from fill(i + 1, kept)
        table[x][y] = flat[i] = -1

    # each relabeling with its inverse, the flat position each position
    # reads, and the position to resume at; the identity is dropped
    relabelings = [(p, tuple(sorted(N, key=p.__getitem__)),
                    tuple(p[k // n] * n + p[k % n] for k in range(n * n)), 0)
                   for p in itertools.permutations(N)][1:]
    return tuple(fill(0, relabelings))


@functools.cache
def _semigroups(n: int) -> tuple[tuple[int, ...], ...]:
    """All associative binary tables on n elements, lexicographic in
    row-major cell order: the canonical tables' orbits under element
    relabeling, merged.  A table is the tuple of its rows' indices into
    ``itertools.product(range(n), repeat=n)``, which keeps row order.

    Relabeling p (new element i is old ``p[i]``) with inverse r sends row
    ``p[i]`` to row i, read at columns p and renamed by r; ``image[k]`` is
    the index of row k's image.
    """
    rows = list(itertools.product(range(n), repeat=n))
    code = {row: i for i, row in enumerate(rows)}
    relabelings = [(p, [code[tuple([r[row[y]] for y in p])] for row in rows])
                   for p in itertools.permutations(range(n))
                   for r in [sorted(range(n), key=p.__getitem__)]]
    return tuple(sorted({tuple([image[code[table[x]]] for x in p])
                         for table, _ in _canonical_semigroups(n)
                         for p, image in relabelings}))


@functools.cache
def _compatible(n: int) -> tuple[set, ...]:
    """For each single-operation table ``_semigroups(n)[k]``, the tables it
    pairs with, itself included: those whose mixed instances
    (x A y) B z == x A (y B z) hold with A and B either way round.

    Each block of candidate pairs (I[p], J[p]) is cut by one instance at a
    time, both ways round, as numpy index arrays into the tables.  Callers
    share the cached sets and only read them (frozen: +1.6 MB peak at (4,3)).
    """
    rows = np.array(list(itertools.product(range(n), repeat=n)))
    T = rows[np.array(_semigroups(n))]  # T[k, x, y] = x k y
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
    return tuple(compat)


def enumerate_tables(n: int, m: int):
    """All fully associative tables, lexicographic in row-major cell order.

    A table is an m-tuple of pairwise compatible single-operation tables,
    sorted by its rows' indices in flat order (row x of every operation,
    then row x + 1) and read back by zipping its tables' rows."""
    SearchSpec(n=n, m=m)  # raises past the search caps
    singles = _semigroups(n)
    rows = list(itertools.product(range(n), repeat=n))  # ascending
    picks = array.array("I")  # the tuples, flat

    def extend(picked, allowed):
        if len(picked) == m:
            picks.extend(picked)
            return
        if picked:  # so m = 1 never builds the pairs
            allowed = allowed & _compatible(n)[picked[-1]]
        for k in allowed:
            extend(picked + (k,), allowed)

    extend((), set(range(len(singles))))
    index = np.array(singles, np.min_scalar_type(len(rows) - 1))
    tuples = np.asarray(picks).reshape(-1, m)
    keys = [index[tuples[:, g], x] for x in range(n) for g in range(m)]
    planes = [tuple(map(rows.__getitem__, t)) for t in singles]
    for pick in tuples[np.lexsort(keys[::-1])]:  # the last key leads
        yield tuple(zip(*[planes[k] for k in pick]))


@functools.cache
def _posets(n: int) -> tuple[tuple[frozenset, ...], np.ndarray]:
    """All labeled partial orders on n elements, bitmask-ascending (pair
    (i, j) at bit i*n + j), and the same orders as one read-only boolean
    stack: ``R[k, i, j]`` when i <= j in order k.

    Each extends a partial order on the first n - 1 elements by element
    n - 1, strictly above a down-set D and below an up-set U of it: D and U
    are disjoint and each d in D lies below each u in U, which is what
    transitivity through n - 1 asks.
    """
    if n == 0:
        return (frozenset(),), np.zeros((1, 0, 0), bool)
    top = n - 1
    subsets = [set(S) for k in range(n)
               for S in itertools.combinations(range(top), k)]
    posets = []
    for leq in _posets(top)[0]:
        downs = [D for D in subsets if all(a in D for a, b in leq if b in D)]
        ups = [U for U in subsets if all(b in U for a, b in leq if a in U)]
        for D, U in itertools.product(downs, ups):
            if D & U or any((d, u) not in leq for d in D for u in U):
                continue
            posets.append(leq | {(top, top), *[(d, top) for d in D],
                                 *[(top, u) for u in U]})
    flat = np.zeros((len(posets), n * n), bool)
    for k, leq in enumerate(posets):
        flat[k, [i * n + j for i, j in leq]] = True
    order = np.lexsort(flat.T)  # the last key, bit n*n - 1, leads
    R = flat[order].reshape(-1, n, n)
    R.flags.writeable = False
    return tuple([posets[k] for k in order]), R


def enumerate_orders(n: int, table):
    """The labeled partial orders on n elements compatible with each
    operation of the table on both sides, bitmask-ascending: the posets of
    ``_posets(n)`` that ``structure.compatible`` keeps, all tested at once.
    """
    orders, R = _posets(n)
    yield from itertools.compress(orders, compatible(table, R))


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
    enumerator tests once per table at m >= 2 before it lists that table's
    orders.
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
    # each table with its automorphisms but the identity; none when labeled
    if not spec.up_to_iso:
        tables = ((table, ()) for table in enumerate_tables(n, m))
    elif m == 1:
        tables = ((tuple((row,) for row in table), autos[1:])
                  for table, autos in _canonical_semigroups(n))
    else:
        tables = ((table, _automorphisms(n, m, table)[1:])
                  for table in enumerate_tables(n, m)
                  if _encoding(n, m, table, ())
                  == canonical_encoding(n, m, table, ()))
    pairs = ((table, leq) for table, autos in tables
             for leq in enumerate_orders(n, table)
             if all(sorted([(p[i], p[j]) for i, j in leq]) >= sorted(leq)
                    for p in autos))
    structures = (GammaStructure(labels, glabels, table, leq, True, True)
                  for table, leq in pairs)
    yield from itertools.islice(structures, spec.limit)
