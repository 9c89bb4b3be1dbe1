"""Finite ordered gamma-groupoids and gamma-semigroups.

A gamma structure is a finite carrier M together with a finite family of
binary operations (indexed by "gamma" labels) and a partial order on M.
The order is expected to be compatible with every operation on both sides;
``compatible`` states that once, for the enumerator and for validation.
Validation closes the order into one boolean relation matrix, which
``compatible`` reads, tests associativity in numpy one element at a time,
and records both flags (compatibility can be relaxed on request).
All set-level primitives (downward closure, subset products, principal
ideals, the factorization relation) live here.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


class StructureError(ValueError):
    """A structure or membership description breaks a validation rule."""


@dataclass(frozen=True)
class GammaStructure:
    """Validated finite ordered gamma-groupoid.

    ``table[x][g][y]`` is the index of ``elements[x] * elements[y]`` under
    operation ``gammas[g]``.  ``leq`` is the full reflexive-transitive order
    relation as index pairs ``(i, j)`` meaning ``elements[i] <= elements[j]``.
    Instances are immutable and safe for concurrent reads.
    """

    elements: tuple[str, ...]
    gammas: tuple[str, ...]
    table: tuple[tuple[tuple[int, ...], ...], ...]
    leq: frozenset[tuple[int, int]]
    associative: bool
    compatible: bool

    @property
    def n(self) -> int:
        return len(self.elements)

    @property
    def m(self) -> int:
        return len(self.gammas)

    def le(self, i: int, j: int) -> bool:
        return (i, j) in self.leq

    def index(self, label: str) -> int:
        try:
            return self.elements.index(label)
        except ValueError:
            raise StructureError(f"unknown element label {label!r}") from None

    def carrier(self) -> frozenset[int]:
        return frozenset(range(self.n))

    def __hash__(self) -> int:
        # memoized like digest, from the int-valued fields only: str hashes
        # vary between processes, and a pickled structure keeps its memo
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = hash((self.table, self.leq))
            object.__setattr__(self, "_hash", cached)
        return cached

    def digest(self) -> str:
        # memoized outside the dataclass fields, so eq and hash ignore it
        cached = self.__dict__.get("_digest")
        if cached is None:
            # json encodes tuples as arrays
            blob = json.dumps(
                [self.elements, self.gammas, self.table, sorted(self.leq)],
                separators=(",", ":"),
            )
            cached = hashlib.sha256(blob.encode()).hexdigest()[:12]
            object.__setattr__(self, "_digest", cached)
        return cached

    def opposite(self) -> "GammaStructure":
        """Mirror structure: the outer arguments of every product swapped."""
        table = tuple(
            tuple(tuple(self.table[y][g][x] for y in range(self.n))
                  for g in range(self.m))
            for x in range(self.n)
        )
        return GammaStructure(self.elements, self.gammas, table, self.leq,
                              self.associative, self.compatible)


def transitive_closure(n: int, pairs) -> np.ndarray:
    """Reflexive-transitive closure of index pairs, as a boolean matrix."""
    R = np.eye(n, dtype=bool)
    for i, j in pairs:
        R[i, j] = True
    for k in range(n):  # Warshall: route every i <= k <= j through k
        R |= R[:, k, None] & R[k]
    return R


def table_is_associative(table) -> bool:
    """Whether (x γ y) μ z = x γ (y μ z) throughout, tested one x at a
    time: O(n²m²) memory, and the first failing x ends the check."""
    T = np.asarray(table)  # T[x, g, y] = x g y
    n, m = T.shape[:2]
    G, Y, MU, Z = np.indices((m, n, m, n), sparse=True)
    YZ = T[Y, MU, Z]
    return all((T[T[x, G, Y], MU, Z] == T[x, G, YZ]).all() for x in range(n))


def compatible(table, R):
    """Two-sided compatibility over a stack of relations: for each
    ``R[..., :, :]`` (``R[..., i, j]`` read as i <= j), whether i <= j
    implies i γ c <= j γ c and c γ i <= c γ j for every operation γ and
    element c (Kehayopulu and Tsingelis, Semigroup Forum, 2002).
    """
    T = np.asarray(table)  # T[x, g, y] = x g y
    n, m = T.shape[:2]
    I, J, G, C = np.indices((n, n, m, n), sparse=True)
    held = R[..., I, J]
    kept = ((held <= R[..., T[I, G, C], T[J, G, C]])
            & (held <= R[..., T[C, G, I], T[C, G, J]]))
    return kept.all(axis=(-4, -3, -2, -1))


def _is_index(v, n: int) -> bool:
    """Whether v is an int, not a bool, naming one of n elements."""
    return isinstance(v, int) and not isinstance(v, bool) and 0 <= v < n


def _is_list(v, size: int) -> bool:
    """Whether v is a list or tuple of the given length."""
    return isinstance(v, (list, tuple)) and len(v) == size


def validate_structure(elements, gammas, table, order,
                       require_compat: bool = True) -> GammaStructure:
    """Build a GammaStructure from raw parts.

    ``order`` may be any iterable of generating pairs, read once; the
    reflexive-transitive closure is taken before antisymmetry is checked.
    With ``require_compat=False`` an order-incompatible structure is
    accepted and flagged via the ``compatible`` attribute.
    """
    try:
        elements, gammas = tuple(map(str, elements)), tuple(map(str, gammas))
    except TypeError:
        raise StructureError("labels must be iterables") from None
    if not elements:
        raise StructureError("carrier must be nonempty")
    if not gammas:
        raise StructureError("operation family must be nonempty")
    if len(set(elements)) != len(elements):
        raise StructureError("duplicate element labels")
    if len(set(gammas)) != len(gammas):
        raise StructureError("duplicate operation labels")
    n, m = len(elements), len(gammas)

    if not _is_list(table, n):
        raise StructureError(f"'table' must be a list of {n} planes")
    planes = []
    for x, plane in enumerate(table):
        if not _is_list(plane, m):
            raise StructureError(f"table plane {x} must be a list of {m} rows")
        rows = []
        for row in plane:
            if not _is_list(row, n):
                raise StructureError(
                    f"table row in plane {x} must be a list of {n} entries")
            for v in row:
                if not _is_index(v, n):
                    raise StructureError(f"table entry {v!r} out of range")
            rows.append(tuple(row))
        planes.append(tuple(rows))
    table = tuple(planes)

    try:
        order = list(order)  # read once: it may be a one-shot iterator
    except TypeError:
        raise StructureError("'order' must be an iterable of pairs") from None
    for pair in order:
        if not _is_list(pair, 2):
            raise StructureError(f"bad order pair {pair!r}")
        if not all(_is_index(v, n) for v in pair):
            raise StructureError(f"bad order pair {tuple(pair)} out of range")
    R = transitive_closure(n, order)
    leq = frozenset(zip(*(a.tolist() for a in R.nonzero())))  # row-major
    for i, j in leq:
        if i != j and (j, i) in leq:
            raise StructureError(
                f"antisymmetry violation between {elements[i]!r} and "
                f"{elements[j]!r}")

    T = np.asarray(table)
    compat = bool(compatible(T, R))
    if require_compat and not compat:
        raise StructureError("order is not compatible with the operations")

    return GammaStructure(elements, gammas, table, leq,
                          table_is_associative(T), compat)


def require_checkable(S: GammaStructure, task: str) -> None:
    """Raise unless S is associative and its order compatible, as
    classification and the law checks presuppose; ``task`` opens the
    message, e.g. "law checks require"."""
    for ok, kind in ((S.associative, "associative"),
                     (S.compatible, "order-compatible")):
        if not ok:
            raise StructureError(f"{task} an {kind} structure")


def downward_closure(S: GammaStructure, subset) -> frozenset[int]:
    """All elements lying below some member of ``subset``."""
    subset = frozenset(subset)
    return frozenset(i for i, j in S.leq if j in subset)


def subset_product(S: GammaStructure, A, B) -> frozenset[int]:
    """{a * b : a in A, b in B} over every operation."""
    out = set()
    for a in A:
        for g in range(S.m):
            row = S.table[a][g]
            for b in B:
                out.add(row[b])
    return frozenset(out)


def one_sided_product(S: GammaStructure, A, side: str) -> frozenset[int]:
    """A Γ M for ``side="right"``, M Γ A for ``side="left"``.

    This is the side convention of every right/left pair in the package:
    a right ideal absorbs the carrier on its right, a left ideal on its
    left, and each pair is one function taking ``side``.  Any other side
    raises ``ValueError``.
    """
    M = S.carrier()
    if side == "right":
        return subset_product(S, A, M)
    if side == "left":
        return subset_product(S, M, A)
    raise ValueError(f"side must be 'right' or 'left', got {side!r}")


def principal_ideal(S: GammaStructure, a: int, side: str) -> frozenset[int]:
    """The least one-sided ideal containing a: the closure of a ∪ a Γ M
    (right) or a ∪ M Γ a (left)."""
    return downward_closure(S, {a} | one_sided_product(S, {a}, side))


# perfbench's laws-n4 cycles 8 structures and rebuilds the law context on
# each check_all: 72 of 80 calls hit in 40 passes (pool-sweep: 0 of 2 054,
# census: none). Bounded, so a stream does not keep every relation alive
@lru_cache(maxsize=64)
def factorizations(S: GammaStructure) -> tuple[frozenset[tuple[int, int]], ...]:
    """For each a, the deduplicated pairs (y, z) with a <= y*z for some op."""
    below = [[] for _ in range(S.n)]
    for i, j in S.leq:
        below[j].append(i)
    out = [set() for _ in range(S.n)]
    for y, plane in enumerate(S.table):
        for row in plane:
            for z, p in enumerate(row):
                for a in below[p]:
                    out[a].add((y, z))
    return tuple(frozenset(pairs) for pairs in out)

