"""Fuzzy subsets over a gamma structure and their sup-min calculus.

A fuzzy subset assigns each carrier element a membership degree in [0, 1].
Composition is sup-min, computed from its definition over the table and
the order alone: the numpy kernels read the factorization relation
instead, so the two share no code.  The order, meet and the constant-one
subset make the fuzzy subsets an ordered algebra.  The four fuzzy ideal
predicates are provided in definitional form, each stated once
as its pointwise inequalities (:func:`ideal_inequalities`), and in
composition-inequality form (both must agree on valid structures; the
agreement itself is verified in the law registry).

Membership degrees only ever flow through comparisons, min and max, so
binary64 floats are exact here.
"""

from __future__ import annotations

import numbers
import random
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .structure import GammaStructure, StructureError, principal_ideal


@dataclass(frozen=True)
class FuzzySubset:
    """Membership map bound to one structure; immutable."""

    structure: GammaStructure
    values: tuple[float, ...]

    def __post_init__(self):
        S = self.structure
        vals = tuple(self.values) if np.iterable(self.values) else ()
        if len(vals) != S.n:  # a non-iterable reads as empty; n >= 1
            raise StructureError(f"membership vector must have length {S.n}")
        for label, v in zip(S.elements, vals):
            # compared before float(), which overflows on huge integers
            if (not isinstance(v, numbers.Real) or isinstance(v, bool)
                    or not 0 <= v <= 1):
                raise StructureError(f"membership for {label!r} must be a "
                                     f"number in [0, 1], got {v!r}")
        object.__setattr__(self, "values", tuple(map(float, vals)))

    def __call__(self, i: int) -> float:
        return self.values[i]

    def to_dict(self) -> dict[str, float]:
        return dict(zip(self.structure.elements, self.values))


def _trusted(S: GammaStructure, values: tuple[float, ...]) -> FuzzySubset:
    """A FuzzySubset without validation, for values this module builds and
    knows to be floats in [0, 1]: constants, grid levels, random draws, and
    mins and maxes of validated memberships."""
    f = object.__new__(FuzzySubset)
    object.__setattr__(f, "structure", S)
    object.__setattr__(f, "values", values)
    return f


def _require_same(f: FuzzySubset, g: FuzzySubset) -> None:
    # identity first: comparing equal structures field by field is costly
    if f.structure is not g.structure and f.structure != g.structure:
        raise ValueError("fuzzy subsets bound to different structures")


def compose(f: FuzzySubset, g: FuzzySubset) -> FuzzySubset:
    """Sup-min composition from its definition over the table and the order:
    (f∘g)(a) is the sup of min(f(y), g(z)) over a <= y γ z, so the best
    ``at[p]`` with a <= p, where ``at[p]`` is the best min(f(y), g(z)) with
    y γ z = p over the y and z of nonzero membership."""
    _require_same(f, g)
    S = f.structure
    zs = [(z, u) for z, u in enumerate(g.values) if u > 0]
    at, vals = [0.0] * S.n, [0.0] * S.n
    for y, w in enumerate(f.values):
        if w > 0:
            for row in S.table[y]:
                for z, u in zs:
                    p = row[z]
                    if u > w:
                        u = w
                    if u > at[p]:
                        at[p] = u
    for a, p in S.leq:
        if at[p] > vals[a]:
            vals[a] = at[p]
    return _trusted(S, tuple(vals))


def square(f: FuzzySubset) -> FuzzySubset:
    return compose(f, f)


def chain(word: str, f, compose, one):
    """Evaluate a composition word such as ``"f1f"`` or ``"1ff1"``.

    ``compose`` and ``one`` give the calculus: :func:`compose` and the
    constant one for fuzzy subsets, or any other operands and composition.
    The bracketing is fixed, since on a non-associative table it matters:
    the core (``f``, ``f f`` or ``(f 1) f``) first, then a leading one, then
    a trailing one, so ``"1ff1"`` is ``(1 (f f)) 1``.
    """
    core = word.strip("1")
    if core == "f":
        out = f
    elif core == "ff":
        out = compose(f, f)
    elif core == "f1f":
        out = compose(compose(f, one), f)
    else:
        raise ValueError(f"unknown composition word {word!r}")
    if word.startswith("1"):
        out = compose(one, out)
    if word.endswith("1"):
        out = compose(out, one)
    return out


def meet(f: FuzzySubset, g: FuzzySubset) -> FuzzySubset:
    _require_same(f, g)
    return _trusted(f.structure,
                    tuple(min(a, b) for a, b in zip(f.values, g.values)))


def leq(f: FuzzySubset, g: FuzzySubset) -> bool:
    _require_same(f, g)
    return all(a <= b for a, b in zip(f.values, g.values))


def constant_one(S: GammaStructure) -> FuzzySubset:
    return _trusted(S, (1.0,) * S.n)


def constant_zero(S: GammaStructure) -> FuzzySubset:
    return _trusted(S, (0.0,) * S.n)


def characteristic(S: GammaStructure, subset) -> FuzzySubset:
    subset = frozenset(subset)
    return _trusted(S, tuple(1.0 if i in subset else 0.0
                             for i in range(S.n)))


def point_characteristic(S: GammaStructure, a: int) -> FuzzySubset:
    return characteristic(S, {a})


# bounded, so a sweep over many structures does not keep every list alive
@lru_cache(maxsize=64)
def ideal_inequalities(S: GammaStructure,
                       name: str) -> tuple[tuple[int, int, int], ...]:
    """The inequalities ``f(t) >= min(f(x), f(z))`` defining a fuzzy ideal.

    ``name`` is "order_reversing" (``f(i) >= f(j)`` for each ``i < j``),
    "right" (also ``f(x γ y) >= f(x)``), "left" (also ``f(x γ y) >= f(y)``)
    or "bi" (also ``f((x γ y) μ z) >= min(f(x), f(z))``, over all pairs of
    operations).  Returns the distinct triples ``(t, x, z)`` with
    ``x <= z``, leaving out those with ``t == x == z``, which always hold.
    """
    if name == "bi" and not S.associative:
        raise ValueError("bi-ideal predicate requires an associative structure")
    T, n, m = S.table, range(S.n), range(S.m)
    triples = [(i, j, j) for i, j in sorted(S.leq) if i != j]
    if name == "right":
        triples += [(T[x][g][y], x, x) for x in n for g in m for y in n]
    elif name == "left":
        triples += [(T[x][g][y], y, y) for x in n for g in m for y in n]
    elif name == "bi":
        triples += [(T[T[x][g][y]][mu][z], x, z)
                    for x in n for g in m for y in n for mu in m for z in n]
    elif name != "order_reversing":
        raise ValueError(f"unknown fuzzy ideal notion {name!r}")
    return tuple(dict.fromkeys((t, min(x, z), max(x, z))
                               for t, x, z in triples if not t == x == z))


def satisfies(f: FuzzySubset, name: str) -> bool:
    """Whether f meets every inequality of ``ideal_inequalities``."""
    v = f.values
    return all(v[t] >= min(v[x], v[z])
               for t, x, z in ideal_inequalities(f.structure, name))


def is_fuzzy_ideal(f: FuzzySubset, side: str) -> bool:
    """Order reversing, with f(x γ y) >= f(x) (right) or >= f(y) (left).
    Any other side raises ``ValueError``, as in ``one_sided_product``."""
    if side not in ("right", "left"):
        raise ValueError(f"side must be 'right' or 'left', got {side!r}")
    return satisfies(f, side)


def is_fuzzy_quasi_ideal(f: FuzzySubset) -> bool:
    one = constant_one(f.structure)
    return (satisfies(f, "order_reversing")
            and leq(meet(compose(f, one), compose(one, f)), f))


def is_below_chain(f: FuzzySubset, word: str) -> bool:
    """Composition form of an ideal predicate: order reversing and
    ``chain(word, f)`` below f."""
    return (satisfies(f, "order_reversing")
            and leq(chain(word, f, compose, constant_one(f.structure)), f))


def is_fuzzy_bi_ideal_via_composition(f: FuzzySubset) -> bool:
    if not f.structure.associative:
        raise ValueError("bi-ideal predicate requires an associative structure")
    return is_below_chain(f, "f1f")


def generated_fuzzy_ideal(f: FuzzySubset, side: str) -> FuzzySubset:
    """Pointwise-least fuzzy one-sided ideal lying above f (associative case)."""
    S = f.structure
    principal = [principal_ideal(S, t, side) for t in range(S.n)]
    return _trusted(S, tuple(
        max(f.values[t] for t in range(S.n) if x in principal[t])
        for x in range(S.n)))


GRID_CAP = 1_000_000
SAMPLED_COUNT = 10_000


@dataclass(frozen=True)
class GridBattery:
    """Finite test universe of fuzzy subsets.

    Exhaustive where the L-level uniform grid has at most ``GRID_CAP``
    members: every membership vector on it, in lexicographic order (element
    index major, level ascending).  Past the cap it is sampled: ``samples``
    seeded uniform random vectors, then every characteristic function, the
    generated one-sided ideals of point characteristics among them.
    """

    levels: int
    seed: int = 0
    samples: int = SAMPLED_COUNT

    def __post_init__(self):
        for name, low in (("levels", 2), ("samples", 0)):
            if type(v := getattr(self, name)) is not int or v < low:
                raise ValueError(f"need at least {low} {name}, an int: {v!r}")

    def sampled(self, S: GammaStructure) -> bool:
        return self.levels ** S.n > GRID_CAP

    def describe(self, S: GammaStructure) -> str:
        if not self.sampled(S):
            return (f"exhaustive grid L={self.levels} "
                    f"({self.levels ** S.n} members)")
        return (f"sampled battery ({self.samples} draws, seed={self.seed}) "
                f"+ characteristics + generated point ideals")


def grid_levels(levels: int) -> tuple[float, ...]:
    return tuple(i / (levels - 1) for i in range(levels))


def default_levels(S: GammaStructure) -> int:
    # laws are decided on 0/1 rows, so the level count picks only the witness:
    # 2n+2 levels reproduce any real-valued one in 2n values (0 and 1 fixed)
    return 2 * S.n + 2


def default_battery(S: GammaStructure, levels: int | None = None,
                    seed: int = 0) -> GridBattery:
    return GridBattery(levels if levels is not None else default_levels(S),
                       seed=seed)


def crisp_array(n: int) -> np.ndarray:
    """Every 0/1 row on n elements, row ``bits`` holding bit i at column i."""
    return (np.arange(2 ** n)[:, None] >> np.arange(n) & 1).astype(float)


def battery_array(S: GammaStructure, battery: GridBattery) -> np.ndarray:
    """The battery's members, in battery order, as the rows of one array."""
    n = S.n
    if not battery.sampled(S):
        grid = np.meshgrid(*[grid_levels(battery.levels)] * n, indexing="ij")
        return np.stack(grid, -1).reshape(-1, n)
    rng = random.Random(battery.seed)
    draws = [[rng.random() for _ in range(n)] for _ in range(battery.samples)]
    return np.concatenate([np.array(draws).reshape(-1, n), crisp_array(n)])


def enumerate_grid_battery(S: GammaStructure, battery: GridBattery):
    """The rows of :func:`battery_array`, as fuzzy subsets."""
    for row in battery_array(S, battery):
        yield _trusted(S, tuple(row.tolist()))
