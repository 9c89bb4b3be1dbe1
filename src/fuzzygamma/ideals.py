"""Crisp ideal theory and the four regularity classes.

Each class is decided by several independent procedures that must agree:
a definitional membership check, an ideal-criterion check (regular and
intra-regular only) and a fuzzy-witness check built from point
characteristics.  Disagreement is a fatal internal error, never a report
state.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import fuzzy
from .structure import (GammaStructure, chain_product, downward_closure,
                        subset_product)

CLASS_NAMES = ("regular", "intra_regular", "right_regular", "left_regular")


class DeciderDisagreement(RuntimeError):
    """Two decision procedures for the same class returned different verdicts."""


def is_right_ideal(S: GammaStructure, A) -> bool:
    A = frozenset(A)
    return (subset_product(S, A, S.carrier()) <= A
            and downward_closure(S, A) == A)


def is_left_ideal(S: GammaStructure, A) -> bool:
    A = frozenset(A)
    return (subset_product(S, S.carrier(), A) <= A
            and downward_closure(S, A) == A)


def all_subsets(S: GammaStructure):
    for bits in range(2 ** S.n):
        yield frozenset(i for i in range(S.n) if bits >> i & 1)


def right_ideals(S: GammaStructure):
    return [A for A in all_subsets(S) if is_right_ideal(S, A)]


def left_ideals(S: GammaStructure):
    return [A for A in all_subsets(S) if is_left_ideal(S, A)]


def principal_right_ideal(S: GammaStructure, a: int) -> frozenset[int]:
    return downward_closure(S, {a} | subset_product(S, {a}, S.carrier()))


def principal_left_ideal(S: GammaStructure, a: int) -> frozenset[int]:
    return downward_closure(S, {a} | subset_product(S, S.carrier(), {a}))


# --- per-element definitional memberships -------------------------------

def element_regular(S: GammaStructure, a: int) -> bool:
    M = S.carrier()
    return a in downward_closure(S, chain_product(S, {a}, M, {a}))


def element_intra_regular(S: GammaStructure, a: int) -> bool:
    M = S.carrier()
    return a in downward_closure(S, chain_product(S, M, {a}, {a}, M))


def element_right_regular(S: GammaStructure, a: int) -> bool:
    M = S.carrier()
    return a in downward_closure(S, chain_product(S, {a}, {a}, M))


def element_left_regular(S: GammaStructure, a: int) -> bool:
    M = S.carrier()
    return a in downward_closure(S, chain_product(S, M, {a}, {a}))


_ELEMENT_TESTS = {
    "regular": element_regular,
    "intra_regular": element_intra_regular,
    "right_regular": element_right_regular,
    "left_regular": element_left_regular,
}


# --- ideal criteria -----------------------------------------------------

def regular_ideal_criterion(S: GammaStructure, a: int) -> bool:
    R = principal_right_ideal(S, a)
    L = principal_left_ideal(S, a)
    return (R & L) <= downward_closure(S, subset_product(S, R, L))


def intra_ideal_criterion(S: GammaStructure, a: int) -> bool:
    R = principal_right_ideal(S, a)
    L = principal_left_ideal(S, a)
    return (R & L) <= downward_closure(S, subset_product(S, L, R))


def _every_element(test):
    return lambda S: all(test(S, a) for a in range(S.n))


# --- fuzzy-witness deciders ---------------------------------------------
# Each evaluates the relevant composition chain at the single point a with
# the point characteristic of a, following the converse arguments of the
# corresponding characterizations.

_FUZZY_SHAPES = {
    "regular": "f1f",
    "intra_regular": "1ff1",
    "right_regular": "ff1",
    "left_regular": "1ff",
}


def _every_point_chain(shape):
    def decide(S):
        one = fuzzy.constant_one(S)
        return all(fuzzy.chain(shape, fuzzy.point_characteristic(S, a),
                               fuzzy.compose, one).values[a] == 1.0
                   for a in range(S.n))
    return decide


# --- witnesses ----------------------------------------------------------
# Positive witnesses rescan products to recover concrete operation indices
# (the factorization relation drops them); ties broken by smallest index.

def regular_witness(S: GammaStructure, a: int):
    for x in range(S.n):
        for g in range(S.m):
            p = S.table[a][g][x]
            for mu in range(S.m):
                if S.le(a, S.table[p][mu][a]):
                    return {"element": S.elements[a], "x": S.elements[x],
                            "gammas": [S.gammas[g], S.gammas[mu]]}
    return None


def intra_regular_witness(S: GammaStructure, a: int):
    for x in range(S.n):
        for y in range(S.n):
            for g1 in range(S.m):
                p = S.table[x][g1][a]
                for g2 in range(S.m):
                    q = S.table[p][g2][a]
                    for g3 in range(S.m):
                        if S.le(a, S.table[q][g3][y]):
                            return {"element": S.elements[a],
                                    "x": S.elements[x], "y": S.elements[y],
                                    "gammas": [S.gammas[g1], S.gammas[g2],
                                               S.gammas[g3]]}
    return None


def right_regular_witness(S: GammaStructure, a: int):
    for x in range(S.n):
        for g1 in range(S.m):
            p = S.table[a][g1][a]
            for g2 in range(S.m):
                if S.le(a, S.table[p][g2][x]):
                    return {"element": S.elements[a], "x": S.elements[x],
                            "gammas": [S.gammas[g1], S.gammas[g2]]}
    return None


def left_regular_witness(S: GammaStructure, a: int):
    for x in range(S.n):
        for g1 in range(S.m):
            p = S.table[x][g1][a]
            for g2 in range(S.m):
                if S.le(a, S.table[p][g2][a]):
                    return {"element": S.elements[a], "x": S.elements[x],
                            "gammas": [S.gammas[g1], S.gammas[g2]]}
    return None


_WITNESS_FNS = {
    "regular": regular_witness,
    "intra_regular": intra_regular_witness,
    "right_regular": right_regular_witness,
    "left_regular": left_regular_witness,
}

# Every procedure deciding each class, by kind: "definitional", "ideal"
# (regular and intra-regular only) and "fuzzy".
_DECIDERS = {name: {"definitional": _every_element(test)}
             for name, test in _ELEMENT_TESTS.items()}
_DECIDERS["regular"]["ideal"] = _every_element(regular_ideal_criterion)
_DECIDERS["intra_regular"]["ideal"] = _every_element(intra_ideal_criterion)
for name, shape in _FUZZY_SHAPES.items():
    _DECIDERS[name]["fuzzy"] = _every_point_chain(shape)


@dataclass(frozen=True)
class ClassVerdict:
    holds: bool
    deciders: dict[str, bool]
    witnesses: tuple[dict, ...]      # one factorization per element if holds
    failing_element: str | None     # first failing element otherwise


@dataclass(frozen=True)
class ClassificationReport:
    structure: str
    classes: dict[str, ClassVerdict]


def classify(S: GammaStructure) -> ClassificationReport:
    """Run every applicable decider per class and assert agreement."""
    if not S.associative:
        raise ValueError("classification requires an associative structure")
    if not S.compatible:
        raise ValueError("classification requires an order-compatible structure")
    classes = {}
    for name in CLASS_NAMES:
        verdicts = {dn: fn(S) for dn, fn in _DECIDERS[name].items()}
        if len(set(verdicts.values())) > 1:
            raise DeciderDisagreement(
                f"deciders disagree on class {name!r} for structure "
                f"{S.digest()}: {verdicts}")
        holds = next(iter(verdicts.values()))
        if holds:
            witnesses = tuple(_WITNESS_FNS[name](S, a) for a in range(S.n))
            failing = None
        else:
            witnesses = ()
            failing = next(S.elements[a] for a in range(S.n)
                           if not _ELEMENT_TESTS[name](S, a))
        classes[name] = ClassVerdict(holds, verdicts, witnesses, failing)
    return ClassificationReport(S.digest(), classes)
