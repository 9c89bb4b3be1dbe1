"""Crisp ideal theory and the four regularity classes.

Each class is stated once, as its word in :data:`CLASS_WORDS`: ``f``
stands for the element a and ``1`` for a free element of M, so regular
(``f1f``) reads a <= a Γ M Γ a.  Two procedures read the word: the
witness search, which is the definitional element test, and the fuzzy
decider.  The principal-ideal criterion (regular and intra-regular only)
does not, and all procedures deciding a class must agree: disagreement is
a fatal internal error, never a report state.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache, partial

from . import fuzzy
from .structure import (GammaStructure, downward_closure, one_sided_product,
                        principal_ideal, require_checkable, subset_product)

CLASS_WORDS = {
    "regular": "f1f",          # a <= a Γ M Γ a
    "intra_regular": "1ff1",   # a <= M Γ a Γ a Γ M
    "right_regular": "ff1",    # a <= a Γ a Γ M
    "left_regular": "1ff",     # a <= M Γ a Γ a
}
CLASS_NAMES = tuple(CLASS_WORDS)


class DeciderDisagreement(RuntimeError):
    """Two decision procedures for the same class returned different verdicts."""


def is_ideal(S: GammaStructure, A, side: str) -> bool:
    """Whether A is a downward-closed one-sided ideal on ``side``."""
    A = frozenset(A)
    return (one_sided_product(S, A, side) <= A
            and downward_closure(S, A) == A)


def all_subsets(S: GammaStructure):
    for bits in range(2 ** S.n):
        yield frozenset(i for i in range(S.n) if bits >> i & 1)


def in_class(S: GammaStructure, a: int, name: str) -> bool:
    """Definitional test: a lies below a product of its class's word."""
    return _shared(S).witness(a, name) is not None


class _Shared:
    """What the deciders read of one structure, each computed once: the
    point characteristics, the constant one, the compositions of these
    made so far, the principal right and left ideal of each element, and
    the witness searches made so far.

    ``compose`` memoizes by operand identity, which is sound since every
    operand is one of the objects held here, and delegates to the
    module-global ``fuzzy.compose``: the scalar oracle still makes every
    composition, and the class words share ``p∘p`` and ``1∘(p∘p)``.
    """

    def __init__(self, S: GammaStructure):
        self.points = tuple(fuzzy.point_characteristic(S, a)
                            for a in range(S.n))
        self.one = fuzzy.constant_one(S)
        self.right = tuple(principal_ideal(S, a, "right") for a in range(S.n))
        self.left = tuple(principal_ideal(S, a, "left") for a in range(S.n))
        self._products = {}
        self.witness = lru_cache(maxsize=None)(partial(witness, S))

    def compose(self, f, g):
        key = (id(f), id(g))
        out = self._products.get(key)
        if out is None:
            out = self._products[key] = fuzzy.compose(f, g)
        return out


# one entry: the deciders of every class, and the law checks and witness
# replays that follow on the same structure, share it
_shared = lru_cache(maxsize=1)(_Shared)


def ideal_criterion(S: GammaStructure, a: int, reverse: bool = False) -> bool:
    """R(a) ∩ L(a) lies below R(a) Γ L(a), or L(a) Γ R(a) with ``reverse``:
    the principal-ideal criterion of regularity (of intra-regularity when
    reversed)."""
    shared = _shared(S)
    R, L = shared.right[a], shared.left[a]
    A, B = (L, R) if reverse else (R, L)
    return (R & L) <= downward_closure(S, subset_product(S, A, B))


def _every_element(test, *args):
    return lambda S: all(test(S, a, *args) for a in range(S.n))


def _every_point_chain(word):
    # the class's word as a composition chain of the point characteristic
    # of a, evaluated at a (the converse arguments of the characterizations)
    def decide(S):
        shared = _shared(S)
        return all(fuzzy.chain(word, p, shared.compose,
                               shared.one).values[a] == 1.0
                   for a, p in enumerate(shared.points))
    return decide


# --- witnesses ----------------------------------------------------------
# Positive witnesses rescan products to recover concrete operation indices
# (the factorization relation drops them).

def _least_operations(table, ops, leq, a: int, acc: int, operands):
    """The lexicographically least operations (g1, g2, ...) with
    a <= acc g1 operands[0] g2 operands[1] ..., taken left to right."""
    row, nxt, rest = table[acc], operands[0], operands[1:]
    for g in ops:
        if not rest:
            if (a, row[g][nxt]) in leq:
                return (g,)
            continue
        found = _least_operations(table, ops, leq, a, row[g][nxt], rest)
        if found is not None:
            return (g,) + found
    return None


def witness(S: GammaStructure, a: int, name: str):
    """The first factorization of a through its class's word, or None.

    Free elements (``x``, then ``y``) vary slowest, then the operations,
    each ascending; the product is taken left to right.
    """
    word = CLASS_WORDS[name]
    ops, free = range(S.m), range(S.n)
    for operands in itertools.product(
            *[(a,) if c == "f" else free for c in word]):
        gammas = _least_operations(S.table, ops, S.leq, a, operands[0],
                                   operands[1:])
        if gammas is not None:
            w = {"element": S.elements[a]}
            w.update(zip(("x", "y"), (S.elements[o] for o, c
                                      in zip(operands, word) if c == "1")))
            w["gammas"] = [S.gammas[g] for g in gammas]
            return w
    return None


# Every procedure deciding each class, by kind: "definitional", "ideal"
# (regular and intra-regular only) and "fuzzy".
_DECIDERS = {name: {"definitional": _every_element(in_class, name)}
             for name in CLASS_NAMES}
_DECIDERS["regular"]["ideal"] = _every_element(ideal_criterion)
_DECIDERS["intra_regular"]["ideal"] = _every_element(ideal_criterion, True)
for name, word in CLASS_WORDS.items():
    _DECIDERS[name]["fuzzy"] = _every_point_chain(word)


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
    require_checkable(S, "classification requires")
    shared = _shared(S)
    classes = {}
    for name in CLASS_NAMES:
        # one witness search per element, up to the first failing one,
        # gives the definitional verdict, the witnesses and the failing
        # element
        found = tuple(itertools.takewhile(
            lambda w: w is not None,
            (shared.witness(a, name) for a in range(S.n))))
        verdicts = {dn: len(found) == S.n if dn == "definitional" else fn(S)
                    for dn, fn in _DECIDERS[name].items()}
        if len(set(verdicts.values())) > 1:
            raise DeciderDisagreement(
                f"deciders disagree on class {name!r} for structure "
                f"{S.digest()}: {verdicts}")
        holds = verdicts["definitional"]
        failing = None if holds else S.elements[len(found)]
        classes[name] = ClassVerdict(holds, verdicts,
                                     found if holds else (), failing)
    return ClassificationReport(S.digest(), classes)
