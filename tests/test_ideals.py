import hashlib
import json

import pytest

import naive_oracle
from fuzzygamma import (cli, enumeration, fuzzy, ideals, serialize,
                        structure, theorems)
from fuzzygamma.enumeration import SearchSpec, enumerate_structures
from fuzzygamma.fuzzy import FuzzySubset, GridBattery, characteristic, \
    is_fuzzy_ideal
from fuzzygamma.ideals import CLASS_NAMES, classify, is_ideal
from fuzzygamma.structure import factorizations, principal_ideal

DECIDERS = ideals._DECIDERS


def test_crisp_ideal_examples(NZ2):
    assert is_ideal(NZ2, {0}, "right")
    assert not is_ideal(NZ2, {1}, "right")
    for side in ("right", "left"):
        assert is_ideal(NZ2, NZ2.carrier(), side)


def test_principal_ideal_examples(T1, LZ2, NZ2):
    assert principal_ideal(NZ2, 1, "right") == {0, 1}
    assert principal_ideal(LZ2, 0, "right") == {0}
    assert principal_ideal(LZ2, 0, "left") == {0, 1}
    for side in ("right", "left"):
        assert principal_ideal(T1, 0, side) == {0}


@pytest.mark.parametrize("call, side", [
    (lambda S, side: ideals.is_ideal(S, {0}, side), "bi"),
    (lambda S, side: ideals.principal_ideal(S, 0, side), "bi"),
    (lambda S, side: fuzzy.generated_fuzzy_ideal(
        FuzzySubset(S, (0.2, 0.6)), side), "bi"),
    (lambda S, side: fuzzy.is_fuzzy_ideal(
        FuzzySubset(S, (0.2, 0.6)), side), "bi"),
    (lambda S, side: fuzzy.is_fuzzy_ideal(
        FuzzySubset(S, (0.2, 0.6)), side), "order_reversing"),
], ids=["is_ideal", "principal_ideal", "generated_fuzzy_ideal",
        "is_fuzzy_ideal-bi", "is_fuzzy_ideal-order_reversing"])
def test_unknown_side_raises(LZ2, call, side):
    # on the left-zero band a side read as "left" would answer quietly
    with pytest.raises(ValueError, match=f"'{side}'"):
        call(LZ2, side)


def test_principal_ideals_are_ideals(labeled_pool):
    for S in labeled_pool[:100]:
        for a in range(S.n):
            for side in ("right", "left"):
                P = principal_ideal(S, a, side)
                assert a in P
                assert is_ideal(S, P, side)


def test_principal_right_ideal_minimal(labeled_pool):
    # smallest right ideal containing a, over all 2^n subsets
    for S in labeled_pool[:100]:
        for a in range(S.n):
            R = principal_ideal(S, a, "right")
            for B in ideals.all_subsets(S):
                if a in B and is_ideal(S, B, "right"):
                    assert R <= B


def test_definitional_deciders(T1, LZ2, NZ2):
    for decide in (DECIDERS[name]["definitional"] for name in CLASS_NAMES):
        assert decide(T1)
        assert decide(LZ2)
        assert not decide(NZ2)


def test_ideal_criterion_deciders(T1, LZ2, NZ2):
    decide_regular_ideal = DECIDERS["regular"]["ideal"]
    decide_intra_ideal = DECIDERS["intra_regular"]["ideal"]
    assert not decide_regular_ideal(NZ2)
    assert decide_regular_ideal(LZ2)
    assert decide_intra_ideal(LZ2)
    assert decide_regular_ideal(T1)
    assert decide_intra_ideal(T1)


def test_fuzzy_deciders(T1, LZ2, NZ2):
    for decide in (DECIDERS[name]["fuzzy"] for name in CLASS_NAMES):
        assert decide(T1)
        assert decide(LZ2)
        assert not decide(NZ2)


def test_classify_t1(T1):
    report = classify(T1)
    assert all(v.holds for v in report.classes.values())


def test_classify_lz2_witnesses(LZ2):
    report = classify(LZ2)
    assert all(v.holds for v in report.classes.values())
    reg = report.classes["regular"]
    assert len(reg.witnesses) == 2
    w = reg.witnesses[0]
    assert w["element"] == "a" and w["x"] == "a"
    # replay the witness chain: a <= (a g x) mu a
    a = LZ2.index(w["element"])
    x = LZ2.index(w["x"])
    g = LZ2.gammas.index(w["gammas"][0])
    mu = LZ2.gammas.index(w["gammas"][1])
    assert LZ2.le(a, LZ2.table[LZ2.table[a][g][x]][mu][a])


def test_classify_nz2_negative(NZ2):
    report = classify(NZ2)
    for verdict in report.classes.values():
        assert not verdict.holds
        assert verdict.failing_element == "a"
        assert verdict.witnesses == ()


def test_classify_requires_associativity():
    from fuzzygamma import validate_structure
    S = validate_structure(["a", "b"], ["g"], [[[1, 1]], [[0, 0]]], [])
    assert not S.associative
    with pytest.raises(ValueError, match="associative"):
        classify(S)


def test_characteristic_bridge(labeled_pool):
    for S in labeled_pool[:100]:
        for A in ideals.all_subsets(S):
            fa = characteristic(S, A)
            for side in ("right", "left"):
                assert is_ideal(S, A, side) == is_fuzzy_ideal(fa, side)


def test_left_right_duality(labeled_pool):
    for S in labeled_pool[:150]:
        op = S.opposite()
        for kind in ("definitional", "fuzzy"):
            left = DECIDERS["left_regular"][kind]
            right = DECIDERS["right_regular"][kind]
            assert left(S) == right(op)
            assert right(S) == left(op)


def test_all_deciders_agree_on_pool_sample(labeled_pool):
    for S in labeled_pool[:150]:
        classify(S)  # raises DeciderDisagreement on any mismatch


# each class's product as its operands, left to right, at the element a
# and the witness's free elements x and y
PRODUCTS = {
    "regular": lambda a, x, y: (a, x, a),
    "intra_regular": lambda a, x, y: (x, a, a, y),
    "right_regular": lambda a, x, y: (a, a, x),
    "left_regular": lambda a, x, y: (x, a, a),
}


def test_classify_matches_naive_oracle(labeled_pool):
    for S in labeled_pool:
        for name, verdict in classify(S).classes.items():
            member = [naive_oracle.NAIVE_CLASSES[name](S.n, S.m, S.table,
                                                        S.leq, a)
                      for a in range(S.n)]
            assert verdict.holds == all(member)
            if not verdict.holds:
                assert verdict.failing_element == \
                    S.elements[member.index(False)]
                continue
            assert [w["element"] for w in verdict.witnesses] == \
                list(S.elements)
            for w in verdict.witnesses:
                a, x, y = (S.index(w[k]) if k in w else None
                           for k in ("element", "x", "y"))
                operands = PRODUCTS[name](a, x, y)
                gammas = [S.gammas.index(g) for g in w["gammas"]]
                assert len(gammas) == len(operands) - 1
                product = operands[0]
                for g, o in zip(gammas, operands[1:]):
                    product = S.table[product][g][o]
                assert S.le(a, product)


def test_in_class_matches_naive_oracle_on_the_corpus(witness_corpus):
    # the corpus tables are mostly not associative, so the bracketing of
    # each word's product is tested too
    for S in witness_corpus:
        for name, naive in naive_oracle.NAIVE_CLASSES.items():
            for a in range(S.n):
                assert ideals.in_class(S, a, name) == naive(
                    S.n, S.m, S.table, S.leq, a), (S, name, a)


def test_factorization_cache_stays_bounded_while_streaming():
    # the kernels are the relation's one reader: classify computes from
    # the table and the order, and leaves the cache empty
    for S in enumerate_structures(SearchSpec(3, 2)):
        theorems._Kernels(S)
    assert factorizations.cache_info().currsize <= 64
    factorizations.cache_clear()
    for S in enumerate_structures(SearchSpec(3, 2)):
        classify(S)
    assert factorizations.cache_info().currsize == 0


@pytest.fixture
def fresh_shared_state():
    # the shared state memoizes compositions, principal ideals and witness
    # searches, so a patched kernel or a counted search must neither reach
    # a state built before it nor leave one behind
    ideals._shared.cache_clear()
    yield
    ideals._shared.cache_clear()


def _counted_witness_searches(monkeypatch):
    calls = []
    search = ideals.witness

    def counted(S, a, name):
        calls.append((a, name))
        return search(S, a, name)

    monkeypatch.setattr(ideals, "witness", counted)
    return calls


def test_classify_searches_each_witness_once(labeled_pool, monkeypatch,
                                             fresh_shared_state):
    # every element of a holding class, and a failing class's elements up
    # to and including its first failing one, each searched once, in order
    calls = _counted_witness_searches(monkeypatch)
    for S in labeled_pool:
        expected = []
        for name in CLASS_NAMES:
            member = [naive_oracle.NAIVE_CLASSES[name](S.n, S.m, S.table,
                                                        S.leq, a)
                      for a in range(S.n)]
            last = S.n - 1 if all(member) else member.index(False)
            expected += [(a, name) for a in range(last + 1)]
        calls.clear()
        classify(S)
        assert calls == expected, S


def test_law_checks_reuse_the_witness_searches(labeled_pool, monkeypatch,
                                              fresh_shared_state):
    # classify, then the law checks and the control on the same structure,
    # run each (element, class) search at most once, and compute each
    # principal ideal once, in the shared state; neither depends on the
    # battery, so a small one keeps this cheap
    calls = _counted_witness_searches(monkeypatch)
    principal = []
    real = structure.principal_ideal

    def counted_principal(S, a, side):
        principal.append((a, side))
        return real(S, a, side)

    for module in (cli, enumeration, fuzzy, ideals, serialize, structure,
                   theorems):
        if hasattr(module, "principal_ideal"):
            monkeypatch.setattr(module, "principal_ideal", counted_principal)
    theorems._context.cache_clear()
    battery = GridBattery(levels=3)
    for S in labeled_pool:
        calls.clear()
        principal.clear()
        classify(S)
        theorems.check_all(S, battery)
        theorems.check(S, "L8-unconditional", battery)
        assert len(calls) == len(set(calls)), S
        assert sorted(principal) == sorted(
            (a, side) for a in range(S.n) for side in ("right", "left")), S


def test_fuzzy_decider_composes_through_the_scalar_oracle(
        labeled_pool, monkeypatch, fresh_shared_state):
    S = next(S for S in labeled_pool
             if S.n == 3 and DECIDERS["regular"]["definitional"](S))
    compose = fuzzy.compose

    def halved(f, g):
        h = compose(f, g)
        return FuzzySubset(h.structure, [v / 2 for v in h.values])

    monkeypatch.setattr(fuzzy, "compose", halved)
    with pytest.raises(ideals.DeciderDisagreement, match="regular"):
        classify(S)


def test_classify_shares_compositions_and_principal_ideals(
        labeled_pool, monkeypatch, fresh_shared_state):
    pairs, principal = [], []
    compose, principal_ideal = fuzzy.compose, ideals.principal_ideal

    def counted_compose(f, g):
        pairs.append((id(f), id(g)))
        return compose(f, g)

    def counted_principal(S, a, side):
        principal.append((a, side))
        return principal_ideal(S, a, side)

    monkeypatch.setattr(fuzzy, "compose", counted_compose)
    monkeypatch.setattr(ideals, "principal_ideal", counted_principal)
    for S in labeled_pool:
        pairs.clear()
        principal.clear()
        classify(S)
        # the state holds every operand, so no id is reused meanwhile
        assert len(pairs) == len(set(pairs)) <= 6 * S.n, S
        assert sorted(principal) == sorted(
            (a, side) for a in range(S.n) for side in ("right", "left")), S


def _report_sha256(structures):
    sha = hashlib.sha256()
    for S in structures:
        sha.update(json.dumps(serialize.classification_to_dict(classify(S)),
                              sort_keys=True).encode())
    return sha.hexdigest()


def test_classify_reports_pinned(labeled_pool):
    # pins every verdict, failing element and witness tie-break
    assert _report_sha256(labeled_pool) == (
        "382a12539474248b09597c4f956dd5b4949bfeeb1a950d6176f3521d053fd45f")
    assert _report_sha256(enumerate_structures(SearchSpec(3, 2))) == (
        "1615d30baff3cd34a63836f09a33ec8eecfb0091e62a44a216c3962d0ab13755")
    # m=3, where the witness memo and the order of the operations matter most
    assert _report_sha256(enumerate_structures(
        SearchSpec(3, 3, up_to_iso=True))) == (
        "071dd70b78f582fcbd923cd67f797b275c1754e6a495f226b61ff47e5059060d")
