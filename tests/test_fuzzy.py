import dataclasses
import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import naive_oracle
from fuzzygamma import fuzzy, theorems
from fuzzygamma.fuzzy import (GRID_CAP, FuzzySubset, GridBattery,
                              characteristic,
                              compose, constant_one, constant_zero,
                              default_battery, default_levels,
                              enumerate_grid_battery, generated_fuzzy_ideal,
                              is_below_chain,
                              is_fuzzy_bi_ideal_via_composition,
                              is_fuzzy_ideal, is_fuzzy_quasi_ideal, leq,
                              meet, point_characteristic, satisfies, square)
from fuzzygamma.structure import (StructureError, downward_closure,
                                  factorizations, subset_product)

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def test_membership_bounds_enforced(LZ2):
    with pytest.raises(ValueError):
        FuzzySubset(LZ2, (0.5, 1.5))
    with pytest.raises(ValueError):
        FuzzySubset(LZ2, (-0.1, 0.5))
    with pytest.raises(ValueError):
        FuzzySubset(LZ2, (0.5,))


@pytest.mark.parametrize("value", ["0.5", True, 10 ** 400],
                         ids=["str", "bool", "huge-int"])
def test_membership_must_be_a_real_number(T1, value):
    with pytest.raises(StructureError, match="membership for 'e'"):
        FuzzySubset(T1, (value,))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.none() | st.booleans() | st.integers() | st.floats()
                | st.integers(10 ** 308, 10 ** 310) | st.text(max_size=3)
                | unit, max_size=3))
def test_fuzzy_subset_rejects_malformed_vectors(values):
    from conftest import make_lz2
    try:
        f = FuzzySubset(make_lz2(), values)
    except StructureError:
        return
    assert all(type(v) is float and 0.0 <= v <= 1.0 for v in f.values)


def _revalidates(f):
    """Whether f is what validated construction would build from its values."""
    return (FuzzySubset(f.structure, f.values) == f
            and all(type(v) is float for v in f.values))


def test_compose_and_meet_results_are_validated_subsets(LZ2, NZ2):
    # the results skip the validation of public construction, which
    # test_membership_bounds_enforced shows still raises
    for S in (LZ2, NZ2):
        rows = [FuzzySubset(S, v) for v in itertools.product(
            (0, 0.25, 1), repeat=S.n)]
        for f, g in itertools.product(rows, repeat=2):
            for h in (compose(f, g), meet(f, g)):
                assert _revalidates(h)


def test_trusted_constructors_build_valid_subsets(labeled_pool):
    # these constructors skip validation too; a sampled battery holds its
    # draws and then every characteristic function
    sampled = GridBattery(levels=GRID_CAP + 1, seed=5, samples=20)
    for S in labeled_pool:
        built = [constant_one(S), constant_zero(S),
                 *enumerate_grid_battery(S, GridBattery(levels=4)),
                 *enumerate_grid_battery(S, sampled)]
        assert len(built) == 2 + 4 ** S.n + 20 + 2 ** S.n
        for f in built:
            assert _revalidates(f), (S, f)


def test_compose_requires_same_structure(LZ2, NZ2):
    with pytest.raises(ValueError, match="different structures"):
        compose(FuzzySubset(LZ2, (0.5, 1.0)), FuzzySubset(NZ2, (0.5, 1.0)))


def test_compose_accepts_equal_distinct_structures(LZ2):
    twin = dataclasses.replace(LZ2)
    assert twin == LZ2 and twin is not LZ2
    h = compose(FuzzySubset(LZ2, (0.5, 1.0)), FuzzySubset(twin, (0.25, 0.75)))
    assert h.values == (0.5, 0.75)


def test_compose_matches_definition(labeled_pool):
    rng = random.Random(11)
    # compose computes from the table and the order, the reference below
    # from the factorization relation, so the two are independent; the
    # fractional rows, some members at 1.0, come from their own stream
    frac = random.Random(12)
    levels = fuzzy.grid_levels(5)
    for S in labeled_pool:
        if S.n > 2:
            continue
        facts = factorizations(S)
        rows = [FuzzySubset(S, [rng.choice(levels) for _ in range(S.n)])
                for _ in range(12)]
        rows += [FuzzySubset(S, [1.0 if frac.random() < 0.3 else frac.random()
                                 for _ in range(S.n)]) for _ in range(6)]
        for f, g in itertools.product(rows, repeat=2):
            assert compose(f, g).values == tuple(
                max((min(f(y), g(z)) for y, z in facts[a]), default=0.0)
                for a in range(S.n))


def test_compose_examples(T1, LZ2, NZ2):
    f = FuzzySubset(LZ2, (0.5, 1.0))
    g = FuzzySubset(LZ2, (0.25, 0.75))
    assert compose(f, g).values == (0.5, 0.75)
    # empty factorization set forces zero
    assert compose(FuzzySubset(NZ2, (0.9, 0.9)),
                   FuzzySubset(NZ2, (1.0, 1.0))).values[1] == 0.0
    assert compose(FuzzySubset(T1, (0.3,)), FuzzySubset(T1, (0.9,))).values \
        == (0.3,)


def test_meet_leq_one(LZ2):
    f = FuzzySubset(LZ2, (0.5, 1.0))
    g = FuzzySubset(LZ2, (0.25, 0.75))
    assert meet(f, g).values == (0.25, 0.75)
    assert not leq(f, g)
    assert leq(meet(f, g), f)
    assert meet(f, f) == f
    assert leq(f, constant_one(LZ2))
    assert leq(constant_zero(LZ2), g)


def test_characteristic(NZ2, LZ2):
    assert characteristic(NZ2, {0, 1}) == constant_one(NZ2)
    assert point_characteristic(LZ2, 0).values == (1.0, 0.0)
    assert characteristic(LZ2, set()) == constant_zero(LZ2)


def test_order_reversing(NZ2, LZ2):
    assert satisfies(FuzzySubset(NZ2, (0.9, 0.4)), "order_reversing")
    assert not satisfies(FuzzySubset(NZ2, (0.1, 0.4)), "order_reversing")
    assert satisfies(FuzzySubset(LZ2, (0.1, 0.9)), "order_reversing")


def test_right_left_ideal_examples(LZ2, NZ2):
    f = FuzzySubset(LZ2, (0.3, 0.9))
    assert is_fuzzy_ideal(f, "right")
    assert not is_fuzzy_ideal(f, "left")
    assert is_fuzzy_ideal(FuzzySubset(NZ2, (1.0, 0.2)), "right")
    for S in (LZ2, NZ2):
        for side in ("right", "left"):
            assert is_fuzzy_ideal(constant_one(S), side)
    with pytest.raises(ValueError, match="unknown fuzzy ideal notion"):
        fuzzy.ideal_inequalities(LZ2, "nope")


def test_bi_ideal_examples(T1, LZ2, NZ2):
    assert satisfies(FuzzySubset(T1, (0.4,)), "bi")
    assert satisfies(FuzzySubset(LZ2, (0.2, 0.7)), "bi")
    assert not satisfies(FuzzySubset(NZ2, (0.4, 0.8)), "bi")


def test_bi_ideal_requires_associativity():
    from fuzzygamma import validate_structure
    # x*y = y*x = the other element is not associative on two elements
    S = validate_structure(["a", "b"], ["g"], [[[1, 1]], [[0, 0]]], [],
                           require_compat=True)
    assert not S.associative
    with pytest.raises(ValueError, match="associative"):
        satisfies(FuzzySubset(S, (0.5, 0.5)), "bi")
    with pytest.raises(ValueError, match="associative"):
        is_fuzzy_bi_ideal_via_composition(FuzzySubset(S, (0.5, 0.5)))


def test_ideal_predicates_match_naive_oracle(labeled_pool, witness_corpus):
    """Scalar predicates and numpy masks against loop-by-loop definitions,
    on the default grid battery of every n<=2 labeled structure, a fixed
    n=3 sample and the witness corpus."""
    small = [S for S in labeled_pool if S.n <= 2]
    sample = random.Random(11).sample([S for S in labeled_pool if S.n == 3],
                                      24)
    for S in small + sample + witness_corpus:
        battery = list(enumerate_grid_battery(S, default_battery(S)))
        W = np.array([f.values for f in battery])
        kernels = theorems._Kernels(S)
        for name, naive in naive_oracle.NAIVE_FUZZY_IDEALS.items():
            expected = [naive(S.n, S.m, S.table, S.leq, f.values)
                        for f in battery]
            scalar = [satisfies(f, name) for f in battery]
            assert scalar == expected, (S, name)
            assert kernels.ideal(name, W).tolist() == expected, (S, name)


def test_quasi_ideal_examples(LZ2, NZ2):
    assert is_fuzzy_quasi_ideal(constant_one(LZ2))
    f = FuzzySubset(LZ2, (0.3, 0.9))
    one = constant_one(LZ2)
    assert compose(f, one).values == (0.3, 0.9)
    assert compose(one, f).values == (0.9, 0.9)
    assert is_fuzzy_quasi_ideal(f)
    g = FuzzySubset(NZ2, (0.0, 0.5))
    assert compose(g, constant_one(NZ2)).values[0] == 0.5
    assert not is_fuzzy_quasi_ideal(g)


def test_composition_form_agrees_on_examples(T1, LZ2, NZ2):
    f = FuzzySubset(LZ2, (0.3, 0.9))
    assert is_below_chain(f, "f1")
    assert not is_below_chain(FuzzySubset(NZ2, (0.1, 0.4)), "f1")
    for v in ((0.0,), (0.5,), (1.0,)):
        h = FuzzySubset(T1, v)
        for word in ("f1", "1f"):
            assert is_below_chain(h, word)


def test_generated_right_ideal(NZ2, LZ2):
    assert generated_fuzzy_ideal(
        constant_zero(NZ2), "right") == constant_zero(NZ2)
    r = generated_fuzzy_ideal(FuzzySubset(NZ2, (0.0, 0.7)), "right")
    assert r.values == (0.7, 0.7)
    assert is_fuzzy_ideal(r, "right")
    f = FuzzySubset(LZ2, (0.2, 0.6))
    assert generated_fuzzy_ideal(f, "right") == f


def test_generated_left_ideal(LZ2):
    # left principal sets of the left-zero law are the whole carrier
    f = FuzzySubset(LZ2, (0.2, 0.6))
    r = generated_fuzzy_ideal(f, "left")
    assert r.values == (0.6, 0.6)
    assert is_fuzzy_ideal(r, "left")


def test_generated_ideal_minimality(NZ2):
    S = NZ2
    levels = [i / 4 for i in range(5)]
    for fv in itertools.product(levels, repeat=S.n):
        f = FuzzySubset(S, fv)
        r = generated_fuzzy_ideal(f, "right")
        assert leq(f, r) and is_fuzzy_ideal(r, "right")
        for hv in itertools.product(levels, repeat=S.n):
            h = FuzzySubset(S, hv)
            if is_fuzzy_ideal(h, "right") and leq(f, h):
                assert leq(r, h)


def test_grid_battery_counts(T1, LZ2, NZ2):
    assert [f.values for f in enumerate_grid_battery(
        T1, GridBattery(levels=2))] == [(0.0,), (1.0,)]
    assert sum(1 for _ in enumerate_grid_battery(
        LZ2, GridBattery(levels=3))) == 9
    members = list(enumerate_grid_battery(NZ2, GridBattery(levels=5)))
    assert len(members) == 25
    assert members[0] == constant_zero(NZ2)
    assert members[-1] == constant_one(NZ2)


def test_grid_battery_cap(T1, NZ2):
    # the kind follows from L^n alone: 1000^2 grid rows are exactly the
    # cap, 1001^2 are past it
    at_cap, past_cap = GridBattery(levels=1000), GridBattery(levels=1001)
    assert GRID_CAP == 1000 ** 2
    assert not at_cap.sampled(NZ2) and past_cap.sampled(NZ2)
    assert at_cap.describe(NZ2) == "exhaustive grid L=1000 (1000000 members)"
    assert past_cap.describe(NZ2).startswith(
        "sampled battery (10000 draws, seed=0)")
    # the kind is per structure: one element stays under the cap
    assert not past_cap.sampled(T1)
    with pytest.raises(ValueError, match="at least 2 levels"):
        GridBattery(levels=1)


@pytest.mark.parametrize("fields", [
    {"levels": 2.0}, {"levels": True}, {"levels": "3"},
    {"levels": 1001, "samples": -5}, {"levels": 3, "samples": 2.5},
    {"levels": 3, "samples": False}])
def test_grid_battery_counts_are_ints(fields):
    # rejected when the battery is made: a negative count would be described
    # as "-5 draws", and a float would fail only when the rows are drawn
    with pytest.raises(ValueError, match="an int"):
        GridBattery(**fields)


def test_sampled_battery_seed_defaults_to_zero(NZ2):
    b = GridBattery(levels=1001, samples=10)
    assert b == GridBattery(levels=1001, seed=0, samples=10)
    assert ([f.values for f in enumerate_grid_battery(NZ2, b)]
            != [f.values for f in enumerate_grid_battery(
                NZ2, GridBattery(levels=1001, seed=1, samples=10))])


def test_sampled_battery_deterministic(NZ2):
    b = GridBattery(levels=1001, seed=11, samples=10)
    first = [f.values for f in enumerate_grid_battery(NZ2, b)]
    second = [f.values for f in enumerate_grid_battery(NZ2, b)]
    assert first == second
    # samples + 2^n characteristics, the generated point ideals among them
    assert len(first) == 10 + 4


def test_default_battery(NZ2):
    b = default_battery(NZ2)
    assert b == GridBattery(levels=6) and not b.sampled(NZ2)
    assert default_battery(NZ2, levels=1001, seed=4) == GridBattery(
        levels=1001, seed=4)


def test_char_product_bridge(LZ2, NZ2):
    # the composition of characteristics is the characteristic of the
    # downward-closed subset product
    for S in (LZ2, NZ2):
        subsets = [frozenset(i for i in range(S.n) if bits >> i & 1)
                   for bits in range(2 ** S.n)]
        for A in subsets:
            for B in subsets:
                comp = compose(characteristic(S, A), characteristic(S, B))
                expected = downward_closure(S, subset_product(S, A, B))
                assert comp == characteristic(S, expected)


@given(st.lists(unit, min_size=2, max_size=2),
       st.lists(unit, min_size=2, max_size=2),
       st.lists(unit, min_size=2, max_size=2),
       st.lists(unit, min_size=2, max_size=2))
def test_compose_monotone_hypothesis(a, b, c, d):
    from conftest import make_nz2
    S = make_nz2()
    f, f2 = FuzzySubset(S, a), FuzzySubset(S, b)
    g, g2 = FuzzySubset(S, c), FuzzySubset(S, d)
    lo = FuzzySubset(S, tuple(map(min, a, b)))
    hi = FuzzySubset(S, tuple(map(max, a, b)))
    glo = FuzzySubset(S, tuple(map(min, c, d)))
    ghi = FuzzySubset(S, tuple(map(max, c, d)))
    assert leq(compose(lo, glo), compose(hi, ghi))


@given(st.lists(unit, min_size=2, max_size=2),
       st.lists(unit, min_size=2, max_size=2),
       st.lists(unit, min_size=2, max_size=2))
def test_compose_associative_hypothesis(a, b, c):
    from conftest import make_lz2
    S = make_lz2()
    f, g, h = FuzzySubset(S, a), FuzzySubset(S, b), FuzzySubset(S, c)
    assert compose(compose(f, g), h) == compose(f, compose(g, h))


def test_compose_associative_on_battery(NZ2):
    members = list(enumerate_grid_battery(NZ2, GridBattery(levels=3)))
    for f in members:
        for g in members:
            for h in members:
                assert compose(compose(f, g), h) == compose(f, compose(g, h))


def test_square_is_self_composition(LZ2):
    f = FuzzySubset(LZ2, (0.3, 0.9))
    assert square(f) == compose(f, f)


def test_chain_brackets_the_square_first(witness_corpus):
    # the corpus tables are mostly not associative, so a different
    # bracketing of the same word would give different values somewhere
    words = {
        "f1": lambda f, one: compose(f, one),
        "1f": lambda f, one: compose(one, f),
        "ff": lambda f, one: compose(f, f),
        "f1f": lambda f, one: compose(compose(f, one), f),
        "ff1": lambda f, one: compose(compose(f, f), one),
        "1ff": lambda f, one: compose(one, compose(f, f)),
        "1ff1": lambda f, one: compose(compose(one, compose(f, f)), one),
    }
    left_fold_differs = False
    for S in witness_corpus[::7]:
        one = constant_one(S)
        for f in enumerate_grid_battery(S, GridBattery(levels=3)):
            for word, expected in words.items():
                assert fuzzy.chain(word, f, compose, one) == expected(f, one)
            folded = compose(compose(compose(one, f), f), one)
            left_fold_differs |= folded != words["1ff1"](f, one)
    assert left_fold_differs
    with pytest.raises(ValueError):
        fuzzy.chain("f11f", constant_one(witness_corpus[0]), compose,
                    constant_one(witness_corpus[0]))


def _project_onto_grid(f, g, levels):
    """Map the values of f and g strictly between 0 and 1 onto the inner
    grid levels in order: every comparison, min and max is preserved."""
    inner = sorted({v for v in f.values + g.values if 0.0 < v < 1.0})
    grid = fuzzy.grid_levels(levels)
    assert len(inner) <= levels - 2, "too few levels to keep every order"
    to = {0.0: 0.0, 1.0: 1.0, **{v: grid[k + 1] for k, v in enumerate(inner)}}
    return (FuzzySubset(f.structure, tuple(to[v] for v in f.values)),
            FuzzySubset(g.structure, tuple(to[v] for v in g.values)))


def _meet_above_composition(f, g):
    fg = compose(f, g)
    return any(min(f(a), g(a)) > fg(a) for a in range(f.structure.n))


def test_default_levels_reproduce_real_valued_violations(NZ2, labeled_pool):
    # L8 with its hypothesis dropped fails on every non-regular structure;
    # its real-valued counterexamples use at most 2n values besides 0 and 1,
    # so they land on the 2n+2-level default grid
    from fuzzygamma.ideals import _DECIDERS
    structures = [NZ2] + [S for S in labeled_pool if S.n <= 2
                          and not _DECIDERS["regular"]["definitional"](S)]
    rng = random.Random(11)

    def draw():
        return rng.choice((0.0, 1.0, rng.random(), rng.random()))

    for S in structures:
        battery = set(enumerate_grid_battery(S, default_battery(S)))
        assert len(battery) == default_levels(S) ** S.n
        found = 0
        for _ in range(3000):
            f = FuzzySubset(S, tuple(draw() for _ in range(S.n)))
            g = FuzzySubset(S, tuple(draw() for _ in range(S.n)))
            if not (is_fuzzy_ideal(f, "right")
                    and _meet_above_composition(f, g)):
                continue
            found += 1
            pf, pg = _project_onto_grid(f, g, default_levels(S))
            assert pf in battery and pg in battery
            assert is_fuzzy_ideal(pf, "right")
            assert _meet_above_composition(pf, pg)
        assert found, S
