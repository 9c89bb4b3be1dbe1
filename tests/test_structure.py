import itertools
import os
import pathlib
import random
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fuzzygamma
from fuzzygamma import (StructureError, downward_closure, factorizations,
                        subset_product, validate_structure)
from fuzzygamma.enumeration import enumerate_tables
from fuzzygamma.structure import table_is_associative


def test_t1_valid(T1):
    assert T1.n == 1 and T1.m == 1
    assert T1.associative and T1.compatible


def test_duplicate_labels_rejected():
    with pytest.raises(StructureError, match="duplicate"):
        validate_structure(["a", "a"], ["g"], [[[0, 0]], [[1, 1]]], [])
    with pytest.raises(StructureError, match="duplicate"):
        validate_structure(["a", "b"], ["g", "g"],
                           [[[0, 0], [0, 0]], [[1, 1], [1, 1]]], [])


def test_table_entry_out_of_range():
    with pytest.raises(StructureError, match="out of range"):
        validate_structure(["a", "b"], ["g"], [[[0, 2]], [[1, 1]]], [])


def test_antisymmetry_violation_after_closure():
    # both z <= a and a <= z survive closure and clash
    with pytest.raises(StructureError, match="antisymmetry"):
        validate_structure(["z", "a"], ["g"], [[[0, 0]], [[0, 0]]],
                           [(0, 1), (1, 0)])
    # the pair named is the first clashing one the closure's frozenset
    # yields, which here is not the least clashing pair
    for pairs, names in [([(0, 2), (2, 0)], "'c' and 'a'"),
                         ([(0, 2), (2, 4), (3, 0), (4, 3)], "'c' and 'e'"),
                         ([(0, 3), (1, 3), (2, 0), (3, 1)], "'d' and 'b'")]:
        n = 1 + max(max(pair) for pair in pairs)
        with pytest.raises(StructureError) as info:
            validate_structure("abcde"[:n], ["g"],
                               [[[x] * n] for x in range(n)], pairs)
        assert str(info.value) == f"antisymmetry violation between {names}"


def test_left_zero_with_chain_order_is_compatible():
    S = validate_structure(["a", "b"], ["g"], [[[0, 0]], [[1, 1]]], [(0, 1)])
    assert S.compatible
    # oracle: every one of the n*n*m compatibility instances directly
    for (i, j) in S.leq:
        for g in range(S.m):
            for c in range(S.n):
                assert S.le(S.table[i][g][c], S.table[j][g][c])
                assert S.le(S.table[c][g][i], S.table[c][g][j])


def test_incompatible_order_rejected_and_flagged():
    # x*y = 1-x reverses the order on the left argument
    raw = (["a", "b"], ["g"], [[[1, 1]], [[0, 0]]], [(0, 1)])
    with pytest.raises(StructureError, match="not compatible"):
        validate_structure(*raw)
    S = validate_structure(*raw, require_compat=False)
    assert not S.compatible


def test_order_closure_is_transitive():
    S = validate_structure(["a", "b", "c"], ["g"],
                           [[[0, 0, 0]], [[0, 0, 0]], [[0, 0, 0]]],
                           [(0, 1), (1, 2)])
    assert S.le(0, 2)
    # seeded generating pairs on n <= 6, half of them acyclic by a random
    # rank, against a naive closure; antisymmetry raises exactly where it
    # has a 2-cycle (a left-zero band is compatible with every order)
    rng = random.Random(32)
    raised = 0
    for _ in range(400):
        n = rng.randint(1, 6)
        pairs = [(rng.randrange(n), rng.randrange(n))
                 for _ in range(rng.randint(0, 2 * n))]
        if rng.random() < 0.5:
            rank = rng.sample(range(n), n)
            pairs = [(rank[min(i, j)], rank[max(i, j)]) for i, j in pairs]
        closure = {(i, i) for i in range(n)} | set(pairs)
        while True:
            more = {(i, l) for i, j in closure for k, l in closure if j == k}
            if more <= closure:
                break
            closure |= more
        band = [[[x] * n] for x in range(n)]
        if any(i != j and (j, i) in closure for i, j in closure):
            with pytest.raises(StructureError, match="antisymmetry"):
                validate_structure(range(n), ["g"], band, pairs)
            raised += 1
        else:
            assert validate_structure(range(n), ["g"], band,
                                      pairs).leq == closure, pairs
    assert 40 <= raised <= 360  # both answers, many times


def test_is_associative_matches_bruteforce():
    # e*e=f, e*f=e, f*e=f, f*f=f; every (2,1) and (2,2) table; seeded
    # (3,2), (3,3) and (4,1) tables, enumerated ones with one-cell mutants
    # of them; an n = 40 left-zero band with and without one broken cell
    # (1*2 = 5, so only x = 1 fails): each checked against a scan of all
    # (x, g, y, mu, z)
    tables = [[[[1, 0]], [[1, 1]]]]
    for m in (1, 2):
        tables += [np.reshape(cells, (2, m, 2)).tolist()
                   for cells in itertools.product(range(2), repeat=4 * m)]
    rng = random.Random(32)
    for n, m in [(3, 2), (3, 3), (4, 1)]:
        for table in rng.sample(list(enumerate_tables(n, m)), 20):
            mutant = [list(map(list, plane)) for plane in table]
            mutant[rng.randrange(n)][rng.randrange(m)][rng.randrange(n)] = (
                rng.randrange(n))
            tables += [table, mutant]
        tables += [np.reshape([rng.randrange(n) for _ in range(n * m * n)],
                              (n, m, n)).tolist() for _ in range(10)]
    band = [[[x] * 40] for x in range(40)]
    broken = [[row[:] for row in plane] for plane in band]
    broken[1][0][2] = 5
    tables += [band, broken]
    seen = {}
    for table in tables:
        n, m = len(table), len(table[0])
        expected = all(
            table[table[x][g][y]][mu][z] == table[x][g][table[y][mu][z]]
            for x, g, y, mu, z in itertools.product(
                range(n), range(m), range(n), range(m), range(n)))
        S = validate_structure(range(n), range(m), table, [])
        assert table_is_associative(table) == expected, table
        assert S.associative == expected, table
        seen.setdefault((n, m), set()).add(expected)
    assert all(answers == {True, False} for answers in seen.values())


def test_order_pair_entries_checked_like_table_entries():
    # an int that is not a bool, in range: a float is no index, and a bool
    # pair is neither read as 0/1 nor dropped
    for pair in [(0.0, 1), (0, 1.5), (False, True), (1, True)]:
        with pytest.raises(StructureError, match="out of range"):
            validate_structure(["a", "b"], ["g"], [[[0, 0]], [[1, 1]]],
                               [pair])


def test_one_shot_order_is_read_whole():
    # a generator of pairs gives the same structure as the list of them
    raw = (["z", "a"], ["g"], [[[0, 0]], [[0, 0]]])
    listed = validate_structure(*raw, [(0, 1)])
    streamed = validate_structure(*raw, ((i, j) for i, j in [(0, 1)]))
    assert streamed == listed and streamed.le(0, 1)


JSON_LIKE = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-1, 2)
    | st.integers(10 ** 308, 10 ** 310) | st.floats() | st.text(max_size=2),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=10)
# shaped like an n = 2, m = 1 table or order, with arbitrary leaves, so
# the entry checks, the order checks and the valid path are reached too
NEAR_TABLE = st.lists(st.lists(st.lists(
    st.integers(0, 1) | JSON_LIKE, min_size=2, max_size=2),
    min_size=1, max_size=1), min_size=2, max_size=2) | st.sampled_from(
    [[[[0, 0]], [[1, 1]]], ([[0, 1]], [(1, 1)]), [[[0, 0]], [[0, 0]]]])
NEAR_ORDER = st.lists(st.lists(st.integers(0, 1) | JSON_LIKE, min_size=2,
                               max_size=2) | JSON_LIKE, max_size=3)


@settings(max_examples=300, deadline=None)
@given(table=NEAR_TABLE | JSON_LIKE, order=NEAR_ORDER | JSON_LIKE)
def test_validate_rejects_malformed_input_with_structure_error(table, order):
    try:
        S = validate_structure(["a", "b"], ["g"], table, order,
                               require_compat=False)
    except StructureError:
        return
    assert S == validate_structure(S.elements, S.gammas, S.table,
                                   sorted(S.leq), require_compat=False)


@pytest.mark.parametrize("elements, gammas", [
    (5, ["g"]), (["e"], None), (None, None)])
def test_validate_rejects_non_iterable_labels(elements, gammas):
    with pytest.raises(StructureError, match="labels must be iterables"):
        validate_structure(elements, gammas, [[[0]]], [])


def test_public_names_resolve_to_package_definitions():
    # every exported callable is defined in a fuzzygamma module, so no
    # second name (a functools.partial, say) stands in for a function
    for name in fuzzygamma.__all__:
        obj = getattr(fuzzygamma, name)
        if callable(obj):
            assert obj.__module__.startswith("fuzzygamma."), name


def test_is_associative_fixtures(T1, LZ2):
    assert table_is_associative(T1.table)
    assert table_is_associative(LZ2.table)


def test_downward_closure_examples(NZ2, LZ2):
    assert downward_closure(NZ2, {1}) == {0, 1}
    assert downward_closure(NZ2, set()) == frozenset()
    assert downward_closure(LZ2, {1}) == {1}


def test_downward_closure_properties(NZ2):
    for bits in range(4):
        H = frozenset(i for i in range(2) if bits >> i & 1)
        cl = downward_closure(NZ2, H)
        assert H <= cl
        assert downward_closure(NZ2, cl) == cl


def test_subset_product_examples(T1, LZ2, NZ2):
    assert subset_product(NZ2, {1}, NZ2.carrier()) == {0}
    assert subset_product(LZ2, {0}, LZ2.carrier()) == {0}
    assert subset_product(T1, {0}, {0}) == {0}
    assert subset_product(LZ2, set(), LZ2.carrier()) == frozenset()


def test_subset_product_associative_on_small(LZ2, NZ2):
    for S in (LZ2, NZ2):
        subsets = [frozenset(i for i in range(S.n) if bits >> i & 1)
                   for bits in range(2 ** S.n)]
        for A in subsets:
            for B in subsets:
                for C in subsets:
                    left = subset_product(S, subset_product(S, A, B), C)
                    right = subset_product(S, A, subset_product(S, B, C))
                    assert left == right


def test_subset_product_monotone(LZ2):
    S = LZ2
    subsets = [frozenset(i for i in range(S.n) if bits >> i & 1)
               for bits in range(2 ** S.n)]
    for A in subsets:
        for A2 in subsets:
            if A <= A2:
                for B in subsets:
                    assert (subset_product(S, A, B)
                            <= subset_product(S, A2, B))


def test_factorizations_examples(T1, LZ2, NZ2):
    assert factorizations(LZ2) == (frozenset({(0, 0), (0, 1)}),
                                   frozenset({(1, 0), (1, 1)}))
    assert factorizations(NZ2) == (
        frozenset({(0, 0), (0, 1), (1, 0), (1, 1)}), frozenset())
    assert factorizations(T1) == (frozenset({(0, 0)}),)


def test_factorizations_oracle(NZ2, LZ2, labeled_pool, witness_corpus):
    # quadruple loop over (a, y, z, gamma)
    for S in (NZ2, LZ2, *labeled_pool, *witness_corpus):
        facts = factorizations(S)
        for a in range(S.n):
            expected = {(y, z)
                        for y in range(S.n) for z in range(S.n)
                        if any(S.le(a, S.table[y][g][z])
                               for g in range(S.m))}
            assert facts[a] == expected


def test_factorizations_downward_transfer(NZ2):
    facts = factorizations(NZ2)
    for a in range(NZ2.n):
        for a2 in range(NZ2.n):
            if NZ2.le(a2, a):
                assert facts[a] <= facts[a2]


def test_single_gamma_degenerates_to_plain_groupoid(LZ2):
    # with one operation the subset product is the plain one
    for A in ({0}, {1}, {0, 1}):
        for B in ({0}, {1}, {0, 1}):
            plain = {LZ2.table[a][0][b] for a in A for b in B}
            assert subset_product(LZ2, A, B) == plain


@given(st.sets(st.integers(min_value=0, max_value=1)))
def test_downward_closure_idempotent_hypothesis(H):
    S = validate_structure(["z", "a"], ["g"], [[[0, 0]], [[0, 0]]], [(0, 1)])
    cl = downward_closure(S, H)
    assert downward_closure(S, cl) == cl
    assert frozenset(H) <= cl


def test_opposite_structure(LZ2, labeled_pool):
    op = LZ2.opposite()
    # left-zero becomes right-zero
    assert op.table[0][0][1] == 1
    assert op.associative
    # the mirror is built unvalidated: this is its check
    for S in labeled_pool:
        op = S.opposite()
        assert op == validate_structure(op.elements, op.gammas, op.table,
                                        sorted(op.leq))


def test_equal_structures_hash_the_same(labeled_pool):
    for S in labeled_pool:
        twin = validate_structure(S.elements, S.gammas, S.table, sorted(S.leq))
        assert twin is not S and twin == S
        assert hash(twin) == hash(S)


_HASH_SCRIPT = """
import pickle
from fuzzygamma import validate_structure
S = validate_structure(["z", "a", "b"], ["g", "h"],
                       [[[0, 0, 0], [0, 1, 2]], [[0, 1, 1], [1, 1, 2]],
                        [[0, 1, 2], [2, 1, 2]]], [(0, 1)],
                       require_compat=False)
print(hash(S), hash(pickle.loads(pickle.dumps(S))))
"""


def test_hash_is_the_same_across_processes():
    # string hashes change with PYTHONHASHSEED; the memoized hash must not,
    # since a pickled structure carries it into another process
    src = str(pathlib.Path(fuzzygamma.__file__).resolve().parent.parent)
    outs = {subprocess.run(
        [sys.executable, "-c", _HASH_SCRIPT], capture_output=True, text=True,
        check=True, env={**os.environ, "PYTHONHASHSEED": seed,
                         "PYTHONPATH": src}).stdout
        for seed in ("1", "2")}
    assert len(outs) == 1
    first, unpickled = outs.pop().split()
    assert first == unpickled
