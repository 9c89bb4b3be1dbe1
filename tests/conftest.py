import dataclasses
import random

import pytest

from fuzzygamma import enumeration, validate_structure


def make_t1():
    return validate_structure(["e"], ["g"], [[[0]]], [(0, 0)])


def make_lz2():
    # left-zero law x*y = x, discrete order
    return validate_structure(["a", "b"], ["g"], [[[0, 0]], [[1, 1]]], [])


def make_nz2():
    # constant law x*y = z, with z below a
    return validate_structure(["z", "a"], ["g"], [[[0, 0]], [[0, 0]]],
                              [(0, 1)])


@pytest.fixture
def T1():
    return make_t1()


@pytest.fixture
def LZ2():
    return make_lz2()


@pytest.fixture
def NZ2():
    return make_nz2()


@pytest.fixture(scope="session")
def fixture_structures():
    return [make_t1(), make_lz2(), make_nz2()]


@pytest.fixture(scope="session")
def labeled_pool():
    """Every labeled po-gamma-semigroup at (n<=2, m<=2) and (n=3, m=1)."""
    pool = []
    for n, m in [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1)]:
        spec = enumeration.SearchSpec(n=n, m=m)
        pool.extend(enumeration.enumerate_structures(spec))
    return pool


def make_witness_corpus():
    """Seeded random tables and orders, flagged associative and compatible.

    Most of these tables are not associative and about half of the orders
    are not compatible; the law checks run on them anyway and refute many
    laws, giving a corpus of refutations whose witnesses must all replay.
    """
    rng = random.Random(20260401)
    corpus = []
    for (n, m), count in (((2, 1), 40), ((2, 2), 50), ((3, 1), 50)):
        elements = [f"e{i}" for i in range(n)]
        gammas = [f"g{g}" for g in range(m)]
        for _ in range(count):
            table = [[[rng.randrange(n) for _ in range(n)] for _ in range(m)]
                     for _ in range(n)]
            rank = rng.sample(range(n), n)
            order = [(rank[i], rank[j]) for i in range(n)
                     for j in range(i + 1, n) if rng.random() < 0.4]
            S = validate_structure(elements, gammas, table, order,
                                   require_compat=False)
            corpus.append(dataclasses.replace(S, associative=True,
                                              compatible=True))
    return corpus


@pytest.fixture(scope="session")
def witness_corpus():
    return make_witness_corpus()
