import hashlib
import itertools
import math
import random
import sys

import pytest

import naive_oracle
from fuzzygamma import enumeration
from fuzzygamma.enumeration import (SearchSpec, are_isomorphic,
                                    canonical_form, enumerate_orders,
                                    enumerate_structures, enumerate_tables)
from fuzzygamma.structure import (compatible, table_is_associative,
                                  validate_structure)


def test_single_element_counts():
    assert sum(1 for _ in enumerate_tables(1, 1)) == 1
    specs = list(enumerate_structures(SearchSpec(n=1, m=1)))
    assert len(specs) == 1
    assert specs[0].n == 1


def test_table_counts_vs_naive():
    for n, m in [(2, 1), (2, 2)]:
        pruned = list(enumerate_tables(n, m))
        naive = naive_oracle.naive_tables(n, m)
        assert len(pruned) == len(naive)
        assert set(pruned) == set(naive)


def _full_rescan_tables(n, m):
    """Reference search: after each cell, rescan every associativity
    instance that is fully determined."""
    cells = [(x, g, y) for x in range(n) for g in range(m) for y in range(n)]
    table = [[[-1] * n for _ in range(m)] for _ in range(n)]

    def consistent():
        for x, g, y, mu, z in itertools.product(range(n), range(m), range(n),
                                                range(m), range(n)):
            xy, yz = table[x][g][y], table[y][mu][z]
            if xy < 0 or yz < 0:
                continue
            left, right = table[xy][mu][z], table[x][g][yz]
            if left >= 0 and right >= 0 and left != right:
                return False
        return True

    def fill(i):
        if i == len(cells):
            yield tuple(tuple(tuple(row) for row in plane) for plane in table)
            return
        x, g, y = cells[i]
        for v in range(n):
            table[x][g][y] = v
            if consistent():
                yield from fill(i + 1)
        table[x][g][y] = -1

    yield from fill(0)


@pytest.mark.parametrize("n, m", [(3, 2), (4, 1)])
def test_tables_match_full_rescan(n, m):
    assert list(enumerate_tables(n, m)) == list(_full_rescan_tables(n, m))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_pruned_search_keeps_the_lex_leaders(n):
    # an independent filter: the rescan's tables whose flat table no
    # relabeling lowers, in order, each with the relabelings that keep it;
    # relabeling p puts old element p[i] at new position i
    N = range(n)
    perms = list(itertools.permutations(N))
    leaders = []
    for t in _full_rescan_tables(n, 1):
        images = [[p.index(t[p[i]][0][p[j]]) for i in N for j in N]
                  for p in perms]
        if min(images) == images[0]:
            leaders.append((tuple(plane[0] for plane in t),
                            tuple(p for p, image in zip(perms, images)
                                  if image == images[0])))
    assert list(enumeration._canonical_semigroups(n)) == leaders


def _cell_search_tables(n, m):
    """Reference search over all m operations at once: cells in row-major
    order, and after each cell the associativity instances that read it."""
    N, M = range(n), range(m)
    cells = [(x, g, y) for x in N for g in M for y in N]
    table = [[[-1] * n for _ in M] for _ in N]

    def consistent_at(x, g, y):
        # each instance reads (a γ b) μ c == a γ (b μ c); here v = x g y
        v = table[x][g][y]
        Txg, Tv = table[x][g], table[v]
        for mu in M:  # as a γ b: (x g y) μ c == x g (y μ c)
            Tymu, Tvmu = table[y][mu], Tv[mu]
            for c in N:
                yc = Tymu[c]
                if yc >= 0:
                    left, right = Tvmu[c], Txg[yc]
                    if left >= 0 and right >= 0 and left != right:
                        return False
        for a in N:
            Ta = table[a]
            for gam in M:
                Tagam = Ta[gam]
                ax = Tagam[x]  # as b μ c: (a γ x) g y == a γ v
                if ax >= 0:
                    left, right = table[ax][g][y], Tagam[v]
                    if left >= 0 and right >= 0 and left != right:
                        return False
                for b in N:  # as the outer left product, a γ b == x
                    if Tagam[b] == x:
                        by = table[b][g][y]
                        if by >= 0:
                            right = Tagam[by]
                            if right >= 0 and right != v:
                                return False
        for b in N:  # as the outer right product, b μ c == y
            xb = Txg[b]
            if xb < 0:
                continue
            Tb, Txb = table[b], table[xb]
            for mu in M:
                Tbmu, Txbmu = Tb[mu], Txb[mu]
                for c in N:
                    if Tbmu[c] == y:
                        left = Txbmu[c]
                        if left >= 0 and left != v:
                            return False
        return True

    def fill(i):
        if i == len(cells):
            yield tuple(tuple(tuple(row) for row in plane) for plane in table)
            return
        x, g, y = cells[i]
        for v in N:
            table[x][g][y] = v
            if consistent_at(x, g, y):
                yield from fill(i + 1)
        table[x][g][y] = -1

    yield from fill(0)


@pytest.mark.parametrize("n, m", [(2, 2), (3, 2), (2, 3), (3, 3)])
def test_operation_slices_match_the_cell_search(n, m):
    # m-tuples of compatible single-operation tables, in flat-table order,
    # are exactly the cell search's tables in its order
    assert list(enumerate_tables(n, m)) == list(_cell_search_tables(n, m))


@pytest.mark.parametrize("n, m", [(3, 2), (2, 3), (3, 3), (4, 1)])
def test_table_test_keeps_every_canonical_structure(n, m):
    # the up-to-iso stream skips a table whose flat table some relabeling
    # lowers, and tests orders against the table's automorphisms only;
    # filtering the labeled stream structure by structure must keep exactly
    # the same structures, in the same order.  A structure is canonical
    # when no relabeling's encoding (flat table, sorted order) is lower;
    # each table's relabeled flat tables are computed once (the identity
    # first), and an order is relabeled only where the flat tables tie
    relabelings = list(itertools.product(itertools.permutations(range(n)),
                                         itertools.permutations(range(m))))
    flats = {}

    def canonical(S):
        if S.table not in flats:
            flats[S.table] = [enumeration._encoding(n, m, S.table, (), e, o)[0]
                              for e, o in relabelings]
        table_flats = flats[S.table]
        if min(table_flats) < table_flats[0]:
            return False
        own = enumeration._encoding(n, m, S.table, S.leq)
        return all(flat > own[0] or enumeration._encoding(
                       n, m, S.table, S.leq, e, o) >= own
                   for flat, (e, o) in zip(table_flats, relabelings))
    filtered = [S for S in enumerate_structures(SearchSpec(n=n, m=m))
                if canonical(S)]
    assert filtered == list(enumerate_structures(
        SearchSpec(n=n, m=m, up_to_iso=True)))


@pytest.mark.parametrize("n, m", [(3, 2), (2, 3), (4, 1)])
def test_automorphisms_map_the_table_onto_itself(n, m):
    # each listed permutation p, with some permutation of the operations,
    # maps every product onto a product: p(x g y) = p(x) g' p(y); and the
    # list is every such p, identity first, closed under inverses
    N, M = range(n), range(m)
    for table in enumerate_tables(n, m):
        autos = enumeration._automorphisms(n, m, table)
        found = [p for p in itertools.permutations(N)
                 if any(all(p[table[x][g][y]] == table[p[x]][ops[g]][p[y]]
                            for x in N for g in M for y in N)
                        for ops in itertools.permutations(M))]
        assert autos[0] == tuple(N)
        assert sorted(autos) == found, table
        for p in autos:
            assert tuple(sorted(N, key=p.__getitem__)) in autos


def test_known_table_counts():
    # associative binary operations on a 2-element set
    assert sum(1 for _ in enumerate_tables(2, 1)) == 8
    assert sum(1 for _ in enumerate_tables(3, 1)) == 113
    # two operations on four elements: pairs of the 3 492 single-operation
    # tables whose mixed instances hold (CI also pins (4,3), 187 332); the
    # sha256 (first 32 hex digits) of each table's repr, concatenated in
    # stream order, pins their order
    sha, count = hashlib.sha256(), 0
    for table in enumerate_tables(4, 2):
        sha.update(repr(table).encode())
        count += 1
    assert (count, sha.hexdigest()[:32]) == (
        26_028, "2d838f5f8046a555461d01d4911aff06")


def test_single_operation_tables_and_pairs_built_once_per_n():
    # a repeat call reads the cached tables and pairs, whatever m it asks
    for n, m in [(3, 1), (3, 2), (3, 3), (2, 2)]:
        list(enumerate_tables(n, m))
    before = (enumeration._semigroups.cache_info(),
              enumeration._compatible.cache_info())
    for n, m in [(3, 1), (3, 2), (3, 3), (2, 2), (2, 3)]:
        list(enumerate_tables(n, m))
    after = (enumeration._semigroups.cache_info(),
             enumeration._compatible.cache_info())
    assert [info.misses for info in after] == [
        info.misses for info in before]


# OEIS A023814 (labeled semigroups) and A027851 (semigroups up to
# isomorphism), anchors from outside the code
@pytest.mark.parametrize("n, labeled, classes",
                         [(1, 1, 1), (2, 8, 5), (3, 113, 24), (4, 3492, 188)])
def test_oeis_semigroup_counts(n, labeled, classes):
    tables = list(enumerate_tables(n, 1))
    assert len(tables) == labeled
    diagonal = frozenset((i, i) for i in range(n))
    assert len({enumeration.canonical_encoding(n, 1, t, diagonal)
                for t in tables}) == classes


def test_oeis_semigroup_counts_at_five():
    # the pruned search's tables are A027851(5); weighted by orbit size
    # n!/|Aut(T)|, they count the labeled tables, A023814(5)
    canonical = enumeration._canonical_semigroups(5)
    assert len(canonical) == 1915
    assert all(120 % len(autos) == 0 for _, autos in canonical)
    assert sum(120 // len(autos) for _, autos in canonical) == 183_732


# orbit-stabilizer: each class S stands for n! m! / |Aut(S)| labeled
# structures, so the weights over the up-to-iso stream count the labeled
# stream; |Aut(S)| is counted by the oracle, since _automorphisms lists
# element permutations only
@pytest.mark.parametrize("n, m, labeled", [
    (3, 2, 3203), (2, 3, 62), (3, 3, 10_103), (4, 1, 107_688)])
def test_orbit_weights_count_the_labeled_stream(n, m, labeled):
    group = math.factorial(n) * math.factorial(m)
    autos = [naive_oracle.automorphism_count(S) for S in
             enumerate_structures(SearchSpec(n=n, m=m, up_to_iso=True))]
    assert all(group % a == 0 for a in autos)
    assert sum(group // a for a in autos) == labeled == sum(
        1 for _ in enumerate_structures(SearchSpec(n=n, m=m)))


# OEIS A001423 (semigroups up to isomorphism or anti-isomorphism): a
# canonical table is kept when its flat table is at most the canonical
# flat table of its opposite, x * y = y x
@pytest.mark.parametrize("n, classes",
                         [(1, 1), (2, 4), (3, 18), (4, 126), (5, 1160)])
def test_oeis_anti_isomorphism_counts(n, classes):
    kept = 0
    for t, _ in enumeration._canonical_semigroups(n):
        opposite = tuple((tuple(t[y][x] for y in range(n)),)
                         for x in range(n))
        least, _ = enumeration.canonical_encoding(n, 1, opposite, ())
        kept += tuple(itertools.chain(*t)) <= least
    assert kept == classes


# OEIS A001035 (labeled posets), an anchor from outside the code
@pytest.mark.parametrize("n, posets",
                         [(1, 1), (2, 3), (3, 19), (4, 219), (5, 4231)])
def test_oeis_poset_counts(n, posets):
    orders, R = enumeration._posets(n)
    assert len(orders) == len(R) == posets
    for row, leq in zip(R, orders):  # stack row k is order k
        assert {(i, j) for i in range(n) for j in range(n) if row[i, j]} == leq
    if n <= 3:
        assert set(orders) == set(naive_oracle.naive_orders(n))
    offdiag = [(i, j) for i in range(n) for j in range(n) if i != j]
    bits = [sum(1 << k for k, p in enumerate(offdiag) if p in leq)
            for leq in orders]
    assert bits == sorted(bits)


# sha256 (first 32 hex digits) of each emitted structure's
# repr((elements, gammas, table, sorted(leq))), concatenated in stream order;
# the (3,2) and (3,3) up-to-iso pins are the benchmark's census legs
@pytest.mark.parametrize("spec, count, digest", [
    (SearchSpec(n=3, m=2, up_to_iso=True), 371,
     "c002de93d24a3eab7d07767d0c3fd444"),
    (SearchSpec(n=4, m=1, limit=2000), 2000,
     "7e536f0ba583f78e2af948f2cd881bc0"),
    (SearchSpec(n=3, m=2), 3203, "5b4ea6a0c27e3d0ddca3e1af4716a0c0"),
    (SearchSpec(n=3, m=3, up_to_iso=True), 634,
     "5704bb010ed1c3fc26c31ed9415f3ee0"),
    (SearchSpec(n=4, m=1, up_to_iso=True), 4753,
     "ee764d3942da9f40d92ced7635ce2e31"),
    (SearchSpec(n=4, m=1), 107_688, "d97d3805c7cad141c5497867089173a3"),
    (SearchSpec(n=2, m=3), 62, "ec8377d4ef948a0883750d36edd6688a"),
    (SearchSpec(n=2, m=3, up_to_iso=True), 18,
     "1045b4eb4511675f9de36443c36f7336"),
])
def test_emitted_stream_pinned(spec, count, digest):
    sha = hashlib.sha256()
    emitted = 0
    for S in enumerate_structures(spec):
        sha.update(repr((S.elements, S.gammas, S.table,
                         sorted(S.leq))).encode())
        emitted += 1
    assert (emitted, sha.hexdigest()[:32]) == (count, digest)


def test_tables_emitted_in_lexicographic_order():
    flat = [tuple(t[x][g][y] for x in range(2) for g in range(1)
                  for y in range(2))
            for t in enumerate_tables(2, 1)]
    assert flat == sorted(flat)


def test_orders_for_left_zero_table():
    table = (((0, 0),), ((1, 1),))
    got = list(enumerate_orders(2, table))
    naive = naive_oracle.naive_compatible_orders(2, 1, table)
    assert len(got) == len(naive) == 3
    assert set(got) == set(naive)


def test_orders_for_constant_table():
    table = (((0, 0),), ((0, 0),))
    got = list(enumerate_orders(2, table))
    assert len(got) == 3  # all labeled posets on two elements qualify


def _compatible_by_loop(table, n, m, leq):
    """Reference: every compatibility instance of every strict pair."""
    for i, j in leq:
        if i == j:
            continue
        for g in range(m):
            for c in range(n):
                if (table[i][g][c], table[j][g][c]) not in leq:
                    return False
                if (table[c][g][i], table[c][g][j]) not in leq:
                    return False
    return True


def test_orders_match_the_instance_loop():
    # all 5 302 tables of (3,2), (3,3) and (4,1): 120 994 orders, in order
    total = 0
    for n, m in [(3, 2), (3, 3), (4, 1)]:
        posets, _ = enumeration._posets(n)
        for table in enumerate_tables(n, m):
            got = list(enumerate_orders(n, table))
            assert got == [leq for leq in posets
                           if _compatible_by_loop(table, n, m, leq)], table
            total += len(got)
            if (n, m) == (3, 2):  # validation reads the same test
                assert got == [leq for leq in posets if validate_structure(
                    range(n), range(m), table, sorted(leq),
                    require_compat=False).compatible]
    assert total == 120_994


def test_validation_compatibility_matches_the_oracle_off_the_search():
    # tables the enumerator never yields: every 2-element single-operation
    # table, associative or not, and a seeded sample of non-associative
    # (3,2) tables
    cases = [(2, 1, (((a, b),), ((c, d),)))
             for a, b, c, d in itertools.product(range(2), repeat=4)]
    rng = random.Random(31)
    while len(cases) < 16 + 200:
        table = tuple(tuple(tuple(rng.randrange(3) for _ in range(3))
                            for _ in range(2)) for _ in range(3))
        if not table_is_associative(table):
            cases.append((3, 2, table))
    verdicts = []
    for n, m, table in cases:
        orders, R = enumeration._posets(n)
        naive = set(naive_oracle.naive_compatible_orders(n, m, table))
        stacked = compatible(table, R)
        for k, leq in enumerate(orders):
            S = validate_structure(range(n), range(m), table, sorted(leq),
                                   require_compat=False)
            assert (S.compatible == (leq in naive) == stacked[k]
                    == compatible(table, R[k])), (table, leq)
            verdicts.append(S.compatible)
    assert any(verdicts) and not all(verdicts)


def test_orders_include_discrete():
    for table in enumerate_tables(2, 1):
        orders = list(enumerate_orders(2, table))
        discrete = frozenset({(0, 0), (1, 1)})
        assert discrete in orders


def test_structure_counts_vs_naive():
    for n, m in [(2, 1), (2, 2)]:
        fast = list(enumerate_structures(SearchSpec(n=n, m=m)))
        naive = naive_oracle.naive_structures(n, m)
        assert len(fast) == len(naive)
        fast_keys = {(S.table, S.leq) for S in fast}
        assert fast_keys == set(naive)


def test_emitted_structures_are_valid():
    # the enumerator builds its structures unvalidated: this is their check
    for spec in (SearchSpec(n=2, m=2), SearchSpec(n=3, m=2),
                 SearchSpec(n=2, m=2, up_to_iso=True)):
        for S in enumerate_structures(spec):
            assert S.associative and S.compatible
            revalidated = validate_structure(S.elements, S.gammas, S.table,
                                             sorted(S.leq))
            assert revalidated == S


def test_limit_truncates():
    got = list(enumerate_structures(SearchSpec(n=2, m=1, limit=3)))
    assert len(got) == 3


def test_emission_deterministic():
    a = [S.digest() for S in enumerate_structures(SearchSpec(n=2, m=2))]
    b = [S.digest() for S in enumerate_structures(SearchSpec(n=2, m=2))]
    assert a == b


def test_canonical_form_examples(T1, LZ2, NZ2):
    assert canonical_form(T1) == canonical_form(T1)
    swapped = validate_structure(["b", "a"], ["g"], [[[0, 0]], [[1, 1]]], [])
    assert canonical_form(swapped) == canonical_form(LZ2)
    assert are_isomorphic(swapped, LZ2)
    assert canonical_form(LZ2) != canonical_form(NZ2)
    assert not are_isomorphic(LZ2, NZ2)
    # sizes differ, so no canonical form is computed
    assert not are_isomorphic(T1, LZ2)


def test_up_to_iso_covers_labeled_space_once():
    for n, m in [(2, 1), (2, 2)]:
        labeled = naive_oracle.naive_structures(n, m)
        reps = list(enumerate_structures(SearchSpec(n=n, m=m,
                                                    up_to_iso=True)))
        assert len(reps) <= len(labeled)
        rep_pairs = [(S.table, S.leq) for S in reps]
        for s in labeled:
            matches = [r for r in rep_pairs
                       if naive_oracle.isomorphic(n, m, s, r)]
            assert len(matches) >= 1
            # exactly one representative per class
            assert len({enumeration.canonical_encoding(n, m, *r)
                        for r in matches}) == 1
        # no two representatives are isomorphic
        for i, r1 in enumerate(rep_pairs):
            for r2 in rep_pairs[i + 1:]:
                assert not naive_oracle.isomorphic(n, m, r1, r2)


def test_caps_enforced():
    with pytest.raises(ValueError, match="caps"):
        SearchSpec(n=5, m=1)
    # n = 5 only up to isomorphism with one operation
    assert SearchSpec(n=5, m=1, up_to_iso=True).n == 5
    for n, m in [(5, 2), (6, 1)]:
        with pytest.raises(ValueError, match="caps"):
            SearchSpec(n=n, m=m, up_to_iso=True)
    with pytest.raises(ValueError, match="caps"):
        SearchSpec(n=2, m=4)
    with pytest.raises(ValueError, match="limit"):
        SearchSpec(n=2, m=1, limit=-3)
    # itertools.islice takes no stop past sys.maxsize
    assert SearchSpec(n=1, m=1, limit=sys.maxsize).limit == sys.maxsize
    with pytest.raises(ValueError, match=f"at most {sys.maxsize}"):
        SearchSpec(n=1, m=1, limit=sys.maxsize + 1)


@pytest.mark.parametrize("fields", [
    {"n": 2, "m": 1, "limit": 2.5}, {"n": 2.0, "m": 1}, {"n": 2, "m": 1.0},
    {"n": True, "m": 1, "limit": True}, {"n": 2, "m": 1, "limit": False},
    {"n": None, "m": 1}])
def test_search_spec_counts_are_ints(fields):
    # rejected when the spec is made, not when its stream is first read
    with pytest.raises(ValueError, match="int"):
        SearchSpec(**fields)
