"""Independent brute-force oracle for the enumerator and the regularity classes.

Deliberately naive: every table in the full cell space is filtered by a
complete associativity scan, every relation on the carrier by the poset
axioms and two-sided compatibility, and isomorphism is decided by explicit
permutation search.  The four regularity classes are tested element by
element, and the fuzzy ideal predicates membership vector by membership
vector, with one loop per quantifier.  Nothing here shares code with the
program beyond the raw data layout.

Runnable as a script to print counts:  python3 tests/naive_oracle.py
"""

from __future__ import annotations

import itertools


def naive_tables(n: int, m: int):
    """All associative tables by exhaustive filtering."""
    out = []
    for vals in itertools.product(range(n), repeat=n * m * n):
        it = iter(vals)
        table = tuple(tuple(tuple(next(it) for _ in range(n))
                            for _ in range(m)) for _ in range(n))
        ok = True
        for x in range(n):
            for g in range(m):
                for y in range(n):
                    for mu in range(m):
                        for z in range(n):
                            if (table[table[x][g][y]][mu][z]
                                    != table[x][g][table[y][mu][z]]):
                                ok = False
        if ok:
            out.append(table)
    return out


def naive_orders(n: int):
    """All labeled partial orders as full relation sets."""
    offdiag = [(i, j) for i in range(n) for j in range(n) if i != j]
    diagonal = {(i, i) for i in range(n)}
    out = []
    for keep in itertools.product([False, True], repeat=len(offdiag)):
        rel = {p for p, k in zip(offdiag, keep) if k}
        leq = rel | diagonal
        antisym = all((j, i) not in rel for i, j in rel)
        trans = all((i, l) in leq
                    for i, j in leq for k, l in leq if j == k)
        if antisym and trans:
            out.append(frozenset(leq))
    return out


def naive_compatible_orders(n: int, m: int, table):
    out = []
    for leq in naive_orders(n):
        ok = True
        for i, j in leq:
            for g in range(m):
                for c in range(n):
                    if ((table[i][g][c], table[j][g][c]) not in leq
                            or (table[c][g][i], table[c][g][j]) not in leq):
                        ok = False
        if ok:
            out.append(leq)
    return out


def naive_structures(n: int, m: int):
    """All labeled (table, order) pairs passing every axiom."""
    out = []
    for table in naive_tables(n, m):
        for leq in naive_compatible_orders(n, m, table):
            out.append((table, leq))
    return out


def isomorphic(n: int, m: int, s1, s2) -> bool:
    """Explicit permutation search over element and operation relabelings."""
    t1, o1 = s1
    t2, o2 = s2
    for sigma in itertools.permutations(range(n)):
        for tau in itertools.permutations(range(m)):
            if any(sigma[t1[x][g][y]] != t2[sigma[x]][tau[g]][sigma[y]]
                   for x in range(n) for g in range(m) for y in range(n)):
                continue
            if frozenset((sigma[i], sigma[j]) for i, j in o1) == o2:
                return True
    return False


def automorphism_count(S) -> int:
    """|Aut(S)|: the (element, operation) permutation pairs that map every
    product onto a product and the order onto itself, each pair counted."""
    n, m, table = S.n, S.m, S.table
    count = 0
    for sigma in itertools.permutations(range(n)):
        if frozenset((sigma[i], sigma[j]) for i, j in S.leq) != S.leq:
            continue
        for tau in itertools.permutations(range(m)):
            count += all(sigma[table[x][g][y]]
                         == table[sigma[x]][tau[g]][sigma[y]]
                         for x in range(n) for g in range(m)
                         for y in range(n))
    return count


# --- regularity classes -------------------------------------------------
# One membership test per class, written out from its definition:
# a <= a Γ M Γ a, a <= M Γ a Γ a Γ M, a <= a Γ a Γ M and a <= M Γ a Γ a,
# products taken left to right.

def naive_regular(n: int, m: int, table, leq, a: int) -> bool:
    for x in range(n):
        for g in range(m):
            for mu in range(m):
                if (a, table[table[a][g][x]][mu][a]) in leq:
                    return True
    return False


def naive_intra_regular(n: int, m: int, table, leq, a: int) -> bool:
    for x in range(n):
        for y in range(n):
            for g1 in range(m):
                for g2 in range(m):
                    for g3 in range(m):
                        p = table[table[table[x][g1][a]][g2][a]][g3][y]
                        if (a, p) in leq:
                            return True
    return False


def naive_right_regular(n: int, m: int, table, leq, a: int) -> bool:
    for x in range(n):
        for g1 in range(m):
            for g2 in range(m):
                if (a, table[table[a][g1][a]][g2][x]) in leq:
                    return True
    return False


def naive_left_regular(n: int, m: int, table, leq, a: int) -> bool:
    for x in range(n):
        for g1 in range(m):
            for g2 in range(m):
                if (a, table[table[x][g1][a]][g2][a]) in leq:
                    return True
    return False


NAIVE_CLASSES = {
    "regular": naive_regular,
    "intra_regular": naive_intra_regular,
    "right_regular": naive_right_regular,
    "left_regular": naive_left_regular,
}


# --- fuzzy ideal predicates ---------------------------------------------
# One test per predicate on a membership vector v, written out from its
# definition: v reverses the order, and v(x γ y) >= v(x) (right ideal),
# v(x γ y) >= v(y) (left ideal) or v((x γ y) μ z) >= min(v(x), v(z))
# (bi-ideal, over all pairs of operations).

def naive_order_reversing(n: int, m: int, table, leq, v) -> bool:
    for i in range(n):
        for j in range(n):
            if (i, j) in leq and v[i] < v[j]:
                return False
    return True


def naive_right_ideal(n: int, m: int, table, leq, v) -> bool:
    if not naive_order_reversing(n, m, table, leq, v):
        return False
    for x in range(n):
        for g in range(m):
            for y in range(n):
                if v[table[x][g][y]] < v[x]:
                    return False
    return True


def naive_left_ideal(n: int, m: int, table, leq, v) -> bool:
    if not naive_order_reversing(n, m, table, leq, v):
        return False
    for x in range(n):
        for g in range(m):
            for y in range(n):
                if v[table[x][g][y]] < v[y]:
                    return False
    return True


def naive_bi_ideal(n: int, m: int, table, leq, v) -> bool:
    if not naive_order_reversing(n, m, table, leq, v):
        return False
    for x in range(n):
        for g in range(m):
            for y in range(n):
                for mu in range(m):
                    for z in range(n):
                        if v[table[table[x][g][y]][mu][z]] < min(v[x], v[z]):
                            return False
    return True


NAIVE_FUZZY_IDEALS = {
    "order_reversing": naive_order_reversing,
    "right": naive_right_ideal,
    "left": naive_left_ideal,
    "bi": naive_bi_ideal,
}


def main():
    for n, m in [(1, 1), (2, 1), (2, 2)]:
        tables = naive_tables(n, m)
        structures = naive_structures(n, m)
        print(f"n={n} m={m}: associative tables={len(tables)} "
              f"structures={len(structures)}")


if __name__ == "__main__":
    main()
