import dataclasses
import hashlib
import itertools
import json
import random
import sys

import numpy as np
import pytest

from conftest import make_lz2, make_nz2, make_t1
from fuzzygamma import (fuzzy, ideals, structure, theorems,
                        validate_structure)
from fuzzygamma.enumeration import SearchSpec, enumerate_structures
from fuzzygamma.fuzzy import (GRID_CAP, FuzzySubset, GridBattery,
                              characteristic, compose, constant_one,
                              default_battery, enumerate_grid_battery,
                              generated_fuzzy_ideal, grid_levels,
                              point_characteristic)
from fuzzygamma.structure import StructureError, factorizations
from fuzzygamma.theorems import (NEGATIVE_CONTROL_IDS, THEOREM_IDS, check,
                                 check_all, cross_validate_random,
                                 find_counterexample, replay_witness)

EXPECTED_IDS = {
    "P4", "P5", "P6", "L8", "L9", "L10", "L11", "L12", "L15", "L17",
    "C18", "C19", "L20", "L21", "L22", "T13", "T16", "T23", "T24", "T26",
    "T28", "P29", "C30", "C31", "QI",
}


def test_registry_completeness():
    # closed id set, no duplicates, one table entry with a description each
    assert set(THEOREM_IDS) == EXPECTED_IDS
    assert len(THEOREM_IDS) == len(EXPECTED_IDS)
    assert set(theorems.LAWS) == set(THEOREM_IDS + NEGATIVE_CONTROL_IDS)
    for tid in THEOREM_IDS + NEGATIVE_CONTROL_IDS:
        assert theorems.LAWS[tid].description


def test_unknown_id_rejected(T1):
    with pytest.raises(KeyError):
        check(T1, "T99")
    with pytest.raises(KeyError):
        find_counterexample("NOPE", 1, 1)


def test_check_requires_associative():
    from fuzzygamma import validate_structure
    S = validate_structure(["a", "b"], ["g"], [[[1, 1]], [[0, 0]]], [])
    with pytest.raises(ValueError, match="associative"):
        check(S, "L10")


def test_l10_on_lz2(LZ2):
    v = check(LZ2, "L10", GridBattery(levels=6))
    assert v.outcome == "holds" and not v.vacuous


def test_t13_on_nz2(NZ2):
    v = check(NZ2, "T13", GridBattery(levels=6))
    assert v.outcome == "holds"


def test_t23_on_t1(T1):
    v = check(T1, "T23", GridBattery(levels=4))
    assert v.outcome == "holds" and not v.vacuous


def test_check_all_counts(T1, LZ2, NZ2):
    for S in (T1, LZ2, NZ2):
        verdicts = check_all(S)
        assert len(verdicts) == 25
        assert [v.theorem for v in verdicts] == list(THEOREM_IDS)
        assert all(v.outcome == "holds" for v in verdicts)


def test_vacuous_reporting_on_nz2(NZ2):
    verdicts = {v.theorem: v for v in check_all(NZ2)}
    # conditional statements hold vacuously on a non-regular structure
    assert verdicts["L8"].vacuous
    assert verdicts["L9"].vacuous
    assert verdicts["C31"].vacuous
    # z is intra-regular (the constant law squares to z), so the
    # element-conditional statement is exercised, not vacuous
    assert not verdicts["L22"].vacuous
    assert not verdicts["L10"].vacuous


def test_negative_control_refuted_on_nz2(NZ2):
    v = check(NZ2, "L8-unconditional", GridBattery(levels=6))
    assert v.outcome == "refuted"
    assert v.witness is not None
    assert replay_witness(NZ2, v)
    # a witness naming an element the structure lacks is rejected
    mangled = dataclasses.replace(v, witness={**v.witness, "element": "nope"})
    with pytest.raises(StructureError, match="nope"):
        replay_witness(NZ2, mangled)


def test_negative_control_excluded_from_check_all(NZ2):
    assert "L8-unconditional" not in [v.theorem for v in check_all(NZ2)]


def test_witness_replay_requires_refutation(T1):
    v = check(T1, "L10")
    with pytest.raises(ValueError):
        replay_witness(T1, v)


def test_find_counterexample_l10_none():
    assert find_counterexample("L10", n_max=2, m_max=2) is None


def test_find_counterexample_weakened_l8():
    hit = find_counterexample("L8-unconditional", n_max=2, m_max=1)
    assert hit is not None
    S, verdict = hit
    assert verdict.outcome == "refuted"
    assert replay_witness(S, verdict)


def test_find_counterexample_deterministic():
    a = find_counterexample("L8-unconditional", n_max=2, m_max=1)
    b = find_counterexample("L8-unconditional", n_max=2, m_max=1)
    assert a[0].digest() == b[0].digest()
    assert a[1].witness == b[1].witness


def test_find_counterexample_limit_caps_the_checks(monkeypatch):
    calls = []
    monkeypatch.setattr(theorems, "check", _counted(calls, theorems.check))
    assert find_counterexample("L10", n_max=2, m_max=2, limit=0) is None
    assert calls == []
    for k in (1, 3, 7):
        calls.clear()
        # L10 never refutes, so the search stops only at the limit
        assert find_counterexample("L10", n_max=2, m_max=2, limit=k) is None
        assert len(calls) == k
    with pytest.raises(ValueError, match="limit must be non-negative"):
        find_counterexample("L10", n_max=2, m_max=2, limit=-1)
    with pytest.raises(ValueError, match=f"at most {sys.maxsize}"):
        find_counterexample("L10", n_max=2, m_max=2, limit=10**20)
    # the caps are checked before the first structure, not when reached;
    # they are the caps up to isomorphism, which every stream read is in
    calls.clear()
    for n_max, m_max in ((5, 2), (6, 1), (2, 4), (0, 1)):
        with pytest.raises(ValueError):
            find_counterexample("L10", n_max=n_max, m_max=m_max)
    assert find_counterexample("L10", n_max=5, m_max=1, limit=0) is None
    assert calls == []


def test_battery_description_recorded(NZ2):
    v = check(NZ2, "L10", GridBattery(levels=6))
    assert "L=6" in v.battery


def test_cross_validate_random_fixtures(T1, LZ2, NZ2):
    for S in (T1, LZ2, NZ2):
        assert cross_validate_random(S, samples=5_000, seed=3) == []


def test_verdict_serialization(NZ2):
    v = check(NZ2, "T13")
    d = v.to_dict()
    assert d["theorem"] == "T13"
    assert d["outcome"] in ("holds", "refuted")
    assert isinstance(d["battery"], str)


# sha256 of the verdict JSON over the witness corpus: a changed verdict,
# witness or scan order changes it
CORPUS_VERDICTS_SHA256 = \
    "9716fae90545c9b2da60a53fbc5dbe87ce0da789c61b40f2e7c4b5c840cb9899"


def test_witness_corpus_replays_and_keeps_its_verdicts(witness_corpus,
                                                      monkeypatch):
    digest = hashlib.sha256()
    refutations = []
    for S in witness_corpus:
        for v in check_all(S) + [check(S, "L8-unconditional")]:
            digest.update(json.dumps(v.to_dict()).encode())
            if v.outcome == "refuted":
                refutations.append((S, v))

    def no_kernels(*args):
        raise AssertionError("replay reached the numpy kernels")

    # replay composes through the scalar calculus only; a context cached by
    # the checks above was built before the patch, so it is dropped
    monkeypatch.setattr(theorems, "_compose", no_kernels)
    monkeypatch.setattr(theorems, "_Kernels", no_kernels)
    theorems._context.cache_clear()
    refuted, kinds = {}, set()
    for S, v in refutations:
        assert replay_witness(S, v), (S, v)
        refuted[v.theorem] = refuted.get(v.theorem, 0) + 1
        kinds.add(v.witness["law"])
    assert sum(refuted.values()) == 219
    assert set(refuted) == {
        "P6", "L9", "L12", "L15", "L22", "T13", "T16", "T23", "T24", "T26",
        "T28", "L8-unconditional"}
    assert kinds == {"class_mismatch", "meet_leq_compose", "chain_leq",
                     "pred_equiv"}
    assert digest.hexdigest() == CORPUS_VERDICTS_SHA256


# --- L17, C18 and C19 under support-only kernel faults ------------------

def _left_zero3():
    return validate_structure(["a", "b", "c"], ["g"],
                              [[[0, 0, 0]], [[1, 1, 1]], [[2, 2, 2]]], [])


def _support_definition(S, F, G):
    """Whether some factorization (y, z) of a has F[i, y] > 0 and
    G[j, z] > 0, pair by pair from ``factorizations``."""
    E = np.zeros((F.shape[0], G.shape[0], S.n), dtype=bool)
    for a, pairs in enumerate(factorizations(S)):
        for y, z in pairs:
            E[:, :, a] |= (F[:, y] > 0)[:, None] & (G[:, z] > 0)[None, :]
    return E


def _full_support_scan(calc, F, G):
    """Reference: every row of F against every row of G, in order."""
    C = calc.compose(F[:, None], G[None]) > 0
    bad = C != _support_definition(calc.S, F, G)
    if not bad.any():
        return None
    return tuple(int(v) for v in np.argwhere(bad)[0])


_real_compose = theorems._compose


def _zero_kernel(facts, F, G):
    # a kernel fault that depends on the supports only: never nonzero
    return np.zeros(np.broadcast(F, G).shape)


def _blind_kernel(facts, F, G):
    # a support-only fault that never sees element 0 as a factor; unlike the
    # zero kernel, its first hit lies past the first two battery rows, where
    # a locator that lost the row order would show
    F, G = F.copy(), G.copy()
    F[..., 0] = G[..., 0] = 0.0
    return _real_compose(facts, F, G)


@pytest.mark.parametrize("kernel", [_zero_kernel, _blind_kernel])
@pytest.mark.parametrize("make", [make_lz2, make_nz2, _left_zero3])
def test_support_quotient_matches_full_scan(monkeypatch, make, kernel):
    # the two-stage locator finds the full scan's first hit: with a fault
    # that sees only supports, f and the characteristic function of g's
    # support still violate, and that is a crisp row of g's role
    monkeypatch.setattr(theorems, "_compose", kernel)
    S = make()
    ctx = theorems._Context(S, default_battery(S))
    for tid in ("L17", "C18", "C19"):
        law = theorems.LAWS[tid]
        F, G = (theorems._rows(ctx.calc, role, ctx.W) for role in law.roles)
        expected = _full_support_scan(ctx.calc, F, G)
        assert expected is not None
        hit = theorems._first_failure(ctx.calc, law, ctx.crisp, ctx.W)
        assert hit[2:] == (expected, []), tid


@pytest.mark.parametrize("kernel", [_zero_kernel, _blind_kernel])
def test_faulty_kernel_refutes_l17_at_first_full_scan_hit(monkeypatch,
                                                          kernel):
    monkeypatch.setattr(theorems, "_compose", kernel)
    S = _left_zero3()
    battery = default_battery(S)
    v = check(S, "L17", battery)
    assert v.outcome == "refuted"
    ctx = theorems._Context(S, battery)
    W = theorems._rows(ctx.calc, "any", ctx.W)
    i, j, a = _full_support_scan(ctx.calc, W, W)
    assert v.witness == {"law": "support_iff", "variant": "fg",
                         "f": ctx.row_dict(W[i]), "g": ctx.row_dict(W[j]),
                         "element": S.elements[a]}
    # the witness is jointly supported, and the scalar calculus, which the
    # patch does not reach, composes it to nonzero: replay clears the law
    # and so pins the refutation on the faulty kernel
    assert not replay_witness(S, v)


@pytest.fixture
def fresh_context():
    # a context built under a patched kernel must not outlive the patch
    theorems._context.cache_clear()
    yield
    theorems._context.cache_clear()


def _all_cofactors_support(facts, F, G):
    # a support-kernel fault: a left factor y counts only when g is positive
    # on every cofactor of y, not on some
    out = np.zeros(np.broadcast(F, G).shape, dtype=bool)
    for a, groups in enumerate(facts):
        col = out[..., a]
        for y, zs in groups:
            col |= (F[..., y] > 0) & (G[..., zs] > 0).all(axis=-1)
    return out


def test_faulty_support_kernel_refutations_do_not_replay(monkeypatch,
                                                          fresh_context):
    # replay computes joint supports pair by pair from the factorizations,
    # sharing no code with the kernel, so it clears the refutations the
    # fault causes
    monkeypatch.setattr(theorems, "_joint_support", _all_cofactors_support)
    S = make_nz2()
    for tid in ("L17", "C19"):
        v = check(S, tid)
        assert v.outcome == "refuted", tid
        assert not replay_witness(S, v), tid
    # random draws are almost surely positive everywhere, where "some" and
    # "every" cofactor agree, so only the zero-masked draws see the fault:
    # without them random mode lists nothing here
    assert cross_validate_random(S, samples=2_000, seed=0) == [
        {"law": "L17", "count": 741}, {"law": "C19", "count": 996}]


@pytest.mark.parametrize("tid", ["L21", "L17"])
def test_screen_and_scan_disagreement_raises(monkeypatch, fresh_context,
                                             tid):
    # a context warmed under a faulty kernel keeps a screen that finds
    # violations; the scan, through the restored kernel, finds none
    S = make_nz2()
    battery = default_battery(S)
    monkeypatch.setattr(theorems, "_compose", _zero_kernel)
    theorems._context(S, battery)
    monkeypatch.setattr(theorems, "_compose", _real_compose)
    with pytest.raises(RuntimeError, match=S.digest()) as raised:
        check(S, tid, battery)
    assert theorems.LAWS[tid].description in str(raised.value)


def test_char_bridge_witness_replays_only_under_its_fault(monkeypatch):
    # {a} is not downward closed under z < a; a crisp test that calls it a
    # right ideal disagrees with the characteristic function.  The fault
    # flips {z, a} as well, but replay re-runs the probe, so only its first
    # witness replays
    S = make_nz2()
    real = ideals.is_ideal
    flipped = ({S.index("a")}, {S.index("z"), S.index("a")})

    def is_ideal(S, A, side):
        return real(S, A, side) != (set(A) in flipped)

    monkeypatch.setattr(ideals, "is_ideal", is_ideal)
    v = check(S, "L11")
    assert v.witness == {"law": "char_bridge", "side": "right", "A": ["a"],
                         "crisp": True, "fuzzy": False}
    assert replay_witness(S, v)
    later = {"law": "char_bridge", "side": "right", "A": ["a", "z"],
             "crisp": False, "fuzzy": True}
    assert not replay_witness(S, dataclasses.replace(v, witness=later))
    monkeypatch.undo()
    assert not replay_witness(S, v)


def test_point_square_witness_replays_only_under_its_fault(monkeypatch):
    S = make_nz2()
    monkeypatch.setattr(fuzzy, "square",
                        lambda f: fuzzy.constant_zero(f.structure))
    v = check(S, "L20")
    assert v.witness == {"law": "point_square", "a": "z", "b": "z",
                         "factorization_exists": True,
                         "composition_nonzero": False}
    assert replay_witness(S, v)
    # a true disagreement under the fault, but not the probe's first
    later = dict(v.witness, a="a")
    assert not replay_witness(S, dataclasses.replace(v, witness=later))
    monkeypatch.undo()
    assert not replay_witness(S, v)


@pytest.mark.parametrize("make", [make_nz2, _left_zero3])
def test_square_bound_witness_names_its_operation(monkeypatch, fresh_context,
                                                   make):
    # under the zero kernel f∘f is zero, so L21 fails where f is positive
    # at a square, and its witness names the element and the operation;
    # only a scalar calculus with the same fault replays it
    monkeypatch.setattr(theorems, "_compose", _zero_kernel)
    S = make()
    v = check(S, "L21")
    assert v.outcome == "refuted"
    expected = _full_scan_witness(theorems._Context(S, default_battery(S)),
                                  theorems.LAWS["L21"])
    assert {k: v.witness.get(k) for k in expected} == expected
    assert v.witness["gamma"] == "g"
    assert not replay_witness(S, v)
    monkeypatch.setattr(fuzzy, "compose",
                        lambda f, g: fuzzy.constant_zero(f.structure))
    assert replay_witness(S, v)


_real_ideal = theorems._Kernels.ideal


def _unfiltered_ideal(self, name, F):
    # a role-filter fault: every row counts as a fuzzy one-sided ideal
    if name in ("right", "left"):
        return np.ones(F.shape[0], dtype=bool)
    return _real_ideal(self, name, F)


def test_role_filter_fault_refutations_do_not_replay(monkeypatch,
                                                     fresh_context):
    # the faulty roles hold rows such as f = (z: 0, a: 0.2) on NZ2, which is
    # not order reversing; replay checks each row against its role through
    # the scalar predicates, so it clears every refutation the fault causes
    monkeypatch.setattr(theorems._Kernels, "ideal", _unfiltered_ideal)
    for S, laws in ((make_nz2(), {"P4", "P5", "L10", "P29", "C30", "QI"}),
                    (make_lz2(), {"P5", "L10", "T13", "P29"})):
        refuted = [v for v in check_all(S) if v.outcome == "refuted"]
        assert {v.theorem for v in refuted} == laws, S
        assert not any(replay_witness(S, v) for v in refuted), S


def test_chunked_location_finds_the_default_witness(monkeypatch,
                                                     fresh_context,
                                                     labeled_pool):
    # a 64-entry cube cuts _first_pair into blocks of one or a few rows, so
    # a witness past the first block is found at its offset in F, and every
    # verdict is the default one
    expected = [check(S, "L8-unconditional") for S in labeled_pool]
    monkeypatch.setattr(theorems, "_CUBE", 64)
    theorems._context.cache_clear()
    assert [check(S, "L8-unconditional") for S in labeled_pool] == expected
    assert sum(v.outcome == "refuted" for v in expected) == 386


def test_pool_refutations_replay(labeled_pool):
    # with the role filter intact every refutation on the pool, all of them
    # the control's, replays; the corpus's are replayed above
    refuted = [(S, v) for S in labeled_pool
               for v in check_all(S) + [check(S, "L8-unconditional")]
               if v.outcome == "refuted"]
    assert {v.theorem for _, v in refuted} == {"L8-unconditional"}
    assert len(refuted) == 386
    assert all(replay_witness(S, v) for S, v in refuted)


# --- the battery as an array --------------------------------------------

def _reference_rows(S, battery):
    """The battery's rows, stated from its definition: the grid vectors in
    lexicographic order, or the seeded draws, then every 0/1 row (bit i of
    the row number at element i)."""
    if not battery.sampled(S):
        return [list(v) for v in itertools.product(
            grid_levels(battery.levels), repeat=S.n)]
    rng = random.Random(battery.seed)
    rows = [[rng.random() for _ in range(S.n)]
            for _ in range(battery.samples)]
    return rows + [[float(bits >> i & 1) for i in range(S.n)]
                   for bits in range(2 ** S.n)]


def _battery_is_the_reference(S, battery):
    expected = _reference_rows(S, battery)
    W = theorems._Context(S, battery).W
    assert W.dtype == float and W.shape == (len(expected), S.n)
    assert W.tolist() == expected
    assert [list(f.values)
            for f in enumerate_grid_battery(S, battery)] == expected


@pytest.mark.parametrize("make, levels", [
    (make_t1, 2), (make_t1, 5), (make_lz2, 3), (make_lz2, 6),
    (_left_zero3, 2), (_left_zero3, 8)])
def test_context_battery_is_the_stream(make, levels):
    _battery_is_the_reference(make(), GridBattery(levels=levels))


def test_context_sampled_battery_is_the_stream():
    # ordered structures too; the generated point ideals, which the
    # battery's description names, are among its 0/1 rows
    battery = GridBattery(levels=GRID_CAP + 1, seed=7, samples=50)
    for S in (make_t1(), make_nz2(), _left_zero3(), _null3([(1, 2)])):
        _battery_is_the_reference(S, battery)
        rows = theorems._Context(S, battery).W.tolist()
        assert all(list(generated_fuzzy_ideal(point_characteristic(S, a),
                                              side).values) in rows
                   for a in range(S.n) for side in ("right", "left"))


@pytest.fixture
def battery_builds(monkeypatch):
    """The (structure, battery) of every ``fuzzy.battery_array`` call."""
    built = []
    real = fuzzy.battery_array
    monkeypatch.setattr(fuzzy, "battery_array",
                        lambda S, b: built.append((S, b)) or real(S, b))
    theorems._context.cache_clear()
    return built


def test_context_battery_cap(battery_builds):
    # 1001^2 grid rows are past the cap, so the battery is sampled; the
    # context builds it on first read of its rows, and only once
    S, battery = make_nz2(), GridBattery(levels=1001, samples=30)
    ctx = theorems._Context(S, battery)
    assert battery_builds == []
    assert ctx.W.shape == (30 + 4, 2) and ctx.W is ctx.W
    assert battery_builds == [(S, battery)]


def test_battery_built_only_to_locate_a_witness(battery_builds, labeled_pool):
    # every law is decided on 0/1 rows: the registry builds no battery on
    # the pool, and the control builds one exactly where it is refuted
    refuted = []
    for S in labeled_pool:
        check_all(S)
        assert [S for S, _ in battery_builds] == refuted, S
        if check(S, "L8-unconditional").outcome == "refuted":
            refuted.append(S)
        assert [S for S, _ in battery_builds] == refuted, S
    assert len(refuted) == 386


def test_context_built_once_per_structure_and_battery(monkeypatch):
    built = []
    init = theorems._Context.__init__

    def counted(self, S, battery):
        built.append((S, battery))
        init(self, S, battery)

    monkeypatch.setattr(theorems._Context, "__init__", counted)
    theorems._context.cache_clear()
    S = make_lz2()
    check_all(S)
    check(S, "L8-unconditional")
    check(S, "L10", default_battery(S))
    assert built == [(S, default_battery(S))]
    check(S, "L10", GridBattery(levels=3))
    check(make_nz2(), "L10")
    check(make_nz2(), "L8-unconditional")
    assert built[1:] == [(S, GridBattery(levels=3)),
                         (make_nz2(), default_battery(make_nz2()))]


def test_vacuous_and_probe_laws_build_no_context(monkeypatch):
    built = []
    init = theorems._Context.__init__

    def counted(self, S, battery):
        built.append(S)
        init(self, S, battery)

    monkeypatch.setattr(theorems._Context, "__init__", counted)
    theorems._context.cache_clear()
    S = make_nz2()
    for tid in ("L8", "L9", "C31"):
        v = check(S, tid)
        assert v.outcome == "holds" and v.vacuous, tid
    for tid in ("L11", "L12", "L15", "L20"):
        v = check(S, tid)
        assert v.outcome == "holds" and not v.vacuous, tid
    assert built == []


def _seeded_rows(rng, S):
    # fractional rows with some zeros, so supports vary too
    return (np.where(rng.random((4, S.n)) < 0.3, 0.0, rng.random((4, S.n)))
            for _ in range(2))


def _kernel_matches_scalar(S, F, G) -> bool:
    """Whether the numpy compositions of rows F and G, pairwise and with
    the constant one on either side, equal the scalar oracle's."""
    calc = theorems._Kernels(S)
    fs, gs = ([FuzzySubset(S, row) for row in X] for X in (F, G))
    one = constant_one(S)
    return (calc.compose(F[:, None], G[None]).tolist() == [
                [list(compose(f, g).values) for g in gs] for f in fs]
            and calc.compose(F, calc.one).tolist() == [
                list(compose(f, one).values) for f in fs]
            and calc.compose(calc.one, G).tolist() == [
                list(compose(one, g).values) for g in gs])


def test_kernels_match_scalar_compose(labeled_pool, witness_corpus):
    # the numpy compositions against the scalar oracle on seeded rows; the
    # grouped factorizations and the joint support against their
    # definitions
    rng = np.random.default_rng(5)
    for S in labeled_pool + witness_corpus:
        calc = theorems._Kernels(S)
        assert [{(y, z) for y, zs in groups for z in zs}
                for groups in calc.facts] == list(factorizations(S)), S
        F, G = _seeded_rows(rng, S)
        assert np.array_equal(
            theorems._joint_support(calc.facts, F[:, None], G[None]),
            _support_definition(S, F, G)), S
        assert _kernel_matches_scalar(S, F, G), S
        # the scalar calculus takes the same broadcast stacks
        scalar = theorems._Scalar(S)
        for X, Y in ((F[:, None], G[None]), (F, calc.one), (calc.one, G)):
            assert np.array_equal(scalar.compose(X, Y), calc.compose(X, Y)), S
            assert np.array_equal(scalar.joint_support(X, Y),
                                  calc.joint_support(X, Y)), S
        for X in (F, fuzzy.crisp_array(S.n)):
            for name in ("order_reversing", "right", "left", "bi"):
                assert np.array_equal(scalar.ideal(name, X),
                                      calc.ideal(name, X)), (S, name)


def test_relation_faults_reach_the_kernels_not_the_oracle(monkeypatch):
    # the scalar calculus computes from the table and the order, so a fault
    # in the factorization relation moves the kernels away from it: here
    # every element loses its factorization (a, a)
    calls = []
    relation = factorizations

    def faulty(S):
        calls.append(S)
        return tuple(pairs - {(a, a)} for a, pairs in enumerate(relation(S)))

    for module in (structure, fuzzy, theorems):
        monkeypatch.setattr(module, "factorizations", faulty, raising=False)
    S, f = make_t1(), np.array([0.5])
    calc = theorems._Kernels(S)
    assert calls == [S]
    assert calc.compose(f, f).tolist() == [0.0]
    assert calc.joint_support(f, f).tolist() == [False]
    scalar = theorems._Scalar(S)
    assert scalar.compose(f, f).tolist() == [0.5]
    assert scalar.joint_support(f, f).tolist() == [True]
    assert calls == [S]


def test_crisp_tables_match_the_kernels_and_the_oracle(labeled_pool,
                                                       witness_corpus):
    # every pair of 0/1 rows, the constant one (the last row) included: the
    # product table against the scalar oracle pair by pair and against the
    # kernel row by row, the support table against the support kernel row
    # by row, read as one broadcast stack, row by row and with calc.one
    for S in labeled_pool + witness_corpus:
        calc = theorems._CrispTable(theorems._Kernels(S))
        B = fuzzy.crisp_array(S.n)
        fs = [FuzzySubset(S, row) for row in B]
        P = calc.compose(B[:, None], B[None])
        assert P.tolist() == [[list(compose(f, g).values) for g in fs]
                              for f in fs], S
        E = calc.joint_support(B[:, None], B[None])
        for i, f in enumerate(B):
            assert np.array_equal(
                P[i], theorems._compose(calc.facts, f, B)), S
            assert np.array_equal(calc.compose(f, B), P[i]), S
            assert np.array_equal(
                E[i], theorems._joint_support(calc.facts, f, B)), S
            assert np.array_equal(calc.joint_support(f, B), E[i]), S
        assert np.array_equal(calc.compose(B, calc.one), P[:, -1]), S
        assert np.array_equal(calc.compose(calc.one, B), P[-1]), S


def _counted(calls, kernel):
    def counted(*args):
        calls.append(kernel.__name__)
        return kernel(*args)
    return counted


def test_check_all_makes_one_kernel_call_of_each_kind(monkeypatch,
                                                      labeled_pool):
    # every registry law holds on the pool, so check_all only screens, and
    # the screen reads every composition and joint support from the two
    # tables its context builds
    calls = []
    for name in ("_compose", "_joint_support"):
        monkeypatch.setattr(theorems, name,
                            _counted(calls, getattr(theorems, name)))
    theorems._context.cache_clear()
    for S in labeled_pool:
        calls.clear()
        assert all(v.outcome == "holds" for v in check_all(S)), S
        assert calls == ["_compose", "_joint_support"], S


# --- crisp-cut screen of every battery statement ------------------------

ROLES = ("any", "right", "left", "one")
# every battery statement; T13's equality clause is L10's entry
SCANS = tuple(law for law in theorems.LAWS.values() if law.run is None)


def _null3(order=()):
    return validate_structure(["a", "b", "c"], ["g"],
                              [[[0, 0, 0]], [[0, 0, 0]], [[0, 0, 0]]], order)


def _cuts_are_crisp_rows(ctx):
    weights = 1 << np.arange(ctx.S.n)
    for role in ROLES:
        X = theorems._rows(ctx.calc, role, ctx.W)
        crisp = ctx.crisp[role]
        assert ((crisp == 0) | (crisp == 1)).all()
        # every nonempty cut of a row is its cut at one of its own values
        cuts = (X[:, None, :] >= X[:, :, None])[X > 0]
        assert np.isin(cuts @ weights, (crisp > 0) @ weights).all(), role
        # and every crisp row of the role is one of its battery rows
        crisp_members = X[((X == 0) | (X == 1)).all(axis=1)]
        assert np.isin(crisp @ weights, crisp_members @ weights).all(), role


def test_level_cuts_are_crisp_rows_on_the_pool(labeled_pool):
    for S in labeled_pool:
        _cuts_are_crisp_rows(theorems._Context(S, default_battery(S)))


def test_level_cuts_are_crisp_rows_on_a_sampled_battery():
    # with b < c, the one-sided ideal roles keep only order-reversing rows
    battery = GridBattery(levels=GRID_CAP + 1, seed=5, samples=3000)
    _cuts_are_crisp_rows(theorems._Context(_null3([(1, 2)]), battery))


def _crisp_ideals_are_role_rows(structures, battery):
    # so appending the characteristic functions of crisp ideals to a role's
    # rows would only repeat rows
    for S in structures:
        ctx = theorems._Context(S, battery(S))
        for side in ("right", "left"):
            rows = {tuple(r) for r in ctx.W[ctx.calc.ideal(side, ctx.W)]}
            for A in ideals.all_subsets(S):
                if ideals.is_ideal(S, A, side):
                    assert characteristic(S, A).values in rows, (S, side, A)


def test_crisp_ideals_are_role_rows_on_the_pool(labeled_pool):
    _crisp_ideals_are_role_rows(labeled_pool, default_battery)


def test_crisp_ideals_are_role_rows_on_the_corpus(witness_corpus):
    _crisp_ideals_are_role_rows(witness_corpus, default_battery)


def test_crisp_ideals_are_role_rows_on_a_sampled_battery(labeled_pool,
                                                          witness_corpus):
    battery = GridBattery(levels=GRID_CAP + 1, seed=7, samples=50)
    _crisp_ideals_are_role_rows(labeled_pool + witness_corpus,
                                lambda S: battery)


def _first_full_hit(ctx, law):
    """The role and indices of the first failure of a single-row statement
    in a scan of every battery row, element-major where the statement is
    made element by element, or None."""
    for role in law.roles:
        bad, _ = theorems._statement(
            law, ctx.calc, theorems._rows(ctx.calc, role, ctx.W), role=role)
        hits = [tuple(int(v) for v in h) for h in np.argwhere(bad)]
        if hits and (law.at or law.kind == "square_bound"):
            return role, min(hits, key=lambda h: (h[1], h[0]) + h[2:])
        if hits:
            return role, hits[0]
    return None


def _full_scan_witness(ctx, law):
    """The located fields of the witness a scan of every battery row (or
    pair) finds first, or None."""
    S = ctx.S
    if law.kind in theorems._PAIR_KINDS:
        F, G = (theorems._rows(ctx.calc, role, ctx.W) for role in law.roles)
        full = theorems._first_pair(ctx.calc, law, F, G)
        if full is None:
            return None
        i, j, a, values = full
        return {"f": ctx.row_dict(F[i]), "g": ctx.row_dict(G[j]),
                "element": S.elements[a], **dict(values)}
    hit = _first_full_hit(ctx, law)
    if hit is None:
        return None
    role, idx = hit
    names = (S.elements, S.gammas)
    w = {"side": None if role == "any" else role,
         "f": ctx.row_dict(theorems._rows(ctx.calc, role, ctx.W)[idx[0]])}
    w.update(zip(("element", "gamma"),
                 (labels[k] for labels, k in zip(names, idx[1:]))))
    return w


def _located(hit):
    """A search's result without its row stacks: the role, the indices
    and the values, or None."""
    return hit and (hit[0],) + hit[2:]


def _screen_agrees(structures, battery):
    # the crisp screen finds a violation exactly when a scan of every
    # battery row (or pair) does, and the witness is that scan's first;
    # _first_violation answers None exactly when the screen finds none,
    # since the crisp rows are battery rows (_cuts_are_crisp_rows)
    kinds = set()
    for S in structures:
        ctx = theorems._Context(S, battery(S))
        for law in SCANS:
            expected = _full_scan_witness(ctx, law)
            w = theorems._first_violation(ctx, law)
            assert (w is None) == (expected is None), (S, law)
            if w is not None:
                assert {k: w.get(k) for k in expected} == expected, (S, law)
                kinds.add(law.kind)
    return kinds


def test_crisp_screen_agrees_with_full_scan_on_the_pool(labeled_pool):
    # four levels keep fractional rows (1/3, 2/3) at an eighth of the
    # default n=3 battery, so the full scans stay cheap
    assert _screen_agrees(labeled_pool, lambda S: GridBattery(levels=4)) == {
        "meet_leq_compose", "chain_leq", "chain_eq"}


def test_crisp_screen_agrees_with_full_scan_on_the_corpus(witness_corpus):
    assert _screen_agrees(witness_corpus, default_battery) == {
        "meet_leq_compose", "chain_leq", "chain_eq", "pred_equiv"}
    # the screen run in the scalar calculus, as replay runs it, agrees
    for S in witness_corpus:
        ctx = theorems._Context(S, default_battery(S))
        scalar = theorems._Scalar(S)
        crisp = {role: theorems._rows(scalar, role, fuzzy.crisp_array(S.n))
                 for role in ROLES}
        for role in ROLES:
            assert np.array_equal(crisp[role], ctx.crisp[role]), (S, role)
        for law in SCANS:
            assert (_located(theorems._first_failure(scalar, law, crisp))
                    == _located(theorems._first_failure(ctx.screen, law,
                                                        ctx.crisp))), (S, law)


def test_crisp_screen_agrees_with_full_scan_on_a_sampled_battery(
        witness_corpus):
    battery = GridBattery(levels=GRID_CAP + 1, seed=7, samples=50)
    assert _screen_agrees(witness_corpus, lambda S: battery) == {
        "meet_leq_compose", "chain_leq", "chain_eq", "pred_equiv"}


def _ones_kernel(facts, F, G):
    # a kernel fault that composes every pair to the constant one
    return np.ones(np.broadcast(F, G).shape)


def test_ones_kernel_refutes_the_ideal_inequality_laws(monkeypatch,
                                                       fresh_context):
    # no corpus structure refutes L10, P29, C30, C31 or QI, which follow
    # from the ideal inequalities alone; under a kernel that composes to one
    # they fail on every structure, with witnesses of the four kinds that
    # only a scalar calculus with the same fault replays
    monkeypatch.setattr(theorems, "_compose", _ones_kernel)
    structures = [make_t1(), make_lz2(), _left_zero3()]
    laws = {"L10", "T13", "P29", "C30", "C31", "QI"}
    refuted = [(S, v) for S in structures for v in check_all(S)
               if v.theorem in laws and v.outcome == "refuted"]
    assert len(refuted) == 3 * len(laws)
    assert {v.witness["law"] for _, v in refuted} == {
        "compose_leq_meet", "chain_geq", "chain_eq", "quasi_bound"}
    assert not any(replay_witness(S, v) for S, v in refuted)
    assert _screen_agrees(structures, default_battery) == {
        "compose_leq_meet", "support_iff", "chain_geq", "chain_eq",
        "quasi_bound", "pred_equiv"}
    monkeypatch.setattr(fuzzy, "compose",
                        lambda f, g: constant_one(f.structure))
    assert all(replay_witness(S, v) for S, v in refuted)


def test_kernel_fault_class_mismatch_witnesses_do_not_replay(monkeypatch,
                                                            fresh_context):
    # under the ones kernel every iff statement holds on the crisp screen,
    # so NZ2, in none of the classes, refutes each iff law with a
    # class_mismatch witness; replay runs the screen in the scalar calculus,
    # where the statements fail, and replays them only under the same fault
    monkeypatch.setattr(theorems, "_compose", _ones_kernel)
    S = make_nz2()
    refuted = [v for v in check_all(S) if v.outcome == "refuted"
               and v.witness["law"] == "class_mismatch"]
    assert {v.theorem for v in refuted} == {
        "T13", "T16", "T23", "T24", "T26", "T28"}
    assert not any(replay_witness(S, v) for v in refuted)
    monkeypatch.setattr(fuzzy, "compose",
                        lambda f, g: constant_one(f.structure))
    assert all(replay_witness(S, v) for v in refuted)


@pytest.mark.parametrize("tid, name", [("L12", "regular"),
                                       ("L15", "intra_regular")])
def test_ideal_criterion_witness_replays_only_under_its_fault(monkeypatch,
                                                               tid, name):
    # LZ2 is in both classes; a criterion that says otherwise refutes the
    # law, and replay re-runs the criterion instead of reading the witness
    S = make_lz2()
    monkeypatch.setitem(ideals._DECIDERS[name], "ideal", lambda S: False)
    v = check(S, tid)
    assert v.witness == {"law": "class_mismatch", "class": name,
                         "definitional": True, "criterion": False,
                         "criterion_kind": "ideal"}
    assert replay_witness(S, v)
    monkeypatch.undo()
    assert not replay_witness(S, v)


def _verdicts_sha256(structures):
    digest = hashlib.sha256()
    for S in structures:
        for v in check_all(S) + [check(S, "L8-unconditional")]:
            digest.update(json.dumps(v.to_dict()).encode())
    return digest.hexdigest()


def test_pool_verdicts_pinned(labeled_pool):
    assert _verdicts_sha256(labeled_pool) == (
        "3640c2a3a98c7b426d799e5e493a081fd530c0bc2bd4f46dc9f8168b4d832dd3")


def test_n4_verdicts_pinned():
    # a regular band (a and c left zeros, b and d left identities) and the
    # non-regular null semigroup with b < c < d, both on the 10^4-row battery
    elements = ["a", "b", "c", "d"]
    band = validate_structure(elements, ["g"], [
        [[0, 0, 0, 0]], [[0, 1, 2, 3]], [[2, 2, 2, 2]], [[0, 1, 2, 3]]], [])
    null = validate_structure(elements, ["g"], [[[0, 0, 0, 0]]] * 4,
                              [(1, 2), (1, 3), (2, 3)])
    assert _verdicts_sha256([band, null]) == (
        "5731dcc2a8be8c4a06f601c25754a964ac92a351d96e5ec0dc4cbc7b4cf5ada8")


# S.opposite() swaps right and left, so these laws trade places; every
# other law is its own mirror (the opposite of a composition is the
# reversed composition)
MIRRORS = {"P4": "P5", "L8": "L9", "C18": "C19", "T26": "T28"}
MIRRORS.update({b: a for a, b in MIRRORS.items()})


@pytest.mark.parametrize("n, m", [(3, 2), (2, 3)])
def test_mirror_laws_agree_on_the_opposite(n, m):
    # outcome and vacuity only: battery order does not mirror, so the
    # witnesses need not
    for S in enumerate_structures(SearchSpec(n=n, m=m, up_to_iso=True)):
        mirrored = {v.theorem: (v.outcome, v.vacuous)
                    for v in check_all(S.opposite())}
        for v in check_all(S):
            assert (v.outcome, v.vacuous) == mirrored[
                MIRRORS.get(v.theorem, v.theorem)], (v.theorem, S.table)


def _band_and_null(n):
    """A left-zero band (x g y = x) and the null semigroup with 1 < 2 < 3,
    on n elements, as in the CI's console-script checks."""
    elements = [f"e{i}" for i in range(n)]
    band = validate_structure(elements, ["g"],
                              [[[x] * n] for x in range(n)], [])
    null = validate_structure(elements, ["g"], [[[0] * n]] * n,
                              [(1, 2), (1, 3), (2, 3)])
    return band, null


def test_law_checks_stop_past_the_crisp_row_cap():
    # every battery holds all 2^n 0/1 rows, 2^20 of them pass GRID_CAP, and
    # the rule covers every law, the probes too
    _, null = _band_and_null(20)
    for run in (check_all, lambda S: check(S, "L11"),
                lambda S: check(S, "L12")):
        with pytest.raises(StructureError, match="GRID_CAP"):
            run(null)
    band19, _ = _band_and_null(19)
    assert theorems._battery(band19, None) == default_battery(band19)


def test_n6_sampled_verdicts_pinned():
    # n=6 is past the exhaustive cap at the default 14 levels, so both run
    # the seeded sampled battery
    band, null = _band_and_null(6)
    digest = hashlib.sha256()
    refuted = []
    for S in (band, null):
        battery = default_battery(S, seed=1)
        for v in check_all(S, battery) + [check(S, "L8-unconditional",
                                                battery)]:
            digest.update(json.dumps(v.to_dict()).encode())
            if v.outcome == "refuted":
                refuted.append((S, v))
    assert digest.hexdigest() == (
        "ab1012f3269bfaef9a18ceb10ce9988fa3eec0a34723ee41051fc28894fcebe5")
    # only the control is refuted, on the null semigroup, at a pair of
    # seeded draws, and the scalar calculus confirms it
    ((S, v),) = refuted
    assert (S, v.theorem) == (null, "L8-unconditional")
    assert not {0.0, 1.0} >= {*v.witness["f"].values(),
                              *v.witness["g"].values()}
    assert replay_witness(S, v)


def test_screen_past_the_table_bound_composes_through_the_kernels(
        monkeypatch):
    # at n=9 the crisp product table would hold 4^9·9 entries, more than
    # one pairwise cube, so the screen is the kernels themselves and no
    # table is built; the verdicts are those of the screen before tables
    built = []
    monkeypatch.setattr(theorems, "_CrispTable",
                        _counted(built, theorems._CrispTable))
    theorems._context.cache_clear()
    structures = _band_and_null(9)
    assert _verdicts_sha256(structures) == (
        "eeb6b1f5e30e8ab6df86e026815d072bc8b0232f25bed3f0efc989b9249ec18d")
    for S in structures:
        ctx = theorems._Context(S, default_battery(S))
        assert ctx.screen is ctx.calc
    assert built == []


def _halving_kernel(facts, F, G):
    C = _real_compose(facts, F, G)
    return np.where((C > 0) & (C < 1), C / 2, C)


def _raising_kernel(facts, F, G):
    C = _real_compose(facts, F, G)
    return np.where((C > 0) & (C < 1), np.minimum(1.5 * C, 1.0), C)


def _semilattice2():
    # the regular two-element semilattice: x g y = min(x, y), discrete order
    return validate_structure(["a", "b"], ["g"], [[[0, 0]], [[0, 1]]], [])


def _constant_and_meet():
    # x g0 y = a and x g1 y = min(x, y), discrete order: associative and
    # compatible, with squares that differ by operation at b, so L21 reads
    # the square of every operation
    return validate_structure(["a", "b"], ["g0", "g1"],
                              [[[0, 0], [0, 0]], [[0, 0], [0, 1]]], [])


# random_refuted: per input, cross_validate_random's records in registry
# order; on the regular semilattice the raising fault lifts f∘g above the
# meet, which T13 counts through its equality clause, L10's entry
@pytest.mark.parametrize("kernel, refuted, random_refuted", [
    (_halving_kernel, set(), {_null3: [
        ("P4", 653), ("P5", 653), ("P6", 970), ("L21", 3987),
        ("L22", 1819)], _constant_and_meet: [
        ("P4", 463), ("P5", 463), ("P6", 710), ("L8", 1802), ("L9", 1808),
        ("L21", 6450), ("L22", 3858), ("T13", 1006), ("T16", 1006),
        ("T23", 3724), ("T24", 3858), ("T26", 3724), ("T28", 3724),
        ("C31", 4056)]}),
    (_raising_kernel, set(), {_null3: [
        ("P4", 682), ("P5", 682), ("P6", 682), ("L10", 252), ("P29", 1364),
        ("C30", 1364), ("QI", 1364)], _semilattice2: [
        ("P4", 1014), ("P5", 1014), ("P6", 1014), ("L10", 1006),
        ("T13", 1006), ("P29", 4056), ("C30", 4056), ("C31", 4056),
        ("QI", 4056)]})])
def test_fractional_kernel_faults_stay_visible(monkeypatch, fresh_context,
                                               kernel, refuted,
                                               random_refuted):
    # both faults keep every 0/1 composition, and grid mode decides every
    # law on crisp rows, so no law sees them there; the random search does,
    # and so does the direct comparison with the scalar oracle
    # (test_kernel_comparison_sees_fractional_faults)
    for make, records in random_refuted.items():
        S = make()
        assert all(v.outcome == "holds" for v in check_all(S))
        calls = []
        with monkeypatch.context() as patch:
            patch.setattr(theorems, "_compose", _counted(calls, kernel))
            theorems._context.cache_clear()  # else check_all reuses tables
            assert {v.theorem for v in check_all(S)
                    if v.outcome == "refuted"} == refuted
            assert calls  # the screen composed through the faulty kernel
            assert cross_validate_random(S, samples=2_000, seed=0) == [
                {"law": law, "count": count} for law, count in records]


def test_random_mode_reports_each_law_once(monkeypatch):
    # 45 000 draws run in three batches; each law is listed once, in
    # registry order, with its counts summed over the batches
    monkeypatch.setattr(theorems, "_compose", _raising_kernel)
    records = cross_validate_random(_semilattice2(), samples=45_000, seed=0)
    assert records == [{"law": law, "count": count} for law, count in (
        ("P4", 22_496), ("P5", 22_496), ("P6", 22_496), ("L10", 22_368),
        ("T13", 22_368), ("P29", 89_984), ("C30", 89_984), ("C31", 89_984),
        ("QI", 89_984))]


@pytest.mark.parametrize("kernel", [_halving_kernel, _raising_kernel])
def test_kernel_comparison_sees_fractional_faults(monkeypatch, kernel):
    monkeypatch.setattr(theorems, "_compose", kernel)
    rng = np.random.default_rng(5)
    for S in (make_lz2(), _null3()):
        assert not _kernel_matches_scalar(S, *_seeded_rows(rng, S)), S
