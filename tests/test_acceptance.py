"""Release acceptance battery.

Each test covers one release criterion and prints a single PASS/FAIL line
(visible with ``pytest -s`` or in captured output on failure).  All
comparisons are exact; any failure is release-blocking.
"""

import itertools
import json

import naive_oracle
from fuzzygamma import cli, ideals
from fuzzygamma.enumeration import SearchSpec, enumerate_structures, \
    enumerate_tables
from fuzzygamma.fuzzy import (GridBattery, characteristic,
                              compose, default_levels, enumerate_grid_battery,
                              is_below_chain,
                              is_fuzzy_bi_ideal_via_composition,
                              is_fuzzy_ideal, leq, satisfies)
from fuzzygamma.ideals import classify, is_ideal
from fuzzygamma.theorems import check, check_all, cross_validate_random, \
    replay_witness


def report(criterion, label, ok):
    print(f"[acceptance] criterion {criterion} ({label}): "
          f"{'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {criterion} ({label}) failed"


def test_criterion_1_decider_agreement(labeled_pool):
    disagreements = 0
    for S in labeled_pool:
        try:
            classify(S)
        except ideals.DeciderDisagreement:
            disagreements += 1
    report(1, "decider agreement", disagreements == 0)


def test_criterion_2_composition_form_equivalence(labeled_pool,
                                                  fixture_structures):
    structures = fixture_structures + labeled_pool[:200]
    ok = True
    for S in structures:
        battery = GridBattery(levels=default_levels(S))
        for f in enumerate_grid_battery(S, battery):
            for side, word in (("right", "f1"), ("left", "1f")):
                if is_fuzzy_ideal(f, side) != is_below_chain(f, word):
                    ok = False
            if satisfies(f, "bi") != is_fuzzy_bi_ideal_via_composition(f):
                ok = False
    report(2, "composition-form ideal equivalence", ok)


def test_criterion_3_theorem_suite_green(labeled_pool, NZ2, tmp_path):
    refuted = []
    for S in labeled_pool:
        for v in check_all(S):
            if v.outcome != "holds":
                refuted.append((S.digest(), v))
    # exercise the exit-code contract through the CLI as well
    from fuzzygamma.serialize import structure_to_dict
    path = tmp_path / "nz2.json"
    path.write_text(json.dumps(structure_to_dict(NZ2)))
    all_ok = cli.main(["check", str(path), "--all"]) == 0
    control_refuted = cli.main(["check", str(path),
                                "--theorem", "L8-unconditional"]) == 1
    # the weakened control must be refuted with a replayable witness
    v = check(NZ2, "L8-unconditional")
    control_replay = (v.outcome == "refuted" and v.witness is not None
                      and replay_witness(NZ2, v))
    ok = (not refuted and all_ok and control_refuted and control_replay)
    report(3, "theorem suite green + refutation power", ok)


def test_criterion_4_characteristic_bridge(labeled_pool):
    ok = True
    for S in labeled_pool:
        if S.n > 3:
            continue
        for A in ideals.all_subsets(S):
            fa = characteristic(S, A)
            for side in ("right", "left"):
                if is_ideal(S, A, side) != is_fuzzy_ideal(fa, side):
                    ok = False
    report(4, "crisp/fuzzy characteristic bridge", ok)


def test_criterion_5_support_lemmas(labeled_pool, fixture_structures):
    structures = fixture_structures + labeled_pool[:200]
    laws = ("L17", "C18", "C19", "L20", "L21", "L22")
    ok = True
    for S in structures:
        battery = GridBattery(levels=default_levels(S))
        for law in laws:
            if check(S, law, battery).outcome != "holds":
                ok = False
    report(5, "support lemmas", ok)


def test_criterion_6_idempotence(labeled_pool, fixture_structures):
    structures = fixture_structures + labeled_pool[:200]
    ok = True
    for S in structures:
        regular = ideals._DECIDERS["regular"]["definitional"](S)
        battery = GridBattery(levels=default_levels(S))
        for f in enumerate_grid_battery(S, battery):
            if not any(is_fuzzy_ideal(f, side) for side in ("right", "left")):
                continue
            sq = compose(f, f)
            if not leq(sq, f):
                ok = False
            if regular and sq != f:
                ok = False
    report(6, "square idempotence", ok)


def test_criterion_7_grid_completeness(fixture_structures):
    violations = []
    for S in fixture_structures:
        violations += cross_validate_random(S, samples=100_000, seed=0)
    report(7, "grid completeness cross-validation", not violations)


def test_criterion_8_enumerator_vs_naive_oracle():
    ok = True
    for n, m in [(2, 1), (2, 2)]:
        if set(enumerate_tables(n, m)) != set(naive_oracle.naive_tables(n, m)):
            ok = False
        labeled = naive_oracle.naive_structures(n, m)
        fast = {(S.table, S.leq)
                for S in enumerate_structures(SearchSpec(n=n, m=m))}
        if fast != set(labeled):
            ok = False
        # up-to-iso representatives cover the labeled space exactly once
        reps = [(S.table, S.leq) for S in
                enumerate_structures(SearchSpec(n=n, m=m, up_to_iso=True))]
        for s in labeled:
            hits = sum(1 for r in reps if naive_oracle.isomorphic(n, m, s, r))
            if hits != 1:
                ok = False
        for r1, r2 in itertools.combinations(reps, 2):
            if naive_oracle.isomorphic(n, m, r1, r2):
                ok = False
    report(8, "enumerator vs naive oracle", ok)
