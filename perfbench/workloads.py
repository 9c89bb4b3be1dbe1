"""The benchmark's workloads and their reference checks.

Each workload is built from the seed during set-up and then driven one item
at a time by :func:`measure`, a closed loop with one caller.  Only calls
into the program are timed; the reference checks run between them.

* ``pool-sweep`` -- every labeled structure at (n<=2, m<=2) and (n=3, m=1),
  in seed-shuffled order: ``classify``, ``check_all``, the negative control
  and a replay of each refutation.  Many small structures, so per-structure
  overhead (context and battery build, digest, deciders, replay) matters.
* ``laws-n4`` -- ``check_all`` with the exhaustive 10^4-row battery on
  seed-picked labeled copies of one regular and one non-regular n=4, m=1
  structure, alternating, so the conditional laws run both ways.  Few
  structures, big batteries: the law kernels do nearly all the work.
* ``census`` -- ``enumerate_structures`` plus ``classify`` on every emitted
  structure, over three legs in seed-shuffled order.  The only workload in
  which the enumerator does timed work.

Every reference value below comes from outside the code under test: OEIS
counts, counts pinned when the benchmark was defined, or the naive checks in
this file.
"""

from __future__ import annotations

import hashlib
import random
import time
from collections import Counter
from dataclasses import dataclass, field

# The 25 registry laws, in registry order, as the paper states them.
LAW_IDS = (
    "P4", "P5", "P6", "L8", "L9", "L10", "L11", "L12", "L15", "L17",
    "C18", "C19", "L20", "L21", "L22", "T13", "T16", "T23", "T24", "T26",
    "T28", "P29", "C30", "C31", "QI",
)
CONTROL_ID = "L8-unconditional"
# Laws whose hypothesis is regularity: vacuous exactly on non-regular input.
REGULAR_HYPOTHESIS = ("L8", "L9", "C31")
CLASS_NAMES = ("regular", "intra_regular", "right_regular", "left_regular")

# OEIS A023814: labeled ordered semigroups (m=1) on n elements.
A023814 = {1: 1, 2: 8, 3: 113, 4: 3492}

POOL = {
    False: {"specs": ((1, 1), (1, 2), (2, 1), (2, 2), (3, 1)),
            "structures": 1027, "non_regular": 386},
    True: {"specs": ((1, 1), (1, 2), (2, 1), (2, 2)),
           "structures": 56, "non_regular": 8},
}

# Base structures of the laws workload: (table, strict order pairs, regular).
# The seed picks labeled copies of these; the isomorphism classes are fixed
# because a structure's class sets the cost and the peak memory of its law
# kernels (L17's cost grows with the factorization relation, the pair laws'
# with the role-filtered battery rows), and a run holds only two structures.
LAWS_BASES = {
    # n=4: a regular band (0 and 2 left zeros, 1 and 3 left identities,
    # discrete order; 394 right and left ideal rows) and the null semigroup
    # with 1 < 2 < 3 (non-regular; 724 rows).  Both have 16 factorization
    # pairs, the least possible at n=4.
    False: (((((0, 0, 0, 0),), ((0, 1, 2, 3),), ((2, 2, 2, 2),),
              ((0, 1, 2, 3),)), (), True),
            ((((0, 0, 0, 0),),) * 4, ((1, 2), (1, 3), (2, 3)), False)),
    # n=3 smoke: left-zero semigroup (regular), null semigroup with 1 < 2.
    True: (((((0, 0, 0),), ((1, 1, 1),), ((2, 2, 2),)), (), True),
           ((((0, 0, 0),),) * 3, ((1, 2),), False)),
}
# Relabeled copies of each base per run, cycled when a run does more passes.
LAWS_PAIRS = 4

# Per leg: (n, m, up_to_iso, limit), emitted count, holding count per class,
# first 32 hex digits of the sha256 of the emitted stream (stream_record).
CENSUS = {
    False: (
        ((3, 2, False, None), 3203, (2297, 2321, 2309, 2309),
         "5b4ea6a0c27e3d0ddca3e1af4716a0c0"),
        ((3, 3, True, None), 634, (478, 482, 480, 480),
         "5704bb010ed1c3fc26c31ed9415f3ee0"),
        ((4, 1, False, 10_000), 10_000, (3636, 3894, 3624, 3894),
         "59746ab90d407b79f0bc18397599272c"),
    ),
    True: (
        ((2, 2, False, None), 34, (30, 30, 30, 30),
         "e657d6024a64bb64c8a1105176e6ebef"),
        ((2, 2, True, None), 15, (13, 13, 13, 13),
         "e4b8714b69f3e4932b31035e91a62c8d"),
        ((2, 1, False, 5), 5, (3, 3, 3, 3),
         "1230eb984f3a8aa4ba1cc82258640d92"),
    ),
}


class SetupError(RuntimeError):
    """The generated inputs disagree with a pinned reference."""


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise SetupError(message)


# --- naive references, independent of the program ----------------------

def reference_regular(n: int, m: int, table, leq) -> bool:
    """Every a lies below some (a g x) mu a."""
    return all(any((a, table[table[a][g][x]][mu][a]) in leq
                   for x in range(n) for g in range(m) for mu in range(m))
               for a in range(n))


def relabel(table, leq, sigma):
    """Copy of a one-operation structure with element x renamed sigma[x]."""
    n = len(table)
    out = [[[0] * n] for _ in range(n)]
    for x in range(n):
        for y in range(n):
            out[sigma[x]][0][sigma[y]] = sigma[table[x][0][y]]
    return (tuple(tuple(tuple(row) for row in plane) for plane in out),
            frozenset((sigma[i], sigma[j]) for i, j in leq))


def stream_record(S) -> bytes:
    return repr((S.elements, S.gammas, S.table, sorted(S.leq))).encode()


# --- measurement ----------------------------------------------------------

@dataclass
class Recorder:
    """What one measured loop saw: per-structure times, checks, counters."""

    verdict_s: list[float] = field(default_factory=list)
    program_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    items: int = 0
    passes: float = 0.0
    counts: Counter = field(default_factory=Counter)
    problems: list[str] = field(default_factory=list)

    def verdict(self, seconds: float, problems=()) -> None:
        self.verdict_s.append(seconds)
        self.program_s += seconds
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)

    def error(self, seconds: float, problem: str) -> None:
        """A structure whose verdict raised instead of returning."""
        self.program_s += seconds
        self.attempted += 1
        self.failed += 1
        self.problems.append(problem)


def measure(workload, seconds: float) -> Recorder:
    """Run items back to back until ``seconds`` of wall time have passed.

    At least one item always runs; an item in progress is finished.
    """
    rec = Recorder()
    start = time.perf_counter()
    while rec.items == 0 or time.perf_counter() - start < seconds:
        workload.run_item(rec.items, rec)
        rec.items += 1
    rec.passes = rec.items / workload.pass_items
    return rec


# --- workloads --------------------------------------------------------------

def _law_problems(label: str, verdicts) -> list[str]:
    ids = tuple(v.theorem for v in verdicts)
    if ids != LAW_IDS:
        return [f"{label}: check_all returned laws {ids}"]
    return [f"{label}: {v.theorem} {v.outcome}" for v in verdicts
            if v.outcome != "holds"]


class PoolSweep:
    name = "pool-sweep"

    def __init__(self, fg, seed: int, smoke: bool):
        self.fg = fg
        ref = POOL[smoke]
        en = fg.enumeration
        self.pool = [S for n, m in ref["specs"]
                     for S in en.enumerate_structures(en.SearchSpec(n=n, m=m))]
        self.regular = [reference_regular(S.n, S.m, S.table, S.leq)
                        for S in self.pool]
        expect(len(self.pool) == ref["structures"],
               f"pool has {len(self.pool)} structures, "
               f"expected {ref['structures']}")
        non_regular = self.regular.count(False)
        expect(non_regular == ref["non_regular"],
               f"pool has {non_regular} non-regular structures, "
               f"expected {ref['non_regular']}")
        self.order = list(range(len(self.pool)))
        random.Random(seed).shuffle(self.order)
        self.pass_items = len(self.pool)

    def run_item(self, k: int, rec: Recorder) -> None:
        i = self.order[k % len(self.order)]
        S, regular = self.pool[i], self.regular[i]
        theorems, ideals = self.fg.theorems, self.fg.ideals
        label = f"pool[{i}]"
        t0 = time.perf_counter()
        try:
            report = ideals.classify(S)
            verdicts = theorems.check_all(S)
            control = theorems.check(S, CONTROL_ID)
            refuted = [v for v in verdicts + [control]
                       if v.outcome == "refuted"]
            replays = [theorems.replay_witness(S, v) for v in refuted]
        except ideals.DeciderDisagreement as exc:
            rec.error(time.perf_counter() - t0, f"{label}: {exc}")
            return
        dt = time.perf_counter() - t0
        problems = _law_problems(label, verdicts)
        if report.classes["regular"].holds != regular:
            problems.append(f"{label}: classify regular="
                            f"{report.classes['regular'].holds}")
        if (control.outcome == "refuted") == regular:
            problems.append(f"{label}: control {control.outcome} on a "
                            f"{'' if regular else 'non-'}regular structure")
        if not all(replays):
            problems.append(f"{label}: a refutation did not replay")
        rec.counts["refuted"] += len(refuted)
        rec.counts["replay_ok"] += sum(replays)
        rec.verdict(dt, problems)


class LawsN4:
    name = "laws-n4"

    def __init__(self, fg, seed: int, smoke: bool):
        self.fg = fg
        en = fg.enumeration
        bases = LAWS_BASES[smoke]
        n = len(bases[0][0])
        tables = set(en.enumerate_tables(n, 1))
        expect(len(tables) == A023814[n],
               f"{len(tables)} ({n},1) tables, expected A023814 {A023814[n]}")
        rng = random.Random(seed)
        labels = [f"e{i}" for i in range(n)]
        self.picks = []
        for _ in range(LAWS_PAIRS):
            for table, strict, regular in bases:
                diagonal = {(i, i) for i in range(n)}
                table, leq = relabel(table, diagonal.union(strict),
                                     rng.sample(range(n), n))
                expect(table in tables, f"table {table} not enumerated")
                expect(leq in set(en.enumerate_orders(n, table)),
                       f"order {sorted(leq)} not enumerated for {table}")
                expect(reference_regular(n, 1, table, leq) == regular,
                       f"pick {table} is not {'' if regular else 'non-'}"
                       f"regular")
                self.picks.append((fg.structure.validate_structure(
                    labels, ["g0"], table, sorted(leq)), regular))
        self.per_pass = len(bases)
        self.pass_items = 1

    def run_item(self, k: int, rec: Recorder) -> None:
        """One pass: a regular and a non-regular pick, both timed."""
        first = k * self.per_pass % len(self.picks)
        for i in range(first, first + self.per_pass):
            S, regular = self.picks[i]
            label = f"pick[{i}] {S.digest()}"
            t0 = time.perf_counter()
            verdicts = self.fg.theorems.check_all(S)
            dt = time.perf_counter() - t0
            problems = _law_problems(label, verdicts)
            for v in verdicts:
                if v.theorem in REGULAR_HYPOTHESIS and v.vacuous == regular:
                    problems.append(f"{label}: {v.theorem} vacuous="
                                    f"{v.vacuous} on a "
                                    f"{'' if regular else 'non-'}regular "
                                    f"structure")
            rec.verdict(dt, problems)


class Census:
    name = "census"

    def __init__(self, fg, seed: int, smoke: bool):
        self.fg = fg
        self.legs = list(CENSUS[smoke])
        random.Random(seed).shuffle(self.legs)
        self.pass_items = 1

    def run_item(self, k: int, rec: Recorder) -> None:
        """One pass: every leg, in the seed's order."""
        en, ideals = self.fg.enumeration, self.fg.ideals
        for (n, m, iso, limit), total, classes, digest in self.legs:
            label = f"({n},{m}){' iso' if iso else ''} limit={limit}"
            stream = en.enumerate_structures(
                en.SearchSpec(n=n, m=m, limit=limit, up_to_iso=iso))
            sha = hashlib.sha256()
            holds = Counter()
            failed, attempted = rec.failed, rec.attempted
            emitted = 0
            while True:
                t0 = time.perf_counter()
                S = next(stream, None)
                if S is None:
                    rec.program_s += time.perf_counter() - t0
                    break
                try:
                    report = ideals.classify(S)
                except ideals.DeciderDisagreement as exc:
                    rec.error(time.perf_counter() - t0, f"{label}: {exc}")
                    continue
                rec.verdict(time.perf_counter() - t0)
                emitted += 1
                sha.update(stream_record(S))
                holds.update(c for c in CLASS_NAMES
                             if report.classes[c].holds)
            got = (emitted, tuple(holds[c] for c in CLASS_NAMES),
                   sha.hexdigest()[:32])
            if got != (total, classes, digest):
                rec.problems.append(f"{label}: got {got}, expected "
                                    f"{(total, classes, digest)}")
                # every structure of a leg that disagrees is unverified
                if rec.attempted == attempted:
                    rec.attempted += 1
                rec.failed = failed + rec.attempted - attempted
            if iso:
                rec.counts["iso_kept"] += emitted


WORKLOADS = {w.name: w for w in (PoolSweep, LawsN4, Census)}
