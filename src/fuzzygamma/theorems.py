"""Registry of executable algebraic laws over fuzzy-subset batteries.

Every law is one entry of :data:`LAWS`: a statement about fuzzy subsets f
(and g) with its quantifier roles, composition word, hypothesis or
characterized class, and witness kind.  One interpreter runs each entry on
stacks of rows in any of three calculi: the numpy kernels (battery rows,
the seeded draws of :func:`cross_validate_random`), a table of crisp
products per structure, and the scalar calculus of :mod:`fuzzygamma.fuzzy`
(:func:`replay_witness`).  A law is decided on the 0/1 rows of its roles,
as statements commute with level cuts; the battery is built only after
that screen finds a violation, to locate the witness a full battery scan
finds first.  A law holds when it has no witness; a conditional law holds
vacuously, with no scan, when its hypothesis fails.  "L8-unconditional",
L8's entry without its hypothesis, proves the harness can refute.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from functools import cached_property, lru_cache
from itertools import chain, groupby, islice
from typing import Callable

import numpy as np

from . import enumeration, fuzzy, ideals
from .fuzzy import FuzzySubset, GridBattery, default_battery
from .structure import (GammaStructure, StructureError, downward_closure,
                        factorizations, require_checkable, subset_product)

# Hypothesis-dropped variants: negative controls, never part of check_all.
NEGATIVE_CONTROL_IDS = ("L8-unconditional",)


@dataclass(frozen=True)
class TheoremVerdict:
    theorem: str
    structure: str
    outcome: str                 # "holds" | "refuted"
    vacuous: bool = False
    witness: dict | None = None
    battery: str = ""

    def to_dict(self) -> dict:
        return asdict(self)


# --- the calculi --------------------------------------------------------
# Rows are membership vectors stacked along leading axes that broadcast:
# F[:, None] against G[None] gives every battery pair, two (k, n) stacks
# give paired draws, and two (n,) vectors give one witness.  ``facts[a]``
# lists the factorizations (y, z) of a grouped by left factor,
# ``((y, (z, ...)), ...)``, each ascending.

# Entries of one pairwise cube (rows × rows × elements): the blocks of
# ``_first_pair``, and the largest crisp product table ``_Context.screen``
# builds (4^n·n entries, so n ≤ 8).
_CUBE = 2_000_000


def _compose(facts, F, G):
    """Sup-min composition of broadcast rows: out[..., a] is the max over
    factorizations (y, z) of a of min(F[..., y], G[..., z]), taken per left
    factor y as min(F[..., y], max over z of G[..., z]).  Exact, since min
    distributes over max and only selections happen; the constant one on
    either side is just another row."""
    out = np.zeros(np.broadcast(F, G).shape)
    for a, groups in enumerate(facts):
        col = out[..., a]
        for y, zs in groups:
            g = G[..., zs[0]]
            for z in zs[1:]:
                g = np.maximum(g, G[..., z])
            np.maximum(col, np.minimum(F[..., y], g), out=col)
    return out


def _joint_support(facts, F, G):
    """Whether some factorization (y, z) of a has f(y) > 0 and g(z) > 0."""
    out = np.zeros(np.broadcast(F, G).shape, dtype=bool)
    for a, groups in enumerate(facts):
        col = out[..., a]
        for y, zs in groups:
            col |= (F[..., y] > 0) & (G[..., zs] > 0).any(axis=-1)
    return out


class _Kernels:
    """The numpy calculus, on stacks of rows."""

    def __init__(self, S: GammaStructure):
        self.S = S
        self.facts = tuple(
            tuple((y, tuple(z for _, z in group))
                  for y, group in groupby(sorted(pairs), lambda p: p[0]))
            for pairs in factorizations(S))
        self.one = np.ones(S.n)

    def compose(self, F, G):
        return _compose(self.facts, F, G)

    def joint_support(self, F, G):
        return _joint_support(self.facts, F, G)

    def ideal(self, name, F):
        """Rows of F meeting every inequality of ``fuzzy.ideal_inequalities``;
        one column comparison at a time, so memory stays O(rows)."""
        ok = np.ones(F.shape[:-1], dtype=bool)
        for t, x, z in fuzzy.ideal_inequalities(self.S, name):
            ok &= F[..., t] >= np.minimum(F[..., x], F[..., z])
        return ok


class _CrispTable(_Kernels):
    """The numpy calculus on 0/1 rows only.  A row is read as its bit index
    (bit i at element i), and its products and joint supports with any other
    0/1 row are gathered from two tables over every pair of 0/1 rows, each
    made by one call of the kernel it replaces."""

    def __init__(self, calc: _Kernels):
        self.S, self.facts, self.one = calc.S, calc.facts, calc.one
        B = fuzzy.crisp_array(self.S.n)
        self.products = _compose(self.facts, B[:, None], B[None])
        self.supports = _joint_support(self.facts, B[:, None], B[None])
        self.weights = 2.0 ** np.arange(self.S.n)

    def _bits(self, F):
        return (F @ self.weights).astype(np.intp)

    def compose(self, F, G):
        return self.products[self._bits(F), self._bits(G)]

    def joint_support(self, F, G):
        return self.supports[self._bits(F), self._bits(G)]


class _Scalar:
    """The scalar calculus of :mod:`fuzzygamma.fuzzy`, row by row; it shares
    no code with the kernels, so a replay does not repeat their faults."""

    def __init__(self, S: GammaStructure):
        self.S = S
        self.one = np.ones(S.n)

    def _each(self, fn, *stacks):
        # fn of each broadcast row (or pair of rows), stacked back
        stacks = np.broadcast_arrays(*stacks)
        rows = (X.reshape(-1, self.S.n).tolist() for X in stacks)
        out = np.array([fn(*(FuzzySubset(self.S, r) for r in rs))
                        for rs in zip(*rows)])
        return out.reshape(stacks[0].shape[:-1] + out.shape[1:])

    def compose(self, F, G):
        return self._each(lambda f, g: fuzzy.compose(f, g).values, F, G)

    def joint_support(self, F, G):
        def below(f, g):  # the elements below supp f Γ supp g
            A, B = ([y for y, v in enumerate(h.values) if v > 0]
                    for h in (f, g))
            D = downward_closure(self.S, subset_product(self.S, A, B))
            return [a in D for a in range(self.S.n)]
        return self._each(below, F, G)

    def ideal(self, name, F):
        return self._each(lambda f: fuzzy.satisfies(f, name), F)


def _members(S: GammaStructure, name: str) -> np.ndarray:
    """Which elements of S lie in class ``name``."""
    return np.array([ideals.in_class(S, a, name) for a in range(S.n)])


def _rows(calc, role: str, X: np.ndarray) -> np.ndarray:
    """The rows of the stack X that ``role`` (see :class:`Law`) accepts.

    On a battery these are a role's members: every 0/1 row is a battery
    row, and a crisp ideal's passes the filter on any table (L11), so no
    other crisp rows are added.
    """
    if role == "any":
        return X
    if role == "one":
        return calc.one[None]
    return X[calc.ideal(role, X)]


# --- the law table ------------------------------------------------------

@dataclass(frozen=True)
class Law:
    """One registry law, as data for the interpreter.

    ``kind`` names the statement and is the "law" of its witnesses.  The
    pair kinds quantify f over ``roles[0]`` and g over ``roles[1]``; the
    other kinds scan f over each role in turn, with that role's composition
    word from ``chain`` (one word, or one per role).  A role is "any",
    "right" or "left" (the battery rows that are fuzzy one-sided ideals) or
    "one" (the constant one).  ``run`` decides the laws that are not
    battery statements from the structure alone.
    """

    description: str
    kind: str = ""
    roles: tuple[str, ...] = ("any",)
    chain: str | tuple[str, ...] = ""
    label: str = ""                 # the witness's predicate or variant
    hypothesis: str | None = None   # class required, else a vacuous hold
    iff: str | None = None          # class the statement characterizes
    at: str | None = None           # element class the statement is made at
    equality: str | None = None     # entry run next where the class holds
    run: Callable | None = None

    def word(self, role: str) -> str:
        if isinstance(self.chain, str):
            return self.chain
        return self.chain[self.roles.index(role)]


_PAIR_KINDS = ("meet_leq_compose", "compose_leq_meet", "support_iff")
_LABEL_KEYS = {"pred_equiv": "predicate", "support_iff": "variant"}


def _statement(law: Law, calc, F, G=None, role: str = "any"):
    """Where ``law`` fails on rows F (and G): ``(bad, values)``.

    ``bad`` has the broadcast row axes, then the element axis (none for
    pred_equiv, element and operation for square_bound); ``values`` are the
    named arrays a witness records at the failure.
    """
    kind = law.kind
    if kind == "support_iff":
        C = calc.compose(F, G)
        return (C > 0) != calc.joint_support(F, G), ()
    if kind in _PAIR_KINDS:
        M, C = np.minimum(F, G), calc.compose(F, G)
        bad = M > C if kind == "meet_leq_compose" else C > M
        return bad, (("meet", M), ("composition", C))
    if kind == "quasi_bound":
        X = np.minimum(calc.compose(F, calc.one), calc.compose(calc.one, F))
        return X > F, ()
    X = fuzzy.chain(law.word(role), F, calc.compose, calc.one)
    if kind == "pred_equiv":
        d = calc.ideal(law.label, F)
        c = calc.ideal("order_reversing", F) & (X <= F).all(axis=-1)
        return d != c, (("definitional", d), ("composition", c))
    if kind == "square_bound":
        S = calc.S
        squares = [[S.table[a][g][a] for g in range(S.m)] for a in range(S.n)]
        return F[..., None] > X[..., squares], ()
    if kind == "chain_leq":
        bad = F > X
    elif kind == "chain_geq":
        bad = X > F
    else:
        bad = X != F
    if law.at:
        bad = bad & _members(calc.S, law.at)
    return bad, ()


# --- grid mode ----------------------------------------------------------

class _Context:
    """Shared per-(structure, battery) state for battery statement checks."""

    def __init__(self, S: GammaStructure, battery: GridBattery):
        self.S = S
        self.battery = battery
        self.calc = _Kernels(S)
        self.crisp = {role: _rows(self.calc, role, fuzzy.crisp_array(S.n))
                      for role in ("any", "one", "right", "left")}
        self.screen = (_CrispTable(self.calc) if 4 ** S.n * S.n <= _CUBE
                       else self.calc)

    @cached_property
    def W(self) -> np.ndarray:
        """The battery's rows, built on first use: only to locate a witness
        after the crisp screen reports a violation."""
        return fuzzy.battery_array(self.S, self.battery)

    def row_dict(self, row) -> dict[str, float]:
        return {lbl: float(v) for lbl, v in zip(self.S.elements, row)}


# one entry: each check after check_all on its structure and battery reuses
# it (perfbench, two passes: pool-sweep 42 872 hits, 2 054 builds; census 0)
_context = lru_cache(maxsize=1)(_Context)


def _first_true(bad) -> tuple[int, ...]:
    """Index of the first True of ``bad`` in row-major order."""
    return tuple(int(v) for v in np.unravel_index(bad.argmax(), bad.shape))


def _first_pair(calc, law: Law, F, G):
    """First (i, j, a, values) where a pair law fails on rows F[i], G[j].

    Chunked over rows of F, so the pairwise cube never exceeds a few MB.
    """
    blk = max(1, _CUBE // max(1, G.shape[0] * G.shape[1]))
    for i0 in range(0, F.shape[0], blk):
        bad, values = _statement(law, calc, F[i0:i0 + blk, None], G[None])
        if bad.any():
            i, j, a = _first_true(bad)
            return i0 + i, j, a, [(k, v[i, j, a].item()) for k, v in values]
        del bad, values  # free this block's cubes before the next is built
    return None


def _first_failure(calc, law: Law, crisp: dict, X=None):
    """Where ``law`` first fails, or None: ``(role, rows, idx, values)``,
    with ``idx`` the row index in each stack of ``rows`` (f's, then g's for
    a pair law, whose role is None), then the element (and operation).

    Without ``X`` the search runs in ``calc`` on ``crisp``, the crisp rows
    of each role, and so decides the law.  Sup-min composition, meet and
    the constant one commute with level cuts, {f∘g >= t} = {f >= t}∘{g >= t},
    so a statement that fails on rows fails on their cuts at some level
    t > 0 (README "Concepts" gives t for each kind).  Every cut of a role's
    row is a crisp row of that role, and every crisp row of a role is one
    of its battery rows.  Crisp rows compose to crisp rows, so ``calc`` may
    be a ``_CrispTable``.

    With ``X`` it searches each role's rows of X, in order, for the failure
    a scan of every row (or pair) finds first.  A pair law is searched in
    two exact stages.  If f and g violate the law at a, so do f and the cut
    {g >= t}: at t = min(f(a), g(a)) for meet above composition, at
    t = (f∘g)(a) for composition above meet, and at g's least positive
    value (its support) for support_iff.  Every such cut is a crisp row of
    g's role, so the first f row violating against those rows is the first
    f row with any violating g; only that row is then searched against
    every g, a stage skipped where g's rows are those crisp rows.
    """
    rows = crisp.get if X is None else lambda role: _rows(calc, role, X)
    if law.kind in _PAIR_KINDS:
        F, G = map(rows, law.roles)
        hit = _first_pair(calc, law, F, crisp[law.roles[1]])
        if hit is None:
            return None
        if G is not crisp[law.roles[1]]:
            hit = hit[:1] + _first_pair(calc, law, F[hit[0]:hit[0] + 1], G)[1:]
        return None, (F, G), hit[:3], hit[3]
    # statements quantified element by element first fail in that order
    element_major = law.at or law.kind == "square_bound"
    for role in law.roles:
        F = rows(role)
        bad, values = _statement(law, calc, F, role=role)
        if bad.any():
            idx = _first_true(np.moveaxis(bad, 0, -1) if element_major
                              else bad)
            if element_major:
                idx = idx[-1:] + idx[:-1]
            return role, (F,), idx, [(k, v[idx].item()) for k, v in values]
    return None


def _first_violation(ctx: _Context, law: Law):
    """The witness of the first battery row (or pair) where ``law`` fails,
    or None.  The battery is searched only after the crisp screen reports a
    violation, and a search that then finds none raises."""
    if _first_failure(ctx.screen, law, ctx.crisp) is None:
        return None
    hit = _first_failure(ctx.calc, law, ctx.crisp, ctx.W)
    if hit is None:
        raise RuntimeError(f"crisp screen and battery scan disagree on "
                           f"{law.description!r} for structure "
                           f"{ctx.S.digest()}")
    role, rows, idx, values = hit
    w = {"law": law.kind}
    if law.label:
        w[_LABEL_KEYS[law.kind]] = law.label
    if law.kind.startswith("chain_"):
        w["chain"] = law.word(role)
    if role not in (None, "any"):
        w["side"] = role
    w.update(zip("fg", (ctx.row_dict(F[i]) for F, i in zip(rows, idx))))
    w.update(zip(("element", "gamma"), (labels[k] for labels, k in zip(
        (ctx.S.elements, ctx.S.gammas), idx[len(rows):]))))
    w.update(values)
    return w


def _scan(ctx: _Context, law: Law):
    """Grid mode: the witness refuting one battery statement, or None."""
    if law.iff is None:
        return _first_violation(ctx, law)
    in_class = _members(ctx.S, law.iff)
    if not in_class.all():
        # off its class the statement must fail somewhere; where is not kept
        if _first_failure(ctx.screen, law, ctx.crisp) is not None:
            return None
        return {
            "law": "class_mismatch", "class": law.iff,
            "definitional": False, "criterion": True,
            "criterion_kind": f"chain:{law.chain}" if law.chain else law.kind,
            "failing_element": ctx.S.elements[in_class.argmin()]}
    clause = "forward"
    witness = _first_violation(ctx, law)
    if witness is None and law.equality:
        clause = "equality"
        witness = _first_violation(ctx, LAWS[law.equality])
    if witness is not None:
        witness["theorem_direction"] = clause
    return witness


# --- the laws that are not battery statements ---------------------------
# Each probe reads the structure and returns one candidate's witness or None;
# ``_first`` keeps the first; replay runs the law again and compares.

def _first(witnesses):
    return next(filter(None, witnesses), None)


def _char_bridge(S, A):
    fa = fuzzy.characteristic(S, A)
    for side in ("right", "left"):
        crisp = ideals.is_ideal(S, A, side)
        fz = fuzzy.satisfies(fa, side)
        if crisp != fz:
            return {"law": "char_bridge", "side": side,
                    "A": sorted(S.elements[i] for i in A), "crisp": crisp,
                    "fuzzy": fz}
    return None


def _point_square(S, a):
    sq = fuzzy.square(fuzzy.point_characteristic(S, a))
    for b in range(S.n):
        square_above = any(S.le(b, S.table[a][g][a]) for g in range(S.m))
        if square_above != (sq.values[b] != 0.0):
            return {"law": "point_square", "a": S.elements[a],
                    "b": S.elements[b], "factorization_exists": square_above,
                    "composition_nonzero": sq.values[b] != 0.0}
    return None


def _ideal_criterion(S, name):
    lhs = bool(_members(S, name).all())
    rhs = ideals._DECIDERS[name]["ideal"](S)
    if lhs == rhs:
        return None
    return {"law": "class_mismatch", "class": name, "definitional": lhs,
            "criterion": rhs, "criterion_kind": "ideal"}


LAWS = {
    "P4": Law("right-ideal predicate equals its composition form",
              "pred_equiv", chain="f1", label="right"),
    "P5": Law("left-ideal predicate equals its composition form",
              "pred_equiv", chain="1f", label="left"),
    "P6": Law("bi-ideal predicate equals its composition form",
              "pred_equiv", chain="f1f", label="bi"),
    "L8": Law("on regular structures: meet below composition "
              "(right ideal, any)", "meet_leq_compose", ("right", "any"),
              hypothesis="regular"),
    "L9": Law("on regular structures: meet below composition "
              "(any, left ideal)", "meet_leq_compose", ("any", "left"),
              hypothesis="regular"),
    "L10": Law("composition of a right and a left ideal lies below their "
               "meet", "compose_leq_meet", ("right", "left")),
    "L11": Law("crisp ideal status matches the characteristic function's",
               run=lambda S: _first(_char_bridge(S, A)
                                    for A in ideals.all_subsets(S))),
    "L12": Law("regularity equals the principal-ideal product criterion",
               run=lambda S: _ideal_criterion(S, "regular")),
    "L15": Law("intra-regularity equals the reversed principal-ideal "
               "criterion",
               run=lambda S: _ideal_criterion(S, "intra_regular")),
    "L17": Law("composition is nonzero exactly on jointly supported "
               "factorizations", "support_iff", ("any", "any"), label="fg"),
    "C18": Law("right composition with one: nonzero iff a factor is "
               "supported", "support_iff", ("any", "one"), label="f1"),
    "C19": Law("left composition with one: nonzero iff a cofactor is "
               "supported", "support_iff", ("one", "any"), label="1g"),
    "L20": Law("squared point characteristic detects square factorizations",
               run=lambda S: _first(_point_square(S, a) for a in range(S.n))),
    "L21": Law("membership is dominated by the square at squared elements",
               "square_bound", chain="ff"),
    "L22": Law("sandwiched square dominates wherever the two-sided square "
               "bound holds", "chain_leq", chain="1ff1", at="intra_regular"),
    "T13": Law("regular iff meet below composition for all right/left "
               "ideal pairs", "meet_leq_compose", ("right", "left"),
               iff="regular", equality="L10"),
    # the conclusion composes the left ideal first, then the right ideal
    "T16": Law("intra-regular iff meet below reversed composition for ideal "
               "pairs", "meet_leq_compose", ("left", "right"),
               iff="intra_regular"),
    "T23": Law("regular iff every fuzzy subset sits below f*1*f",
               "chain_leq", chain=ideals.CLASS_WORDS["regular"],
               iff="regular"),
    "T24": Law("intra-regular iff every fuzzy subset sits below 1*f^2*1",
               "chain_leq", chain=ideals.CLASS_WORDS["intra_regular"],
               iff="intra_regular"),
    "T26": Law("right regular iff every fuzzy subset sits below f^2*1",
               "chain_leq", chain=ideals.CLASS_WORDS["right_regular"],
               iff="right_regular"),
    "T28": Law("left regular iff every fuzzy subset sits below 1*f^2",
               "chain_leq", chain=ideals.CLASS_WORDS["left_regular"],
               iff="left_regular"),
    "P29": Law("one-sided ideals absorb composition with the constant one",
               "chain_geq", ("right", "left"), chain=("f1", "1f")),
    "C30": Law("one-sided ideals are subidempotent", "chain_geq",
               ("right", "left"), chain="ff"),
    "C31": Law("on regular structures one-sided ideals are idempotent",
               "chain_eq", ("right", "left"), chain="ff",
               hypothesis="regular"),
    "QI": Law("quasi-ideal sanity: one-sided ideals qualify",
              "quasi_bound", ("right", "left")),
}
LAWS["L8-unconditional"] = replace(
    LAWS["L8"], description="negative control: L8 with its hypothesis "
                            "dropped", hypothesis=None)

THEOREM_IDS = tuple(tid for tid in LAWS if tid not in NEGATIVE_CONTROL_IDS)


def _battery(S: GammaStructure, battery: GridBattery | None) -> GridBattery:
    """The battery law checks of S run on, once S is checkable.  Every
    battery holds all 2^n 0/1 rows, and L11 runs over every subset, so
    past ``fuzzy.GRID_CAP`` of them no law is checked."""
    require_checkable(S, "law checks require")
    if 2 ** S.n > fuzzy.GRID_CAP:
        raise StructureError(f"law checks read all 2^{S.n} 0/1 rows, more "
                             f"than fuzzy.GRID_CAP = {fuzzy.GRID_CAP}")
    return battery if battery is not None else default_battery(S)


def check(S: GammaStructure, theorem_id: str,
          battery: GridBattery | None = None) -> TheoremVerdict:
    if theorem_id not in LAWS:
        raise KeyError(f"unknown theorem id {theorem_id!r}")
    battery = _battery(S, battery)
    law = LAWS[theorem_id]
    vacuous = bool(law.hypothesis and not _members(S, law.hypothesis).all()
                   or law.at and not _members(S, law.at).any())
    witness = (None if vacuous else law.run(S) if law.run
               else _scan(_context(S, battery), law))
    return TheoremVerdict(
        theorem=theorem_id, structure=S.digest(),
        outcome="holds" if witness is None else "refuted", vacuous=vacuous,
        witness=witness, battery=battery.describe(S))


def check_all(S: GammaStructure,
              battery: GridBattery | None = None) -> list[TheoremVerdict]:
    """Every registry law in registry order (negative controls excluded)."""
    battery = _battery(S, battery)
    _context(S, battery)  # built here, so each check below finds it cached
    return [check(S, tid, battery) for tid in THEOREM_IDS]


def find_counterexample(theorem_id: str, n_max: int, m_max: int,
                        limit: int | None = None):
    """Stream enumerated structures through a check; first refutation or None."""
    if theorem_id not in LAWS:
        raise KeyError(f"unknown theorem id {theorem_id!r}")
    # raises up front, at the caps of the streams read: up to isomorphism
    enumeration.SearchSpec(n=n_max, m=m_max, limit=limit, up_to_iso=True)
    streams = (enumeration.enumerate_structures(
                   enumeration.SearchSpec(n=n, m=m, up_to_iso=True))
               for n in range(1, n_max + 1) for m in range(1, m_max + 1))
    for S in islice(chain.from_iterable(streams), limit):
        verdict = check(S, theorem_id)
        if verdict.outcome == "refuted":
            return S, verdict
    return None


# --- witness replay -----------------------------------------------------

def replay_witness(S: GammaStructure, verdict: TheoremVerdict) -> bool:
    """Re-evaluate a refutation witness through the scalar calculus.

    Returns True when each of its rows lies in its role and the witness
    still demonstrates a violation.  A law with a ``run`` replays when its
    probe, run again, returns this very witness; a ``class_mismatch``
    witness of an iff law is decided again from the structure alone.
    """
    w = verdict.witness
    if verdict.outcome != "refuted" or w is None:
        raise ValueError("only refuted verdicts carry a replayable witness")
    law, calc = LAWS[verdict.theorem], _Scalar(S)
    if law.run:
        return law.run(S) == w
    if w["law"] == "class_mismatch":
        # its class must fail and its statement hold on its roles' crisp
        # rows (see ``_first_failure``)
        crisp = {role: _rows(calc, role, fuzzy.crisp_array(S.n))
                 for role in law.roles}
        return (not _members(S, law.iff).all()
                and _first_failure(calc, law, crisp) is None)
    if w.get("theorem_direction") == "equality":
        law = LAWS[law.equality]
    side = w.get("side", law.roles[0])
    pairs = zip(law.roles, (w["f"], w["g"])) if "g" in w else [(side, w["f"])]
    rows = [_rows(calc, role, np.array([[d[lbl] for lbl in S.elements]],
                                       dtype=float)) for role, d in pairs]
    if not all(map(len, rows)):  # a row outside its role witnesses nothing
        return False
    bad, _ = _statement(law, calc, *rows, role=side)
    at = [0]
    if "element" in w:
        at.append(S.index(w["element"]))
    if "gamma" in w:
        at.append(S.gammas.index(w["gamma"]))
    return bool(bad[tuple(at)])


# --- random cross-validation -------------------------------------------

def _count_violations(calc, law: Law, F, G) -> int:
    """How often ``law``'s statement fails on draws that lie in its roles;
    a pair law pairs F[i] with G[i]."""
    if law.kind not in _PAIR_KINDS:
        return sum(int(_statement(law, calc, _rows(calc, role, F),
                                  role=role)[0].sum()) for role in law.roles)
    # a pair counts where both its draws lie in their roles
    ok = np.ones(len(F), dtype=bool)
    for role, X in zip(law.roles, (F, G)):
        if role in ("right", "left"):
            ok &= calc.ideal(role, X)
    F, G = (calc.one if role == "one" else X[ok]
            for role, X in zip(law.roles, (F, G)))
    return int(_statement(law, calc, F, G)[0].sum())


# Draws per batch; the batch size fixes the order of the draws.
_CHUNK = 20_000


def cross_validate_random(S: GammaStructure, samples: int = 100_000,
                          seed: int = 0) -> list[dict]:
    """Seeded real-valued (f, g) search over every registry statement.

    Returns one violation record per law that fails on some draw, in
    registry order, with its count summed over every batch; on a valid
    structure the list is empty.  The battery checks decide every law on
    0/1 rows, so this search, on fractional values, is what sees a kernel
    fault that keeps every 0/1 composition.
    """
    require_checkable(S, "law checks require")
    calc = _Kernels(S)
    rng = np.random.default_rng(seed)
    # a separate stream, so the strictly positive draws stay as they were
    zero_rng = np.random.default_rng((seed, 1))
    laws = [(tid, law) for tid, law in LAWS.items()
            if tid in THEOREM_IDS and law.run is None
            and all(_members(S, name).all()
                    for name in (law.hypothesis, law.iff) if name)]
    counts = dict.fromkeys((tid for tid, _ in laws), 0)
    for start in range(0, samples, _CHUNK):
        k = min(_CHUNK, samples - start)
        F = rng.random((k, S.n))
        G = rng.random((k, S.n))
        # random values are almost surely nonzero, so the support laws also
        # run on zero-masked rows, which have mixed supports
        Fz = np.where(zero_rng.random((k, S.n)) < 0.5, 0.0, F)
        Gz = np.where(zero_rng.random((k, S.n)) < 0.5, 0.0, G)
        for tid, law in laws:
            counts[tid] += _count_violations(calc, law, F, G)
            if law.equality:
                counts[tid] += _count_violations(calc, LAWS[law.equality],
                                                 F, G)
            if law.kind == "support_iff":
                counts[tid] += _count_violations(calc, law, Fz, Gz)
    return [{"law": tid, "count": count} for tid, count in counts.items()
            if count]
