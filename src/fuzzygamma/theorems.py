"""Registry of executable algebraic laws over fuzzy-subset batteries.

Every law is compiled to a check over one structure and one battery of
fuzzy subsets, yielding a holds/refuted verdict with a reproducible witness
on refutation.  Conditional laws evaluate their hypothesis first and report
a vacuous hold when it fails.  A deliberately weakened negative-control
variant ("L8-unconditional") proves the harness can refute.

Battery scans are vectorized with numpy; every refutation witness replays
through the scalar calculus in :mod:`fuzzygamma.fuzzy`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import enumeration, fuzzy, ideals
from .fuzzy import FuzzySubset, GridBattery, default_battery
from .structure import GammaStructure, factorizations

THEOREM_IDS = (
    "P4", "P5", "P6", "L8", "L9", "L10", "L11", "L12", "L15", "L17",
    "C18", "C19", "L20", "L21", "L22", "T13", "T16", "T23", "T24", "T26",
    "T28", "P29", "C30", "C31", "QI",
)

# Hypothesis-dropped variants: negative controls, never part of check_all.
NEGATIVE_CONTROL_IDS = ("L8-unconditional",)

DESCRIPTIONS = {
    "P4": "right-ideal predicate equals its composition form",
    "P5": "left-ideal predicate equals its composition form",
    "P6": "bi-ideal predicate equals its composition form",
    "L8": "on regular structures: meet below composition (right ideal, any)",
    "L9": "on regular structures: meet below composition (any, left ideal)",
    "L10": "composition of a right and a left ideal lies below their meet",
    "L11": "crisp ideal status matches the characteristic function's",
    "L12": "regularity equals the principal-ideal product criterion",
    "L15": "intra-regularity equals the reversed principal-ideal criterion",
    "L17": "composition is nonzero exactly on jointly supported factorizations",
    "C18": "right composition with one: nonzero iff a factor is supported",
    "C19": "left composition with one: nonzero iff a cofactor is supported",
    "L20": "squared point characteristic detects square factorizations",
    "L21": "membership is dominated by the square at squared elements",
    "L22": "sandwiched square dominates wherever the two-sided square bound holds",
    "T13": "regular iff meet below composition for all right/left ideal pairs",
    "T16": "intra-regular iff meet below reversed composition for ideal pairs",
    "T23": "regular iff every fuzzy subset sits below f*1*f",
    "T24": "intra-regular iff every fuzzy subset sits below 1*f^2*1",
    "T26": "right regular iff every fuzzy subset sits below f^2*1",
    "T28": "left regular iff every fuzzy subset sits below 1*f^2",
    "P29": "one-sided ideals absorb composition with the constant one",
    "C30": "one-sided ideals are subidempotent",
    "C31": "on regular structures one-sided ideals are idempotent",
    "QI": "quasi-ideal sanity: constant one and one-sided ideals qualify",
    "L8-unconditional": "negative control: L8 with its hypothesis dropped",
}


@dataclass(frozen=True)
class TheoremVerdict:
    theorem: str
    structure: str
    outcome: str                 # "holds" | "refuted"
    vacuous: bool = False
    witness: dict | None = None
    battery: str = ""

    def to_dict(self) -> dict:
        return {"theorem": self.theorem, "structure": self.structure,
                "outcome": self.outcome, "vacuous": self.vacuous,
                "witness": self.witness, "battery": self.battery}


# --- vectorized sup-min kernels ----------------------------------------
# Rows of F/G are membership vectors; facts is the factorization relation.

def _comp_rows(facts, F, G):
    """Row-wise composition: out[i] = F[i] composed with G[i]."""
    out = np.zeros_like(F)
    for a, pairs in enumerate(facts):
        col = out[:, a]
        for y, z in pairs:
            np.maximum(col, np.minimum(F[:, y], G[:, z]), out=col)
    return out


def _comp_one(facts, F):
    """Row-wise composition with the constant one on the right."""
    out = np.zeros_like(F)
    for a, pairs in enumerate(facts):
        col = out[:, a]
        for y, _ in pairs:
            np.maximum(col, F[:, y], out=col)
    return out


def _one_comp(facts, F):
    """Row-wise composition with the constant one on the left."""
    out = np.zeros_like(F)
    for a, pairs in enumerate(facts):
        col = out[:, a]
        for _, z in pairs:
            np.maximum(col, F[:, z], out=col)
    return out


def _comp_cross(facts, F, G):
    """All-pairs composition: out[i, j] = F[i] composed with G[j]."""
    out = np.zeros((F.shape[0], G.shape[0], F.shape[1]))
    for a, pairs in enumerate(facts):
        col = out[:, :, a]
        for y, z in pairs:
            np.maximum(col, np.minimum(F[:, y][:, None], G[:, z][None, :]),
                       out=col)
    return out


def _order_reversing_mask(S, W):
    ok = np.ones(W.shape[0], dtype=bool)
    for i, j in sorted(S.leq):
        if i != j:
            ok &= W[:, i] >= W[:, j]
    return ok


def _right_ideal_mask(S, W):
    ok = _order_reversing_mask(S, W)
    for x in range(S.n):
        for g in range(S.m):
            row = S.table[x][g]
            for y in range(S.n):
                ok &= W[:, row[y]] >= W[:, x]
    return ok


def _left_ideal_mask(S, W):
    ok = _order_reversing_mask(S, W)
    for x in range(S.n):
        for g in range(S.m):
            row = S.table[x][g]
            for y in range(S.n):
                ok &= W[:, row[y]] >= W[:, y]
    return ok


def _bi_ideal_mask(S, W):
    ok = _order_reversing_mask(S, W)
    for x in range(S.n):
        for g in range(S.m):
            for y in range(S.n):
                xy = S.table[x][g][y]
                for mu in range(S.m):
                    row = S.table[xy][mu]
                    for z in range(S.n):
                        ok &= W[:, row[z]] >= np.minimum(W[:, x], W[:, z])
    return ok


def _cross_violation(facts, F, G, mode):
    """First (i, j, a) violating a pairwise composition law, or None.

    mode: "meet_leq_comp", "comp_leq_meet" or "eq".  Chunked over rows of F
    so the pairwise cube never exceeds a few MB.
    """
    n = F.shape[1]
    blk = max(1, 2_000_000 // max(1, G.shape[0] * n))
    for i0 in range(0, F.shape[0], blk):
        Fb = F[i0:i0 + blk]
        C = _comp_cross(facts, Fb, G)
        M = np.minimum(Fb[:, None, :], G[None, :, :])
        if mode == "meet_leq_comp":
            bad = M > C
        elif mode == "comp_leq_meet":
            bad = C > M
        else:
            bad = C != M
        if bad.any():
            i, j, a = (int(v) for v in np.argwhere(bad)[0])
            return i0 + i, j, a, float(M[i, j, a]), float(C[i, j, a])
    return None


def _support_representatives(X):
    """Indices of the first row of each distinct support pattern, ascending."""
    codes = (X > 0) @ (1 << np.arange(X.shape[1]))
    _, first = np.unique(codes, return_index=True)
    return np.sort(first)


def _support_iff_violation(facts, F, G, rf, rg):
    """First (i, j, a) where nonzero composition disagrees with joint support.

    Only rows ``rf`` of F and ``rg`` of G are scanned: the first row of each
    support pattern (see :func:`_support_representatives`).  Both sides of
    the comparison depend on a pair of rows only through their supports, so
    the first violating row of either side is always its pattern's first
    row, and the scan returns the same triple as one over every row.
    """
    F, G = F[rf], G[rg]
    n = F.shape[1]
    blk = max(1, 2_000_000 // max(1, G.shape[0] * n))
    for i0 in range(0, F.shape[0], blk):
        Fb = F[i0:i0 + blk]
        C = _comp_cross(facts, Fb, G) > 0
        E = np.zeros_like(C)
        for a, pairs in enumerate(facts):
            col = E[:, :, a]
            for y, z in pairs:
                col |= (Fb[:, y] > 0)[:, None] & (G[:, z] > 0)[None, :]
        bad = C != E
        if bad.any():
            i, j, a = (int(v) for v in np.argwhere(bad)[0])
            return int(rf[i0 + i]), int(rg[j]), a
    return None


class _Context:
    """Shared per-(structure, battery) state for all law checks."""

    def __init__(self, S: GammaStructure, battery: GridBattery):
        self.S = S
        self.battery = battery
        self.facts = factorizations(S)
        members = list(fuzzy.enumerate_grid_battery(S, battery))
        self.W = np.array([f.values for f in members], dtype=float)
        self._roles: dict[str, np.ndarray] = {}

    def row_dict(self, row) -> dict[str, float]:
        return {lbl: float(v) for lbl, v in zip(self.S.elements, row)}

    @cached_property
    def regular(self) -> bool:
        return ideals.decide_regular_def(self.S)

    @cached_property
    def intra_regular(self) -> bool:
        return ideals.decide_intra_def(self.S)

    @cached_property
    def right_regular(self) -> bool:
        return ideals.decide_right_regular_def(self.S)

    @cached_property
    def left_regular(self) -> bool:
        return ideals.decide_left_regular_def(self.S)

    @cached_property
    def support_reps(self) -> np.ndarray:
        """Support-pattern representatives of ``members("any")``."""
        return _support_representatives(self.members("any"))

    def members(self, role: str) -> np.ndarray:
        """Battery rows for a quantifier role, with ideal augmentation.

        Role-filtered rows come first (battery order), then characteristic
        functions of every crisp ideal of the role's side, then the
        generated fuzzy ideals of all point characteristics.
        """
        if role in self._roles:
            return self._roles[role]
        S = self.S
        if role == "any":
            arr = self.W
        else:
            if role == "right":
                mask = _right_ideal_mask(S, self.W)
                crisp = ideals.right_ideals(S)
                gen = [fuzzy.generated_fuzzy_right_ideal(
                    fuzzy.point_characteristic(S, a)) for a in range(S.n)]
            else:
                mask = _left_ideal_mask(S, self.W)
                crisp = ideals.left_ideals(S)
                gen = [fuzzy.generated_fuzzy_left_ideal(
                    fuzzy.point_characteristic(S, a)) for a in range(S.n)]
            extra = [[1.0 if i in A else 0.0 for i in range(S.n)]
                     for A in crisp]
            extra += [list(f.values) for f in gen]
            arr = np.concatenate([self.W[mask], np.array(extra, dtype=float)])
        self._roles[role] = arr
        return arr


def _eval_chain(S: GammaStructure, f: FuzzySubset, chain: str) -> FuzzySubset:
    """Scalar evaluation of a named composition chain, left to right."""
    one = fuzzy.constant_one(S)
    if chain == "f1":
        return fuzzy.compose(f, one)
    if chain == "1f":
        return fuzzy.compose(one, f)
    if chain == "ff":
        return fuzzy.square(f)
    if chain == "f1f":
        return fuzzy.compose(fuzzy.compose(f, one), f)
    if chain == "ff1":
        return fuzzy.compose(fuzzy.square(f), one)
    if chain == "1ff":
        return fuzzy.compose(one, fuzzy.square(f))
    if chain == "1ff1":
        return fuzzy.compose(fuzzy.compose(one, fuzzy.square(f)), one)
    raise ValueError(f"unknown chain {chain!r}")


def _chain_rows(ctx: _Context, F: np.ndarray, chain: str) -> np.ndarray:
    facts = ctx.facts
    if chain == "f1":
        return _comp_one(facts, F)
    if chain == "1f":
        return _one_comp(facts, F)
    if chain == "ff":
        return _comp_rows(facts, F, F)
    if chain == "f1f":
        return _comp_rows(facts, _comp_one(facts, F), F)
    if chain == "ff1":
        return _comp_one(facts, _comp_rows(facts, F, F))
    if chain == "1ff":
        return _one_comp(facts, _comp_rows(facts, F, F))
    if chain == "1ff1":
        return _comp_one(facts, _one_comp(facts, _comp_rows(facts, F, F)))
    raise ValueError(f"unknown chain {chain!r}")


# --- individual law checks ---------------------------------------------
# Each returns (holds, vacuous, witness_or_None).

def _pred_equiv(ctx, name, def_mask_fn, comp_chain):
    S, W = ctx.S, ctx.W
    dm = def_mask_fn(S, W)
    cm = _order_reversing_mask(S, W) & (
        _chain_rows(ctx, W, comp_chain) <= W).all(axis=1)
    diff = dm != cm
    if not diff.any():
        return True, False, None
    i = int(np.argmax(diff))
    return False, False, {
        "law": "pred_equiv", "predicate": name, "f": ctx.row_dict(W[i]),
        "definitional": bool(dm[i]), "composition": bool(cm[i])}


def _thm_P4(ctx):
    return _pred_equiv(ctx, "right", _right_ideal_mask, "f1")


def _thm_P5(ctx):
    return _pred_equiv(ctx, "left", _left_ideal_mask, "1f")


def _thm_P6(ctx):
    return _pred_equiv(ctx, "bi", _bi_ideal_mask, "f1f")


def _pair_law(ctx, F, G, mode, law):
    # witness keys "f"/"g" always name the composition order: C = f then g
    hit = _cross_violation(ctx.facts, F, G, mode)
    if hit is None:
        return True, False, None
    i, j, a, mval, cval = hit
    return False, False, {
        "law": law, "f": ctx.row_dict(F[i]),
        "g": ctx.row_dict(G[j]), "element": ctx.S.elements[a],
        "meet": mval, "composition": cval}


def _thm_L8(ctx, conditional=True):
    if conditional and not ctx.regular:
        return True, True, None
    return _pair_law(ctx, ctx.members("right"), ctx.members("any"),
                     "meet_leq_comp", "meet_leq_compose")


def _thm_L9(ctx):
    if not ctx.regular:
        return True, True, None
    return _pair_law(ctx, ctx.members("any"), ctx.members("left"),
                     "meet_leq_comp", "meet_leq_compose")


def _thm_L10(ctx):
    return _pair_law(ctx, ctx.members("right"), ctx.members("left"),
                     "comp_leq_meet", "compose_leq_meet")


def _thm_L11(ctx):
    S = ctx.S
    for A in ideals.all_subsets(S):
        fa = fuzzy.characteristic(S, A)
        for side, crisp_fn, fuzzy_fn in (
                ("right", ideals.is_right_ideal, fuzzy.is_fuzzy_right_ideal),
                ("left", ideals.is_left_ideal, fuzzy.is_fuzzy_left_ideal)):
            crisp = crisp_fn(S, A)
            fz = fuzzy_fn(fa)
            if crisp != fz:
                return False, False, {
                    "law": "char_bridge", "side": side,
                    "A": sorted(S.elements[i] for i in A),
                    "crisp": crisp, "fuzzy": fz}
    return True, False, None


def _class_criterion(ctx, class_name, lhs, criterion_fn):
    rhs = all(criterion_fn(ctx.S, a) for a in range(ctx.S.n))
    if lhs == rhs:
        return True, False, None
    return False, False, {"law": "class_mismatch", "class": class_name,
                          "definitional": lhs, "criterion": rhs,
                          "criterion_kind": "ideal"}


def _thm_L12(ctx):
    return _class_criterion(ctx, "regular", ctx.regular,
                            ideals.regular_ideal_criterion)


def _thm_L15(ctx):
    return _class_criterion(ctx, "intra_regular", ctx.intra_regular,
                            ideals.intra_ideal_criterion)


def _support_law(ctx, F, rf, G, rg, variant):
    hit = _support_iff_violation(ctx.facts, F, G, rf, rg)
    if hit is None:
        return True, False, None
    i, j, a = hit
    return False, False, {
        "law": "support_iff", "variant": variant,
        "f": ctx.row_dict(F[i]), "g": ctx.row_dict(G[j]),
        "element": ctx.S.elements[a]}


# the constant one is a single row, its own support representative
_ONE_ROW = np.zeros(1, dtype=np.intp)


def _thm_L17(ctx):
    W, r = ctx.members("any"), ctx.support_reps
    return _support_law(ctx, W, r, W, r, "fg")


def _thm_C18(ctx):
    one = np.ones((1, ctx.S.n))
    return _support_law(ctx, ctx.members("any"), ctx.support_reps,
                        one, _ONE_ROW, "f1")


def _thm_C19(ctx):
    one = np.ones((1, ctx.S.n))
    return _support_law(ctx, one, _ONE_ROW,
                        ctx.members("any"), ctx.support_reps, "1g")


def _thm_L20(ctx):
    S = ctx.S
    for a in range(S.n):
        fa = fuzzy.point_characteristic(S, a)
        sq = fuzzy.square(fa)
        for b in range(S.n):
            square_above = any(S.le(b, S.table[a][g][a]) for g in range(S.m))
            if square_above != (sq.values[b] != 0.0):
                return False, False, {
                    "law": "point_square", "a": S.elements[a],
                    "b": S.elements[b], "factorization_exists": square_above,
                    "composition_nonzero": sq.values[b] != 0.0}
    return True, False, None


def _thm_L21(ctx):
    S, W = ctx.S, ctx.W
    FF = _comp_rows(ctx.facts, W, W)
    for a in range(S.n):
        for g in range(S.m):
            t = S.table[a][g][a]
            bad = W[:, a] > FF[:, t]
            if bad.any():
                i = int(np.argmax(bad))
                return False, False, {
                    "law": "square_bound", "f": ctx.row_dict(W[i]),
                    "element": S.elements[a], "gamma": S.gammas[g]}
    return True, False, None


def _thm_L22(ctx):
    S, W = ctx.S, ctx.W
    hyp = [a for a in range(S.n) if ideals.element_intra_regular(S, a)]
    if not hyp:
        return True, True, None
    X = _chain_rows(ctx, W, "1ff1")
    for a in hyp:
        bad = W[:, a] > X[:, a]
        if bad.any():
            i = int(np.argmax(bad))
            return False, False, {
                "law": "chain_leq", "chain": "1ff1",
                "f": ctx.row_dict(W[i]), "element": S.elements[a]}
    return True, False, None


def _iff_pairwise(ctx, class_name, lhs, F, G, mode, law):
    """Iff law: class verdict must match a pairwise battery statement."""
    holds_pair, _, wit = _pair_law(ctx, F, G, mode, law)
    if lhs and not holds_pair:
        wit["theorem_direction"] = "forward"
        return False, False, wit
    if not lhs and holds_pair:
        failing = next(a for a in range(ctx.S.n)
                       if not ideals._ELEMENT_TESTS[class_name](ctx.S, a))
        return False, False, {
            "law": "class_mismatch", "class": class_name,
            "definitional": lhs, "criterion": True,
            "criterion_kind": law, "failing_element": ctx.S.elements[failing]}
    return True, False, None


def _thm_T13(ctx):
    F = ctx.members("right")
    G = ctx.members("left")
    ok, vac, wit = _iff_pairwise(ctx, "regular", ctx.regular, F, G,
                                 "meet_leq_comp", "meet_leq_compose")
    if not ok:
        return ok, vac, wit
    if ctx.regular:
        # the "equivalently equal" clause: composition matches the meet
        hit = _cross_violation(ctx.facts, F, G, "eq")
        if hit is not None:
            i, j, a, mval, cval = hit
            return False, False, {
                "law": "compose_leq_meet", "f": ctx.row_dict(F[i]),
                "g": ctx.row_dict(G[j]), "element": ctx.S.elements[a],
                "meet": mval, "composition": cval,
                "theorem_direction": "equality"}
    return True, False, None


def _thm_T16(ctx):
    # the conclusion composes the left ideal first, then the right ideal
    L = ctx.members("left")
    R = ctx.members("right")
    return _iff_pairwise(ctx, "intra_regular", ctx.intra_regular, L, R,
                         "meet_leq_comp", "meet_leq_compose")


def _iff_chain(ctx, class_name, lhs, chain):
    W = ctx.members("any")
    X = _chain_rows(ctx, W, chain)
    bad = W > X
    if lhs and bad.any():
        i, a = (int(v) for v in np.argwhere(bad)[0])
        return False, False, {
            "law": "chain_leq", "chain": chain, "f": ctx.row_dict(W[i]),
            "element": ctx.S.elements[a], "theorem_direction": "forward"}
    if not lhs and not bad.any():
        failing = next(a for a in range(ctx.S.n)
                       if not ideals._ELEMENT_TESTS[class_name](ctx.S, a))
        return False, False, {
            "law": "class_mismatch", "class": class_name,
            "definitional": lhs, "criterion": True,
            "criterion_kind": f"chain:{chain}",
            "failing_element": ctx.S.elements[failing]}
    return True, False, None


def _thm_T23(ctx):
    return _iff_chain(ctx, "regular", ctx.regular, "f1f")


def _thm_T24(ctx):
    return _iff_chain(ctx, "intra_regular", ctx.intra_regular, "1ff1")


def _thm_T26(ctx):
    return _iff_chain(ctx, "right_regular", ctx.right_regular, "ff1")


def _thm_T28(ctx):
    return _iff_chain(ctx, "left_regular", ctx.left_regular, "1ff")


def _role_chain_bound(ctx, role, chain, law):
    F = ctx.members(role)
    X = _chain_rows(ctx, F, chain)
    bad = X > F
    if bad.any():
        i, a = (int(v) for v in np.argwhere(bad)[0])
        return False, False, {
            "law": law, "chain": chain, "side": role,
            "f": ctx.row_dict(F[i]), "element": ctx.S.elements[a]}
    return True, False, None


def _thm_P29(ctx):
    ok, vac, wit = _role_chain_bound(ctx, "right", "f1", "chain_geq")
    if not ok:
        return ok, vac, wit
    return _role_chain_bound(ctx, "left", "1f", "chain_geq")


def _thm_C30(ctx):
    for role in ("right", "left"):
        ok, vac, wit = _role_chain_bound(ctx, role, "ff", "chain_geq")
        if not ok:
            return ok, vac, wit
    return True, False, None


def _thm_C31(ctx):
    if not ctx.regular:
        return True, True, None
    for role in ("right", "left"):
        F = ctx.members(role)
        X = _chain_rows(ctx, F, "ff")
        bad = X != F
        if bad.any():
            i, a = (int(v) for v in np.argwhere(bad)[0])
            return False, False, {
                "law": "chain_eq", "chain": "ff", "side": role,
                "f": ctx.row_dict(F[i]), "element": ctx.S.elements[a]}
    return True, False, None


def _thm_QI(ctx):
    S = ctx.S
    if not fuzzy.is_fuzzy_quasi_ideal(fuzzy.constant_one(S)):
        return False, False, {"law": "quasi_bound",
                              "f": ctx.row_dict(np.ones(S.n)),
                              "element": S.elements[0]}
    for role in ("right", "left"):
        F = ctx.members(role)
        Q = np.minimum(_comp_one(ctx.facts, F), _one_comp(ctx.facts, F))
        bad = Q > F
        if bad.any():
            i, a = (int(v) for v in np.argwhere(bad)[0])
            return False, False, {
                "law": "quasi_bound", "side": role,
                "f": ctx.row_dict(F[i]), "element": S.elements[a]}
    return True, False, None


_CHECKS = {
    "P4": _thm_P4, "P5": _thm_P5, "P6": _thm_P6,
    "L8": _thm_L8, "L9": _thm_L9, "L10": _thm_L10, "L11": _thm_L11,
    "L12": _thm_L12, "L15": _thm_L15, "L17": _thm_L17,
    "C18": _thm_C18, "C19": _thm_C19, "L20": _thm_L20, "L21": _thm_L21,
    "L22": _thm_L22, "T13": _thm_T13, "T16": _thm_T16, "T23": _thm_T23,
    "T24": _thm_T24, "T26": _thm_T26, "T28": _thm_T28, "P29": _thm_P29,
    "C30": _thm_C30, "C31": _thm_C31, "QI": _thm_QI,
    "L8-unconditional": lambda ctx: _thm_L8(ctx, conditional=False),
}


def known_ids() -> tuple[str, ...]:
    return THEOREM_IDS + NEGATIVE_CONTROL_IDS


def _require_checkable(S: GammaStructure) -> None:
    if not S.associative:
        raise ValueError("law checks require an associative structure")
    if not S.compatible:
        raise ValueError("law checks require an order-compatible structure")


def check(S: GammaStructure, theorem_id: str,
          battery: GridBattery | None = None,
          _ctx: _Context | None = None) -> TheoremVerdict:
    if theorem_id not in _CHECKS:
        raise KeyError(f"unknown theorem id {theorem_id!r}")
    _require_checkable(S)
    if _ctx is None:
        battery = battery if battery is not None else default_battery(S)
        _ctx = _Context(S, battery)
    ok, vacuous, witness = _CHECKS[theorem_id](_ctx)
    return TheoremVerdict(
        theorem=theorem_id, structure=S.digest(),
        outcome="holds" if ok else "refuted", vacuous=vacuous,
        witness=witness, battery=_ctx.battery.describe(S))


def check_all(S: GammaStructure,
              battery: GridBattery | None = None) -> list[TheoremVerdict]:
    """Every registry law in registry order (negative controls excluded)."""
    _require_checkable(S)
    battery = battery if battery is not None else default_battery(S)
    ctx = _Context(S, battery)
    return [check(S, tid, _ctx=ctx) for tid in THEOREM_IDS]


def find_counterexample(theorem_id: str, n_max: int, m_max: int,
                        limit: int | None = None,
                        levels: int | None = None,
                        up_to_iso: bool = True):
    """Stream enumerated structures through a check; first refutation or None."""
    if theorem_id not in _CHECKS:
        raise KeyError(f"unknown theorem id {theorem_id!r}")
    seen = 0
    for n in range(1, n_max + 1):
        for m in range(1, m_max + 1):
            spec = enumeration.SearchSpec(n=n, m=m, up_to_iso=up_to_iso)
            for S in enumeration.enumerate_structures(spec):
                if limit is not None and seen >= limit:
                    return None
                seen += 1
                battery = default_battery(S, levels=levels)
                verdict = check(S, theorem_id, battery)
                if verdict.outcome == "refuted":
                    return S, verdict
    return None


# --- witness replay -----------------------------------------------------

def _fuzzy_from_labels(S: GammaStructure, d: dict) -> FuzzySubset:
    return FuzzySubset(S, tuple(float(d[lbl]) for lbl in S.elements))


def replay_witness(S: GammaStructure, verdict: TheoremVerdict) -> bool:
    """Re-evaluate a refutation witness through the scalar calculus.

    Returns True when the witness still demonstrates a violation.
    """
    w = verdict.witness
    if verdict.outcome != "refuted" or w is None:
        raise ValueError("only refuted verdicts carry a replayable witness")
    law = w["law"]
    if law in ("meet_leq_compose", "compose_leq_meet"):
        f = _fuzzy_from_labels(S, w["f"])
        g = _fuzzy_from_labels(S, w["g"])
        a = S.index(w["element"])
        mval = min(f.values[a], g.values[a])
        if w.get("theorem_direction") == "equality":
            return fuzzy.compose(f, g).values[a] != mval
        cval = fuzzy.compose(f, g).values[a]
        return mval > cval if law == "meet_leq_compose" else cval > mval
    if law == "chain_leq":
        f = _fuzzy_from_labels(S, w["f"])
        a = S.index(w["element"])
        return f.values[a] > _eval_chain(S, f, w["chain"]).values[a]
    if law == "chain_geq":
        f = _fuzzy_from_labels(S, w["f"])
        a = S.index(w["element"])
        return _eval_chain(S, f, w["chain"]).values[a] > f.values[a]
    if law == "chain_eq":
        f = _fuzzy_from_labels(S, w["f"])
        a = S.index(w["element"])
        return _eval_chain(S, f, w["chain"]).values[a] != f.values[a]
    if law == "quasi_bound":
        f = _fuzzy_from_labels(S, w["f"])
        a = S.index(w["element"])
        one = fuzzy.constant_one(S)
        q = min(fuzzy.compose(f, one).values[a],
                fuzzy.compose(one, f).values[a])
        return q > f.values[a]
    if law == "pred_equiv":
        f = _fuzzy_from_labels(S, w["f"])
        defs = {"right": fuzzy.is_fuzzy_right_ideal,
                "left": fuzzy.is_fuzzy_left_ideal,
                "bi": fuzzy.is_fuzzy_bi_ideal}
        comps = {"right": fuzzy.is_fuzzy_right_ideal_via_composition,
                 "left": fuzzy.is_fuzzy_left_ideal_via_composition,
                 "bi": fuzzy.is_fuzzy_bi_ideal_via_composition}
        p = w["predicate"]
        return defs[p](f) != comps[p](f)
    if law == "char_bridge":
        A = frozenset(S.index(lbl) for lbl in w["A"])
        fa = fuzzy.characteristic(S, A)
        if w["side"] == "right":
            return ideals.is_right_ideal(S, A) != fuzzy.is_fuzzy_right_ideal(fa)
        return ideals.is_left_ideal(S, A) != fuzzy.is_fuzzy_left_ideal(fa)
    if law == "support_iff":
        f = _fuzzy_from_labels(S, w["f"])
        g = _fuzzy_from_labels(S, w["g"])
        a = S.index(w["element"])
        nonzero = fuzzy.compose(f, g).values[a] != 0.0
        joint = any(f.values[y] != 0.0 and g.values[z] != 0.0
                    for y, z in factorizations(S)[a])
        return nonzero != joint
    if law == "point_square":
        a = S.index(w["a"])
        b = S.index(w["b"])
        fa = fuzzy.point_characteristic(S, a)
        square_above = any(S.le(b, S.table[a][g][a]) for g in range(S.m))
        return square_above != (fuzzy.square(fa).values[b] != 0.0)
    if law == "square_bound":
        f = _fuzzy_from_labels(S, w["f"])
        a = S.index(w["element"])
        g = S.gammas.index(w["gamma"])
        t = S.table[a][g][a]
        return f.values[a] > fuzzy.square(f).values[t]
    if law == "class_mismatch":
        deciders = {"regular": ideals.decide_regular_def,
                    "intra_regular": ideals.decide_intra_def,
                    "right_regular": ideals.decide_right_regular_def,
                    "left_regular": ideals.decide_left_regular_def}
        return deciders[w["class"]](S) != w["criterion"]
    raise ValueError(f"unknown witness law {law!r}")


# --- random cross-validation -------------------------------------------

def cross_validate_random(S: GammaStructure, samples: int = 100_000,
                          seed: int = 0, chunk: int = 20_000) -> list[dict]:
    """Seeded real-valued (f, g) search over every registry statement.

    Returns violation records; on a valid structure the list is empty, which
    certifies that the exhaustive grid battery missed nothing the random
    search can see.
    """
    _require_checkable(S)
    facts = factorizations(S)
    rng = np.random.default_rng(seed)
    # a separate stream, so the strictly positive draws stay as they were
    zero_rng = np.random.default_rng((seed, 1))
    reg = ideals.decide_regular_def(S)
    intra = ideals.decide_intra_def(S)
    rr = ideals.decide_right_regular_def(S)
    lr = ideals.decide_left_regular_def(S)
    hyp22 = [a for a in range(S.n) if ideals.element_intra_regular(S, a)]
    violations: list[dict] = []

    def note(law, mask_or_bad):
        if np.any(mask_or_bad):
            violations.append({"law": law, "count": int(np.sum(mask_or_bad))})

    for start in range(0, samples, chunk):
        k = min(chunk, samples - start)
        F = rng.random((k, S.n))
        G = rng.random((k, S.n))
        rF = _right_ideal_mask(S, F)
        lF = _left_ideal_mask(S, F)
        rG = _right_ideal_mask(S, G)
        lG = _left_ideal_mask(S, G)

        F1 = _comp_one(facts, F)
        oneF = _one_comp(facts, F)
        FF = _comp_rows(facts, F, F)
        C = _comp_rows(facts, F, G)
        M = np.minimum(F, G)

        # composition-form predicate equivalences
        orF = _order_reversing_mask(S, F)
        note("P4", rF != (orF & (F1 <= F).all(axis=1)))
        note("P5", lF != (orF & (oneF <= F).all(axis=1)))
        note("P6", _bi_ideal_mask(S, F) !=
             (orF & (_comp_rows(facts, F1, F) <= F).all(axis=1)))

        note("L10", (rF & lG)[:, None] & (C > M))
        if reg:
            note("L8", rF[:, None] & (M > C))
            note("L9", lG[:, None] & (M > C))
            note("T13", (rF & lG)[:, None] & (C != M))
            note("T23", F > _comp_rows(facts, F1, F))
            note("C31", (rF | lF)[:, None] & (FF != F))
        if intra:
            note("T16", (rF & lG)[:, None] & (M > _comp_rows(facts, G, F)))
            note("T24", F > _comp_one(facts, _one_comp(facts, FF)))
        if rr:
            note("T26", F > _comp_one(facts, FF))
        if lr:
            note("T28", F > _one_comp(facts, FF))
        note("P29", (rF[:, None] & (F1 > F)) | (lF[:, None] & (oneF > F)))
        note("C30", (rF | lF)[:, None] & (FF > F))
        note("QI", (rF | lF)[:, None] & (np.minimum(F1, oneF) > F))

        for a in range(S.n):
            for g in range(S.m):
                note("L21", F[:, a] > FF[:, S.table[a][g][a]])
        if hyp22:
            X = _comp_one(facts, _one_comp(facts, FF))
            for a in hyp22:
                note("L22", F[:, a] > X[:, a])

        # support equivalences; random values are almost surely nonzero so
        # joint support reduces to nonemptiness of the factorization set
        E = np.array([[len(facts[a]) > 0 for a in range(S.n)]] * k)
        note("L17", (C > 0) != E)
        note("C18", (F1 > 0) != E)
        note("C19", (oneF > 0) != E)

        # the same laws on zero-masked rows, against their actual supports
        Fz = np.where(zero_rng.random((k, S.n)) < 0.5, 0.0, F)
        Gz = np.where(zero_rng.random((k, S.n)) < 0.5, 0.0, G)
        Cz = _comp_rows(facts, Fz, Gz)
        EF, EG, EFG = (np.zeros((k, S.n), dtype=bool) for _ in range(3))
        for a, pairs in enumerate(facts):
            for y, z in pairs:
                EF[:, a] |= Fz[:, y] > 0
                EG[:, a] |= Gz[:, z] > 0
                EFG[:, a] |= (Fz[:, y] > 0) & (Gz[:, z] > 0)
        note("L17", (Cz > 0) != EFG)
        note("C18", (_comp_one(facts, Fz) > 0) != EF)
        note("C19", (_one_comp(facts, Gz) > 0) != EG)
    return violations
