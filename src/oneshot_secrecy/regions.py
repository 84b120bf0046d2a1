"""Achievable-rate polytopes: assembly, projection, vertices, distribution sweeps.

Every region is an explicit list of inequality rows over named rate
variables, with implicit nonnegativity.  Rows keep a breakdown of the
information terms and additive penalty that produced their bound, so two
penalty modes of the same system differ exactly by the recorded constants.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .channel import (
    HK_REGISTERS,
    INPUT_NAMES,
    ChannelSpec,
    InputDistribution,
    _hk_conditionals,
    _hk_probs,
    _t1_conditionals,
    _t1_probs,
    control_state_hk,
    control_state_t1,
)
from .entropic import _BATCH_BYTES, ToleranceParams, grid_terms
from .operators import COEF_TOL, DET_TOL, FEAS_TOL, RAY_TOL, OperatorError
from .secrecy import PLAN_TERMS, SECRECY_TERMS, plan_from_terms, secrecy_report, within_threshold
from .states import CQConditionals, CQState

# bench/tracing.py wraps these names in this module, which no longer calls them
from .entropic import cond_smooth_ht_mi, cond_smooth_max_mi, ht_mutual_info, smooth_max_mutual_info  # noqa: F401
from .secrecy import randomizer_plan, secrecy_check  # noqa: F401

# bytes of the largest array fourier_motzkin (a step's combination rows) or
# _intersection_table (sat, a byte per row and crossing) may build, counted
# before it is built; a run's peak stays within a few times this
_POLYTOPE_BYTES = 1 << 25

PENALTY_MODES = ("paper", "off")
DELTA_SOURCES = ("delta", "delta-prime")


@dataclass(frozen=True)
class MITerm:
    """One signed information term contributing to a row bound."""

    kind: str  # "ht" or "max"
    part_a: tuple[str, ...]
    part_b: tuple[str, ...]
    cond: str | None
    coefficient: float
    value: float
    eps: float
    smoothing: str | None = None


@dataclass(frozen=True)
class PolyRow:
    coeffs: tuple[float, ...]
    bound: float
    tag: str
    terms: tuple[MITerm, ...] = ()
    penalty: float = 0.0
    alternatives: tuple[float, ...] = ()
    warnings: tuple[str, ...] = ()

    def mi_part(self) -> float:
        """Bound contribution of the information terms alone."""
        return float(sum(t.coefficient * t.value for t in self.terms))


@dataclass
class RatePolytope:
    variables: tuple[str, ...]
    rows: list[PolyRow]
    meta: dict = field(default_factory=dict)

    def coeff_matrix(self) -> tuple[np.ndarray, np.ndarray]:
        a = np.array([r.coeffs for r in self.rows], dtype=float).reshape(len(self.rows), len(self.variables))
        b = np.array([r.bound for r in self.rows], dtype=float)
        return a, b

    def row(self, tag: str) -> PolyRow:
        for r in self.rows:
            if r.tag == tag:
                return r
        raise KeyError(f"no row tagged {tag!r}")

    def feasible(self, point: Sequence[float], tol: float = FEAS_TOL) -> bool:
        x = np.asarray(point, dtype=float)
        if np.any(x < -tol):
            return False
        a, b = self.coeff_matrix()
        return bool(np.all(a @ x <= b + tol))


@dataclass(frozen=True)
class PenaltyMode:
    """Whether rows carry the printed additive constants or only information terms."""

    mode: str = "paper"

    def __post_init__(self):
        if self.mode not in PENALTY_MODES:
            raise ValueError(f"penalty mode must be one of {PENALTY_MODES}, got {self.mode!r}")


def _rate_name(register: str) -> str:
    return "R" + register[1:] if register.startswith("X") else "R_" + register


def _term_eps(kind: str, params: ToleranceParams) -> float:
    """The eps a term takes: ``eps`` for a ``D_H`` term, the smoothing width ``eta`` for a ``D_max`` one."""
    return params.eps if kind == "ht" else params.eta


def _solve(conds: CQConditionals, probs: np.ndarray, params: ToleranceParams, smoothing: str,
           terms: Sequence[tuple]) -> dict:
    """Each distinct ``(kind, part_a, part_b, cond)`` term's values at every point of a grid, in one call.

    The grid is ``conds`` with the ``(G, *alphabets)`` stack ``probs``.  The
    terms go to one :func:`entropic.grid_terms` call in their order, which
    solves the rows of terms of one block shape together.
    """
    terms = list(dict.fromkeys(terms))
    values = grid_terms(conds, probs, [(*term, _term_eps(term[0], params)) for term in terms], smoothing)
    return dict(zip(terms, values))


def _weighted(tokens: str) -> tuple[tuple[int, str], ...]:
    """Split ``"c p 2C"`` into ``((1, "c"), (1, "p"), (2, "C"))``."""
    return tuple((int(t[:-1] or 1), t[-1]) for t in tokens.split())


@dataclass(frozen=True)
class _Table:
    """Region tables compiled (:func:`_compile`) to the distinct ``(kind, part_a, part_b, cond)`` terms they read.

    ``rows[r]`` is row ``r``'s ``(term index, coefficient)`` list once per
    receiver it may bind, ``counts[r]`` the ``(n_l, n_eps)`` its penalty
    reads, and ``coeffs`` the ``(rows, variables)`` rate coefficients.
    """

    variables: tuple[str, ...]
    tags: tuple[str, ...]
    terms: tuple[tuple, ...]
    rows: tuple[tuple[tuple[tuple[int, float], ...], ...], ...]
    counts: tuple[tuple[int, int], ...]
    coeffs: np.ndarray


def _compile(parts: Sequence[tuple], variables: Sequence[str], cond: str | None = None,
             receivers: Sequence[str] = ()) -> _Table:
    """One :class:`_Table` of region tables ``(table, leaks, roles, tag prefix)``.

    A table row is ``(tag, rates, groupings, leakage)``.  A grouping
    ``"cp:yCP"`` is the ``D_H`` term ``I(c p : y C P)``, registers in that
    order (the order fixes the operator basis), conditioned on ``cond``.
    ``rates`` and ``leakage`` are role letters with optional integer weights,
    ``"r 2s"``; a leaked role's ``D_max`` grouping is looked up in ``leaks``
    and enters with coefficient minus its weight (``leaks=None`` drops
    leakage).  The penalty counts are ``n_l`` randomizers, one per unit of
    leakage weight, and ``n_eps`` decoding errors, one per ``D_H`` term;
    these are the counts the paper's constants carry, so the tables need no
    penalty column.  With ``receivers``, each row binds the role ``y`` to the
    receiver whose first term is smallest (the first on a tie).  Terms come
    in the order a row-by-row evaluation first asks for them: each table's
    leaks, then each row's terms under each receiver in turn.
    """
    terms: dict[tuple, int] = {}

    def term(kind: str, grouping: str, roles: Mapping[str, str]) -> int:
        part_a, part_b = grouping.split(":")
        return terms.setdefault((kind, tuple(roles[x] for x in part_a), tuple(roles[x] for x in part_b), cond),
                                len(terms))

    tags, rows, counts, coeffs = [], [], [], []
    for table, leaks, roles, prefix in parts:
        leaked = {x: term("max", g, roles) for x, g in (leaks or {}).items()}
        for tag, rates, groupings, leakage in table:
            bindings = [dict(roles, y=y) for y in receivers] or [roles]
            weights = _weighted(leakage if leaks is not None else "")
            rows.append(tuple(tuple((term("ht", g, row_roles), 1.0) for g in groupings)
                              + tuple((leaked[x], -float(weight)) for weight, x in weights) for row_roles in bindings))
            counts.append((sum(weight for weight, _ in weights), len(groupings)))
            coeff_map = {roles[x]: weight for weight, x in _weighted(rates)}
            coeffs.append([float(coeff_map.get(v, 0.0)) for v in variables])
            tags.append(f"{prefix}:{tag}")
    return _Table(tuple(variables), tuple(tags), tuple(terms), tuple(rows), tuple(counts), np.array(coeffs))


def _bounds(table: _Table, solved: Mapping[tuple, np.ndarray], penalty: Callable[[int, int], float]):
    """Row bounds ``(G, rows)`` of a grid, each row's picked receiver and first terms.

    ``solved`` holds the grid's values of (at least) the table's terms
    (:func:`_solve`).  A bound is summed ``0 + c1·v1 + c2·v2 + … + penalty``,
    the order of one row alone, so it keeps its bits; a row's receiver is the
    ``argmin`` of its first terms.
    """
    values = [solved[t] for t in table.terms]
    firsts = np.array([[values[terms[0][0]] for terms in bound] for bound in table.rows]).transpose(2, 0, 1)
    picks = firsts.argmin(axis=2)
    bounds = np.zeros(picks.shape)
    # an infinite D_H less an infinite D_max is nan, as it is for Python floats
    with np.errstate(invalid="ignore"):
        for r, (bound, counts) in enumerate(zip(table.rows, table.counts)):
            pen = penalty(*counts)
            for k, terms in enumerate(bound):
                total = np.zeros(len(picks))
                for t, coefficient in terms:
                    total = total + coefficient * values[t]
                bounds[:, r] = np.where(picks[:, r] == k, total + pen, bounds[:, r])
    return bounds, picks, firsts


def _region(table: _Table, penalty: Callable[[int, int], float], state: CQState, params: ToleranceParams,
            smoothing: str = "none", metadata: Sequence[tuple] = ()) -> tuple[RatePolytope, dict]:
    """``state``'s region, as the one point of its own grid, and each solved term's value there.

    The table's terms and then the ``metadata`` terms, which only the
    report reads, are solved in one call.  Each row carries its picked
    receiver's terms and, with a choice of receivers, every receiver's first
    term as its ``alternatives``.
    """
    solved = _solve(state.conds, state.probs[None], params, smoothing, table.terms + tuple(metadata))
    bounds, picks, firsts = _bounds(table, solved, penalty)
    values = {term: float(at[0]) for term, at in solved.items()}
    rows = []
    for r, (tag, bound, coeffs) in enumerate(zip(table.tags, table.rows, table.coeffs.tolist())):
        terms = []
        for t, coefficient in bound[picks[0, r]]:
            kind, part_a, part_b, cond = table.terms[t]
            terms.append(MITerm(kind, part_a, part_b, cond, coefficient, values[table.terms[t]],
                                _term_eps(kind, params), None if kind == "ht" else smoothing))
        alternatives = tuple(firsts[0, r].tolist()) if len(bound) > 1 else ()
        rows.append(PolyRow(tuple(coeffs), float(bounds[0, r]), tag, tuple(terms), penalty(*table.counts[r]),
                            alternatives))
    return RatePolytope(table.variables, rows), values


# Time-shared rows: senders a then b (b's randomizer conditions on a) with
# rates r and s, receiver y, eavesdropper z.
_TIME_SHARED = (
    ("r1", "r", ("a:by",), "a"),
    ("r2", "s", ("b:ay",), "b"),
    ("sum", "r s", ("ab:y",), "a b"),
)
_TIME_SHARED_LEAKS = {"a": "a:z", "b": "b:za"}
_TIME_SHARED_ROLES = {"a": "X1", "b": "X2", "r": "R1", "s": "R2", "z": "Z"}

# Roles of the split-message tables: (common, personal) messages c, p of one
# sender and C, P of the other, with rates r and s; the mirror swaps senders.
_SPLIT_ROLES = {"c": "X10", "p": "X11", "C": "X20", "P": "X22", "r": "R1", "s": "R2", "z": "Z"}
_MIRRORED_ROLES = {"c": "X20", "p": "X22", "C": "X10", "P": "X11", "r": "R2", "s": "R1", "z": "Z"}

# One side-information sub-channel: receiver y decodes its own split message
# (c, p) plus the full interfering input (C, P); the interfering common part
# conditions the later randomizers.
_SIDE_INFORMATION = (
    ("1", "r", ("cp:yCP",), "c p"),
    ("2", "r", ("p:ycCP", "c:ypCP"), "c p"),
    ("3", "s", ("CP:ycp",), "C P"),
    ("4", "s", ("CPc:yp",), "C P"),
    ("5", "s", ("CPp:yc",), "C P"),
    ("6", "r s", ("p:ycCP", "cC:yp"), "c p C P"),
    ("7", "r s", ("pCP:yc", "c:pCPy"), "c p C P"),
    ("8", "r s", ("pcCP:y",), "c p C P"),
    ("9", "r 2s", ("cCP:yp", "CPp:yc"), "c p 2C 2P"),
)
_SIDE_INFORMATION_LEAKS = {"c": "c:z", "p": "p:zcCP", "C": "C:zc", "P": "P:zcpC"}

# Both receivers, y and Y, decode the split messages: the printed rows of the
# no-secrecy region, and with leakage those of the conjectured secrecy region.
_SPLIT_MESSAGE = (
    ("1", "r", ("cp:yC",), "c p"),
    ("2", "r", ("p:ycC", "c:YCP"), "c p"),
    ("3", "s", ("CP:Yc",), "C P"),
    ("4", "s", ("C:ycp", "P:YcC"), "C P"),
    ("5", "r s", ("p:YcC", "cpC:Y"), "c p C P"),
    ("6", "r s", ("p:yCc", "PCc:Y"), "c p C P"),
    ("7", "r s", ("pC:yc", "Pc:YC"), "c p C P"),
    ("8", "2r s", ("p:ycC", "cP:YC", "pcC:Y"), "2c 2p C P"),
    ("9", "r 2s", ("pC:yc", "P:YcC", "PCc:y"), "c p 2C 2P"),
)
_SPLIT_MESSAGE_LEAKS = {"c": "c:z", "p": "p:zcC", "C": "C:zc", "P": "P:zcpC"}
_BOTH_RECEIVERS = dict(_SPLIT_ROLES, y="Y1", Y="Y2")


def _hk_penalties(params: ToleranceParams, penalties: PenaltyMode) -> Callable[[int, int], float]:
    """Constant of a row without secrecy: ``n_eps * (log2(eps) - 2)``."""
    if penalties.mode == "off":
        return lambda n_l, n_eps: 0.0
    return lambda n_l, n_eps: n_eps * (math.log2(params.eps) - 2.0)


# ---------------------------------------------------------------------------
# multiple-access inner bound (no secrecy)
# ---------------------------------------------------------------------------


def qmac_inner_bound(
    state: CQState,
    senders: Sequence[str],
    receiver: str,
    eps: float,
    penalties: PenaltyMode,
) -> RatePolytope:
    """Simultaneous-decoding inner bound: one row per nonempty sender subset.

    Registers not named as sender or receiver are marginalized out.
    """
    senders = list(senders)
    if len(senders) not in (2, 3):
        raise OperatorError(f"qmac_inner_bound supports 2 or 3 senders, got {len(senders)}")
    params = ToleranceParams(eps=eps)
    variables = tuple(_rate_name(s) for s in senders)
    # senders a, b, c with rates A, B, C
    letters = "abc"[: len(senders)]
    roles = {**dict(zip(letters, senders)), **dict(zip(letters.upper(), variables)), "y": receiver}
    table = []
    for size in range(1, len(senders) + 1):
        for sub in itertools.combinations(letters, size):
            rest = "".join(x for x in letters if x not in sub)
            tag = "+".join(roles[x.upper()] for x in sub)
            table.append((tag, " ".join(sub).upper(), ("".join(sub) + ":" + rest + "y",), ""))
    poly, _ = _region(_compile([(table, None, roles, "qmac")], variables), _hk_penalties(params, penalties),
                      state, params)
    poly.meta.update(receiver=receiver, penalties=penalties.mode)
    return poly


# ---------------------------------------------------------------------------
# theorem-style secrecy regions
# ---------------------------------------------------------------------------


def _secrecy_penalties(
    params: ToleranceParams, penalties: PenaltyMode, delta_source: str = "delta"
) -> Callable[[int, int], float]:
    """Constant of a time-shared secrecy row: one randomizer (single) or two (joint)."""
    if delta_source not in DELTA_SOURCES:
        raise ValueError(f"delta_source must be one of {DELTA_SOURCES}, got {delta_source!r}")
    if penalties.mode == "off":
        return lambda n_l, n_eps: 0.0
    log_l = math.log2(3.0 / params.eps_prime**3)
    log_d = math.log2(params.delta if delta_source == "delta" else params.delta_prime)
    single = math.log2(params.eps) - 1.0 - log_l + 0.25 * log_d
    joint = math.log2(params.eps) - 1.0 - 2.0 * log_l + 0.5 * log_d + params.big_o_constant
    return lambda n_l, n_eps: single if n_l == 1 else joint


def _split_penalties(params: ToleranceParams, penalties: PenaltyMode) -> Callable[[int, int], float]:
    """Constant of a split-message secrecy row.

    ``-n_l*log2(3/eps'^3) + (n_l/2)*0.5*log2(delta') + n_eps*log2(eps) - 2*n_eps + O(1)``.
    """
    if penalties.mode == "off":
        return lambda n_l, n_eps: 0.0
    log_l = math.log2(3.0 / params.eps_prime**3)
    log_dp = math.log2(params.delta_prime)
    return lambda n_l, n_eps: (-n_l * log_l + 0.5 * (n_l // 2) * log_dp + n_eps * math.log2(params.eps)
                               - 2.0 * n_eps + params.big_o_constant)


# each theorem's compiled table and the constant of its rows, ``penalty(params, penalties)``;
# sub-channel 2 of t2 is the 1<->2 mirror of sub-channel 1
_THEOREMS = {
    "t1": (_compile([(_TIME_SHARED, _TIME_SHARED_LEAKS, _TIME_SHARED_ROLES, "t1")], ("R1", "R2"), "Q",
                    ("Y1", "Y2")), _secrecy_penalties),
    "conjecture": (_compile([(_SPLIT_MESSAGE, _SPLIT_MESSAGE_LEAKS, _BOTH_RECEIVERS, "conj")], ("R1", "R2")),
                   _split_penalties),
    "t2": (_compile([(_SIDE_INFORMATION, _SIDE_INFORMATION_LEAKS, dict(_SPLIT_ROLES, y="Y1"), "t2:s1"),
                     (_SIDE_INFORMATION, _SIDE_INFORMATION_LEAKS, dict(_MIRRORED_ROLES, y="Y2"), "t2:s2")],
                    ("R1", "R2")), _split_penalties),
    "hk-nosecrecy": (_compile([(_SPLIT_MESSAGE, None, _BOTH_RECEIVERS, "hk")], ("R1", "R2")), _hk_penalties),
}
# selectors of region_builder and sweep_union; the CLI's region command adds qmac
REGION_THEOREMS = tuple(_THEOREMS)


def _theorem(theorem: str, state: CQState, params: ToleranceParams, penalties: PenaltyMode, smoothing: str = "none",
             metadata: Sequence[tuple] = (), **options) -> tuple[RatePolytope, dict]:
    """``theorem``'s region of ``state`` and its solved terms (:func:`_region`); ``options`` go to its penalty."""
    table, penalty = _THEOREMS[theorem]
    poly, solved = _region(table, penalty(params, penalties, **options), state, params, smoothing, metadata)
    poly.meta.update(theorem=theorem, penalties=penalties.mode)
    return poly, solved


def theorem1_region(
    channel: ChannelSpec,
    dist: InputDistribution,
    params: ToleranceParams,
    penalties: PenaltyMode,
    smoothing: str = "none",
    delta_source: str = "delta",
) -> RatePolytope:
    """Time-shared secrecy region: per row, the worse of the two receivers.

    The receiver of a row is the one with the smaller first term; both first
    terms are recorded as the row's ``alternatives``, and only the picked
    receiver's row is reported.
    """
    criterion = ("max", ("X1", "X2"), ("Z",), "Q")
    poly, solved = _theorem("t1", control_state_t1(channel, dist), params, penalties, smoothing, (criterion,),
                            delta_source=delta_source)
    full = solved[criterion]
    poly.meta.update(secrecy={
        "criterion": "Imax_eta(X1X2:Z|Q)", "value": full, "threshold": params.theta,
        "pass": within_threshold(full, params.theta)})
    return poly


def hk_nosecrecy_region(
    channel: ChannelSpec,
    dist: InputDistribution,
    eps: float,
    penalties: PenaltyMode = PenaltyMode("paper"),
) -> RatePolytope:
    """Split-message no-secrecy region over (R1, R2), rows as printed."""
    return _theorem("hk-nosecrecy", control_state_hk(channel, dist), ToleranceParams(eps=eps), penalties)[0]


def conjecture_region(
    channel: ChannelSpec,
    dist: InputDistribution,
    params: ToleranceParams,
    penalties: PenaltyMode,
    smoothing: str = "none",
) -> RatePolytope:
    """Split-message secrecy region (nine rows), plus the side-condition report."""
    poly, solved = _theorem("conjecture", control_state_hk(channel, dist), params, penalties, smoothing, SECRECY_TERMS)
    report = secrecy_report(params, (math.inf, math.inf, math.inf), smoothing, solved)
    poly.meta.update(secrecy=report.as_dict())
    return poly


def theorem2_region(
    channel: ChannelSpec,
    dist: InputDistribution,
    params: ToleranceParams,
    penalties: PenaltyMode,
    smoothing: str = "none",
) -> RatePolytope:
    """Intersection of the two side-information sub-channel secrecy systems.

    Sub-channel 2 is the 1<->2 mirror of sub-channel 1.
    """
    poly, solved = _theorem("t2", control_state_hk(channel, dist), params, penalties, smoothing,
                            SECRECY_TERMS + tuple(PLAN_TERMS))
    report = secrecy_report(params, (math.inf, math.inf, math.inf), smoothing, solved)
    plan = plan_from_terms(params, smoothing, solved)
    poly.meta.update(secrecy=report.as_dict(), randomizer_plan=plan.as_dict())
    return poly


def hk_region_via_projection(
    channel: ChannelSpec,
    dist: InputDistribution,
    eps: float,
    penalties: PenaltyMode = PenaltyMode("paper"),
) -> RatePolytope:
    """Split-message region obtained by projecting the two 3-sender systems.

    Builds the seven-row inner bound for each receiver, adds the rate
    identities R1 = R10 + R11 and R2 = R20 + R22 as inequality pairs, and
    eliminates the split rates.  Serves as an independent construction of the
    printed system of :func:`hk_nosecrecy_region`.
    """
    state = control_state_hk(channel, dist)
    sys1 = qmac_inner_bound(state, ["X10", "X11", "X20"], "Y1", eps, penalties)
    sys2 = qmac_inner_bound(state, ["X20", "X22", "X10"], "Y2", eps, penalties)
    variables = ("R1", "R2", "R10", "R11", "R20", "R22")
    rows: list[PolyRow] = []
    for poly in (sys1, sys2):
        for r in poly.rows:
            cmap = dict(zip(poly.variables, r.coeffs))
            rows.append(PolyRow(tuple(cmap.get(v, 0.0) for v in variables), r.bound, r.tag))
    for total, pa, pb in (("R1", "R10", "R11"), ("R2", "R20", "R22")):
        coeffs = tuple({total: 1.0, pa: -1.0, pb: -1.0}.get(v, 0.0) for v in variables)
        rows.append(PolyRow(coeffs, 0.0, f"def:{total}+"))
        rows.append(PolyRow(tuple(-c for c in coeffs), 0.0, f"def:{total}-"))
    lifted = RatePolytope(variables, rows, {"construction": "lift"})
    return fourier_motzkin(lifted, ["R10", "R11", "R20", "R22"])


# ---------------------------------------------------------------------------
# polytope machinery: projection, pruning, vertices
# ---------------------------------------------------------------------------


def _prune(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, bool]:
    """Rows of ``a @ x <= b`` left after pruning, and whether the system is empty.

    Rows with no coefficient above ``COEF_TOL`` in magnitude are dropped; one
    of them with a bound below ``-FEAS_TOL`` makes the system empty.  Rows the
    implicit nonnegativity implies are dropped too.  Of the rows sharing a
    direction (the row over its max-norm, to 9 decimals) the one with the
    smallest normalized bound is kept, the first on a tie.  Kept rows come in
    lexicographic direction order.
    """
    scale = np.abs(a).max(axis=1, initial=0.0)
    live = scale > COEF_TOL
    empty = bool(np.any(~live & (b < -FEAS_TOL)))
    rows = np.flatnonzero(live & ~(np.all(a <= COEF_TOL, axis=1) & (b >= -FEAS_TOL)))
    direction = np.round(a[rows] / scale[rows, None], 9)
    order = np.lexsort((b[rows] / scale[rows], *direction.T[::-1]))  # stable: ties keep row order
    first = np.ones(len(order), dtype=bool)
    first[1:] = np.any(direction[order[1:]] != direction[order[:-1]], axis=1)
    return rows[order[first]], empty


def fourier_motzkin(poly: RatePolytope, eliminate: Sequence[str]) -> RatePolytope:
    """Exact projection of the feasible set onto the non-eliminated variables.

    Nonnegativity rows of eliminated variables join the combination step;
    nonnegativity of kept variables stays implicit.  Redundant duplicates are
    pruned after each elimination; empty systems propagate as an explicit
    ``0 <= -1`` row.  Each step's combination rows are counted against
    ``_POLYTOPE_BYTES`` before they are formed; over it raises ``ValueError``.
    """
    eliminate = list(eliminate)
    for v in eliminate:
        if v not in poly.variables:
            raise OperatorError(f"cannot eliminate unknown variable {v!r}")
    variables = poly.variables
    a, b = poly.coeff_matrix()
    tags = [r.tag for r in poly.rows]

    def pruned(a, b, tags):
        kept, empty = _prune(a, b)
        a, b, tags = a[kept], b[kept], [tags[k] for k in kept]
        if empty:
            a, b, tags = np.vstack([np.zeros(a.shape[1]), a]), np.append(-1.0, b), ["infeasible", *tags]
        return a, b, tags

    for v in eliminate:
        idx = variables.index(v)
        nonneg = np.zeros(len(variables))
        nonneg[idx] = -1.0
        a, b, tags = np.vstack([a, nonneg]), np.append(b, 0.0), [*tags, f"nonneg:{v}"]
        c = a[:, idx]
        pos, neg = c > COEF_TOL, c < -COEF_TOL
        count = int(pos.sum()) * int(neg.sum())
        if 8 * len(variables) * count > _POLYTOPE_BYTES:
            raise ValueError(f"eliminating {v!r} forms {count} combination rows of {8 * len(variables)} bytes, "
                             f"over the polytope budget of {_POLYTOPE_BYTES} bytes")
        zero = ~(pos | neg)
        # each row scaled to coefficient +-1 on v; every pos x neg pair, pos-major
        ap, bp = a[pos] / c[pos, None], b[pos] / c[pos]
        an, bn = a[neg] / -c[neg, None], b[neg] / -c[neg]
        combo = (ap[:, None] + an).reshape(-1, len(variables))
        combo[:, idx] = 0.0
        a, b = np.vstack([a[zero], combo]), np.concatenate([b[zero], (bp[:, None] + bn).ravel()])
        tags = [t for t, z in zip(tags, zero) if z] + ["fm"] * len(combo)
        a, b, tags = pruned(a, b, tags)
    kept = tuple(v for v in variables if v not in eliminate)
    a, b, tags = pruned(a[:, [variables.index(v) for v in kept]], b, tags)
    rows = [PolyRow(tuple(coeffs), bound, tag) for coeffs, bound, tag in zip(a, b, tags)]
    return RatePolytope(kept, rows, {"eliminated": tuple(eliminate)})


@dataclass
class VertexEnumeration:
    vertices: list[tuple[float, float]]
    degenerate: bool
    unbounded: bool


def _rays(row_a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Candidate unit recession rays of ``row_a``'s rows and the row each is normal to.

    The cone ``{r >= 0 : row_a @ r <= 0}`` is cut from the quadrant by lines
    through the origin, so if it holds a ray it holds an axis or a row's
    boundary ray inside the quadrant.  The axes come first, with row ``-1``,
    then each live row's ``perp`` and then each one's ``-perp``.
    """
    norms = np.hypot(row_a[:, 0], row_a[:, 1])
    live = np.flatnonzero(norms > 0.0)
    perp = np.stack([row_a[live, 1], -row_a[live, 0]], axis=1) / norms[live, None]
    rays, source = np.vstack([np.eye(2), perp, -perp]), np.concatenate([[-1, -1], live, live])
    inside = np.all(rays >= 0.0, axis=1)
    return rays[inside], source[inside]


def _ray_products(row_a: np.ndarray, rays: np.ndarray) -> np.ndarray:
    """``(rows, rays)`` values ``row . ray``, each summed elementwise as ``a0 r0 + a1 r1``.

    Unlike ``row_a @ rays.T``, whose last bits BLAS may round by the shape
    of the product, each value is the same on any subset of rows or rays.
    """
    return row_a[:, :1] * rays[:, 0] + row_a[:, 1:] * rays[:, 1]


def _has_recession_ray(row_a: np.ndarray) -> bool:
    """Whether the recession cone ``{r >= 0 : row_a @ r <= 0}`` holds a ray: one of :func:`_rays`
    meets every row with ``RAY_TOL`` of slack."""
    rays, _ = _rays(row_a)
    return bool(np.any(np.all(_ray_products(row_a, rays) <= RAY_TOL, axis=0)))


def _intersection_table(poly: RatePolytope):
    """Rows ``a`` (nonnegativity last), ``triu`` pairs ``i < j`` with ``|det| >= DET_TOL``, their crossings
    ``x`` and ``sat[k, p] = a[k] @ x[p] <= b[k] + FEAS_TOL``.

    ``sat`` is filled in blocks of crossings whose ``(crossings, rows)``
    float64 products stay within ``entropic._BATCH_BYTES``, so the table's only
    cubic array is ``sat`` itself, one byte an entry, and its size is
    counted against ``_POLYTOPE_BYTES`` before anything is built; over it
    raises ``ValueError``.  Each block is a stacked product (not
    ``a @ x.T``), which keeps each dot's bits.
    """
    m = len(poly.rows) + 2
    crossings = m * (m - 1) // 2
    if crossings * m > _POLYTOPE_BYTES:
        raise ValueError(f"{len(poly.rows)} rows and nonnegativity have {crossings} crossings, whose table of "
                         f"{crossings * m} bytes is over the polytope budget of {_POLYTOPE_BYTES} bytes")
    a, b = poly.coeff_matrix()
    a, b = np.vstack([a, -np.eye(2)]), np.concatenate([b, np.zeros(2)])
    i, j = np.triu_indices(len(b), 1)
    det = a[i, 0] * a[j, 1] - a[i, 1] * a[j, 0]
    i, j = i[np.abs(det) >= DET_TOL], j[np.abs(det) >= DET_TOL]
    x = np.linalg.solve(np.stack([a[i], a[j]], axis=1), np.stack([b[i], b[j]], axis=1)[..., None])[..., 0]
    sat = np.empty((len(b), len(x)), dtype=bool)
    block = max(1, _BATCH_BYTES // (8 * len(b)))
    for start in range(0, len(x), block):
        sat[:, start:start + block] = (np.matmul(a[None], x[start:start + block, :, None])[..., 0]
                                       <= b + FEAS_TOL).T
    return a, i, j, x, sat


def _corners(pts: np.ndarray) -> np.ndarray:
    """Clamped feasible crossings ``pts`` merged: in lexicographic order, less each point within
    ``FEAS_TOL`` (max norm) of an earlier kept one; one point within ``FEAS_TOL`` of the origin is the origin.

    An exact repeat never stays, nor drops another point, so repeats go
    first.  A nan distance counts as near.
    """
    pts = pts[np.lexsort((pts[:, 1], pts[:, 0]))]
    first = np.ones(len(pts), dtype=bool)
    first[1:] = np.any(pts[1:] != pts[:-1], axis=1)
    pts = pts[first]
    kept = np.ones(len(pts), dtype=bool)
    for p in range(1, len(pts)):
        kept[p] = np.all(np.abs(pts[:p][kept[:p]] - pts[p]).max(axis=1) > FEAS_TOL)
    pts = pts[kept]
    return np.zeros((1, 2)) if len(pts) == 1 and np.max(np.abs(pts[0])) <= FEAS_TOL else pts


def vertices_2d(poly: RatePolytope) -> VertexEnumeration:
    """Vertices of the nonnegatively clamped region, counterclockwise.

    An infeasible system reports the origin with the ``degenerate`` flag, as
    the nonnegative clamp prescribes.
    """
    if len(poly.variables) != 2:
        raise OperatorError("vertices_2d needs exactly two variables")
    a, _, _, x, sat = _intersection_table(poly)
    feasible = np.all(sat, axis=0)
    unbounded = _has_recession_ray(a[:-2])
    if not feasible.any():
        return VertexEnumeration([(0.0, 0.0)], True, unbounded)
    pts = _corners(np.maximum(x[feasible], 0.0))
    if len(pts) == 1 and not pts.any():  # merged to the origin
        return VertexEnumeration([(0.0, 0.0)], not unbounded, unbounded)
    center = pts.mean(axis=0)
    angles = np.arctan2(pts[:, 1] - center[1], pts[:, 0] - center[0])
    order = np.argsort(angles, kind="stable")
    pts = pts[order]
    start = int(np.lexsort((pts[:, 1], pts[:, 0]))[0])
    pts = np.roll(pts, -start, axis=0)
    return VertexEnumeration([(float(x), float(y)) for x, y in pts], False, unbounded)


def _violated(row: np.ndarray, bound: float, pts: np.ndarray) -> bool:
    """Whether a point of ``pts`` breaks ``row @ p <= bound + FEAS_TOL``; each ``row @ p`` is a dot of its own."""
    return not (np.matmul(row, pts[..., None]) <= bound + FEAS_TOL).all()


def minimal_2d(poly: RatePolytope) -> RatePolytope:
    """Strictly irredundant row set: a row is dropped iff removal changes nothing.

    The pruned rows are decided in their direction order, which settles
    ties between duplicates, on one intersection table.  Running counts of
    the active rows each crossing and each candidate recession ray
    (:func:`_rays`) violates give, less a row's own violation, the vertices
    and boundedness of the region without that row.  A row is kept when that
    region is unbounded or one of its vertices (:func:`_corners`, the origin
    when it has none) violates the row; the crossings are merged only when
    one of them, clamped, or the origin violates it.  An empty system
    keeps only its ``0 <= -1`` row."""
    if len(poly.variables) != 2:
        raise OperatorError("minimal_2d needs exactly two variables")
    a, b = poly.coeff_matrix()
    kept, empty = _prune(a, b)
    if empty:
        return RatePolytope(poly.variables, [PolyRow((0.0, 0.0), -1.0, "infeasible")], dict(poly.meta))
    keep = [poly.rows[k] for k in kept]
    a, i, j, x, sat = _intersection_table(RatePolytope(poly.variables, keep))
    b = b[kept]
    rays, source = _rays(a[:-2])
    source[source < 0] = len(keep)  # the axes stay with the always active nonnegativity rows
    over = ~(_ray_products(a[:-2], rays) <= RAY_TOL)
    misses, ray_misses = len(a) - np.count_nonzero(sat, axis=0), over.sum(axis=0)
    active = np.ones(len(keep) + 2, dtype=bool)
    # the rows the origin breaks; each value there is a dot of its own, as in _violated
    origin_breaks = ~(np.matmul(a[:-2, None], np.zeros((2, 1)))[:, 0, 0] <= b + FEAS_TOL)
    for r in range(len(keep)):
        active[r] = False
        if (active[source] & (ray_misses == over[r])).any():
            active[r] = True  # the rest is unbounded
            continue
        out = ~sat[r]
        pts = np.maximum(x[active[i] & active[j] & (misses == out)], 0.0)
        if origin_breaks[r] or _violated(a[r], b[r], pts):
            active[r] = not len(pts) or _violated(a[r], b[r], _corners(pts))
        if not active[r]:
            misses -= out
            ray_misses -= over[r]
    return RatePolytope(poly.variables, [r for r, on in zip(keep, active) if on], dict(poly.meta))


# ---------------------------------------------------------------------------
# union sweep over input distributions
# ---------------------------------------------------------------------------


@dataclass
class SweepResult:
    thetas: np.ndarray
    radii: np.ndarray
    points: np.ndarray  # (n_rays, 2) frontier coordinates
    evaluations: int
    degenerate_count: int

    def rows(self) -> list[tuple[float, float, float]]:
        return [
            (float(t), float(p[0]), float(p[1]))
            for t, p in zip(self.thetas, self.points)
        ]


def _simplex_grid(size: int, resolution: int) -> np.ndarray:
    """``(n, size)`` distributions on ``size`` atoms with weights k/(resolution-1), lexicographic."""
    if resolution < 2:
        raise ValueError("grid resolution must be at least 2 points per simplex edge")
    steps = resolution - 1
    comps = [c + (steps - sum(c),) for c in itertools.product(range(resolution), repeat=size - 1) if sum(c) <= steps]
    return np.array(comps, dtype=float) / steps


def _grid_count(size: int, resolution: int) -> int:
    """``len(_simplex_grid(size, resolution))``, without building the grid."""
    return math.comb(resolution + size - 2, size - 1)


def region_builder(theorem: str) -> Callable:
    # looked up at call time, so a module-level replacement of a builder is honoured
    builders = dict(zip(REGION_THEOREMS, (
        theorem1_region,
        conjecture_region,
        theorem2_region,
        lambda ch, d, params, pen, smoothing="none": hk_nosecrecy_region(ch, d, params.eps, pen),
    ), strict=True))
    if theorem not in builders:
        raise ValueError(f"unknown theorem selector {theorem!r}")
    return builders[theorem]


def _grid_radii(a: np.ndarray, b: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """Largest feasible scaling along each nonnegative ray direction, ``(..., rays)``.

    ``a`` are the rows' coefficients and ``b`` a ``(..., rows)`` stack of
    their bounds, one region per leading index.  Region rows have
    nonnegative coefficients, so a negative bound means the clamped region is
    empty and every ray collapses to the origin.
    """
    radii = np.full(b.shape[:-1] + (len(dirs),), math.inf)
    # one row at a time, so no (..., rows, rays) array is made
    with np.errstate(divide="ignore", invalid="ignore"):
        for row, proj in enumerate(a @ dirs.T):
            ratios = np.where(proj > COEF_TOL, b[..., row, None] / np.maximum(proj, COEF_TOL), math.inf)
            radii = np.minimum(radii, ratios)
    return np.where(np.any(b < -FEAS_TOL, axis=-1)[..., None], 0.0, np.maximum(radii, 0.0))


def sweep_union(
    channel: ChannelSpec,
    theorem: str,
    params: ToleranceParams,
    penalties: PenaltyMode,
    grid: int,
    q_size: int = 1,
    rays: int = 91,
    max_evals: int = 20000,
    smoothing: str = "none",
) -> SweepResult:
    """Frontier of the union of per-distribution regions over a simplex grid.

    The grid is the lexicographic product of one simplex grid per axis,
    counted against ``max_evals`` before it is built.  Each term of the
    theorem's compiled table is evaluated term-major, for every point at
    once, in one :func:`entropic.grid_terms` call whose batches bound its
    memory, and the row bounds form one ``(points, rows)`` array
    (:func:`_bounds`); the secrecy report and randomizer plan of a region
    are never computed.
    Regions are merged by pointwise maximum along fixed ray directions, so
    output is deterministic.  A row bound that is nan raises
    ``OperatorError`` naming its grid point and row.
    """
    region_builder(theorem)  # an unknown selector raises its ValueError here
    if grid < 2:
        raise ValueError("grid resolution must be >= 2")
    if q_size < 1 or q_size > 4:
        raise ValueError("q_size must lie in 1..4")
    if rays < 1:
        raise ValueError("rays must be >= 1")
    # one simplex per axis: Q, then X1|q and X2|q for each q; or the four split parts
    if theorem == "t1":
        if channel.has_splits():
            raise OperatorError(f"theorem {theorem!r} sweeps require a channel without splits")
        sizes = (q_size,) + tuple(len(channel.inputs[x]) for x in INPUT_NAMES) * q_size
        conds = _t1_conditionals(channel, q_size)
        to_probs = lambda v: _t1_probs(v[0], np.stack(v[1::2], axis=1), np.stack(v[2::2], axis=1))
    else:
        if q_size != 1:
            raise ValueError(f"q_size applies to t1 sweeps only; theorem {theorem!r} got q_size={q_size}")
        if not channel.has_splits():
            raise OperatorError(f"theorem {theorem!r} sweeps require a channel with splits")
        sizes = tuple(len(channel.part_alphabet(r)) for r in HK_REGISTERS)
        conds = _hk_conditionals(channel)
        to_probs = lambda v: _hk_probs(*v)
    count = math.prod(_grid_count(s, grid) for s in sizes)
    if count > max_evals:
        raise ValueError(f"grid of {count} distributions exceeds the cap of {max_evals}")
    axes = [_simplex_grid(s, grid) for s in sizes]
    table, constants = _THEOREMS[theorem]
    penalty = constants(params, penalties)
    thetas = np.linspace(0.0, math.pi / 2.0, rays)
    dirs = np.stack([np.cos(thetas), np.sin(thetas)], axis=1)

    picks = np.unravel_index(np.arange(count), [len(a) for a in axes])
    probs = to_probs([a[i] for a, i in zip(axes, picks)])
    bounds = _bounds(table, _solve(conds, probs, params, smoothing, table.terms), penalty)[0]
    undefined = np.argwhere(np.isnan(bounds))
    if undefined.size:
        # an undefined bound (a D_H of +inf less a D_max of +inf) has no radius to merge
        point, row = undefined[0].tolist()
        raise OperatorError(f"row {table.tags[row]} is undefined (nan) at grid point {point}")
    frontier = np.zeros(rays)
    degenerate = 0
    # blocks of points whose (points, rays) float arrays, three live at once, fit in _BATCH_BYTES
    step = max(1, _BATCH_BYTES // (3 * 8 * rays))
    for block in np.split(bounds, range(step, len(bounds), step)):
        radii = _grid_radii(table.coeffs, block, dirs)
        degenerate += int(np.all(radii <= FEAS_TOL, axis=1).sum())
        frontier = np.maximum(frontier, radii.max(axis=0))
    # a zero direction component is a zero coordinate, also on an unbounded ray (not inf * 0)
    points = np.multiply(dirs, frontier[:, None], out=np.zeros_like(dirs), where=dirs != 0.0)
    return SweepResult(thetas, frontier, points, count, degenerate)
