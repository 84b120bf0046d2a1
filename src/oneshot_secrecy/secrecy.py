"""Randomizer block sizing, the trace-norm leakage bound, and secrecy checks."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Iterable, Mapping, Sequence

from .channel import HK_REGISTERS
from .entropic import ToleranceParams, smooth_max_mutual_info
from .operators import THRESHOLD_SLACK, OperatorError
from .states import CQState

# decoding order fixed by the block-size lemma
DECODING_ORDER = ("m10", "m20", "m11", "m22")

# the trace-norm bound 60 * delta'^(1/8) is below the maximal trace distance 2
# exactly when delta' < (1/30)^8
VACUITY_THRESHOLD = (1.0 / 30.0) ** 8


@dataclass(frozen=True)
class LeakageBound:
    value: float
    vacuous: bool

    def as_dict(self) -> dict:
        return {"value": self.value, "vacuous": self.vacuous}


def leakage_bound(delta_prime: float) -> LeakageBound:
    """Expected trace-norm distance bound for the randomized eavesdropper state."""
    if delta_prime <= 0.0:
        raise ValueError(f"delta_prime must be positive, got {delta_prime}")
    value = 60.0 * delta_prime ** 0.125
    return LeakageBound(value=float(value), vacuous=bool(value >= 2.0))


@dataclass(frozen=True)
class RandomizerPlan:
    """Junk-block sizes (bits) per split message, with their max-information terms."""

    log_k10: float
    log_k20: float
    log_k11: float
    log_k22: float
    leakage: LeakageBound
    imax_terms: tuple[tuple[str, float], ...]
    smoothing: str
    decoding_order: ClassVar[tuple[str, ...]] = DECODING_ORDER

    def as_dict(self) -> dict:
        return {
            "log_k10": self.log_k10,
            "log_k20": self.log_k20,
            "log_k11": self.log_k11,
            "log_k22": self.log_k22,
            "leakage_bound": self.leakage.as_dict(),
            "imax_terms": dict(self.imax_terms),
            "smoothing": self.smoothing,
            "decoding_order": list(self.decoding_order),
        }


# the D_max terms (kind, part_a, part_b, cond) the secrecy report reads: the
# leakage to Z of two sub-groupings, then of all four messages
SECRECY_TERMS = tuple(("max", part_a, ("Z",), None) for part_a in
                      (("X10", "X11", "X20"), ("X10", "X20", "X22"), HK_REGISTERS))

# the randomizer plan's D_max term of each block, in decoding order, with the
# block's label and whether it carries the O(1) constant
PLAN_TERMS = {
    ("max", ("X10",), ("Z",), None): ("X10:Z", False),
    ("max", ("X20",), ("Z", "X10"), None): ("X20:Z,X10", True),
    ("max", ("X11",), ("Z", "X10", "X20"), None): ("X11:Z,X10,X20", True),
    ("max", ("X22",), ("Z", "X10", "X11", "X20"), None): ("X22:Z,X10,X11,X20", True),
}


def _imax_terms(state: CQState, params: ToleranceParams, smoothing: str, terms: Iterable[tuple]) -> dict:
    """Each unconditional ``D_max`` term of ``terms`` solved on ``state``, keyed by the term."""
    return {term: smooth_max_mutual_info(state, term[1], term[2], params.eta, smoothing)
            for term in terms}


def randomizer_plan(
    state: CQState, params: ToleranceParams, smoothing: str = "none"
) -> RandomizerPlan:
    """Size each junk block from its smoothed max mutual information.

    Each block needs at least the cited max-information term plus
    log2(3/eps'^3) - (1/4) log2(delta'); the three later blocks in the
    decoding order additionally carry the configurable O(1) constant.
    Results are clamped at zero.
    """
    _require_hk_state(state)
    return plan_from_terms(params, smoothing, _imax_terms(state, params, smoothing, PLAN_TERMS))


def plan_from_terms(params: ToleranceParams, smoothing: str, solved: Mapping[tuple, float]) -> RandomizerPlan:
    """:func:`randomizer_plan` from the values ``solved[term]`` of the :data:`PLAN_TERMS`."""
    base = math.log2(3.0 / params.eps_prime**3) - 0.25 * math.log2(params.delta_prime)
    values, sizes = {}, {}
    for term, (label, extra) in PLAN_TERMS.items():
        value = float(solved[term])
        values[label] = value
        size = value + base + (params.big_o_constant if extra else 0.0)
        sizes[term[1][0]] = max(0.0, size)
    return RandomizerPlan(
        log_k10=sizes["X10"],
        log_k20=sizes["X20"],
        log_k11=sizes["X11"],
        log_k22=sizes["X22"],
        leakage=leakage_bound(params.delta_prime),
        imax_terms=tuple(sorted(values.items())),
        smoothing=smoothing,
    )


@dataclass(frozen=True)
class SecrecyCondition:
    label: str
    part_a: tuple[str, ...]
    value: float
    threshold: float
    passed: bool


@dataclass(frozen=True)
class SecrecyReport:
    conditions: tuple[SecrecyCondition, ...]
    eta: float
    smoothing: str

    def all_pass(self) -> bool:
        return all(c.passed for c in self.conditions)

    def as_dict(self) -> dict:
        return {
            "eta": self.eta,
            "smoothing": self.smoothing,
            "conditions": [
                {
                    "label": c.label,
                    "part_a": list(c.part_a),
                    "value": c.value,
                    "threshold": c.threshold,
                    "pass": c.passed,
                }
                for c in self.conditions
            ],
        }


def _require_hk_state(state: CQState) -> None:
    if not set(HK_REGISTERS).issubset(state.conds.classical_names):
        raise OperatorError(
            f"expected the four split-message registers, got {state.conds.classical_names}"
        )
    if "Z" not in state.conds.quantum_layout.names:
        raise OperatorError("state carries no eavesdropper register Z")


def within_threshold(value: float, threshold: float) -> bool:
    """A leakage condition passes when its value is at most threshold + ``THRESHOLD_SLACK``."""
    return bool(value <= threshold + THRESHOLD_SLACK)


def secrecy_check(
    state: CQState,
    params: ToleranceParams,
    thresholds: Sequence[float] = (math.inf, math.inf, math.inf),
    smoothing: str = "none",
) -> SecrecyReport:
    """Evaluate the leakage conditions against their thresholds.

    The three sub-groupings are checked against ``thresholds`` and the full
    message grouping against ``params.theta``; a condition passes when its
    smoothed max mutual information is :func:`within_threshold`.
    """
    _require_hk_state(state)
    _require_three(thresholds)
    return secrecy_report(params, thresholds, smoothing, _imax_terms(state, params, smoothing, SECRECY_TERMS))


def _require_three(thresholds: Sequence[float]) -> None:
    if len(thresholds) != 3:
        raise ValueError("exactly three sub-grouping thresholds are required")


def secrecy_report(
    params: ToleranceParams, thresholds: Sequence[float], smoothing: str, solved: Mapping[tuple, float]
) -> SecrecyReport:
    """:func:`secrecy_check` from the values ``solved[term]`` of the :data:`SECRECY_TERMS`."""
    _require_three(thresholds)
    sub1, sub2, full = SECRECY_TERMS
    conditions = []
    for label, term, threshold in (("sub1", sub1, thresholds[0]), ("sub2", sub2, thresholds[1]),
                                   ("full", full, thresholds[2]), ("criterion", full, params.theta)):
        value, threshold = float(solved[term]), float(threshold)
        conditions.append(
            SecrecyCondition(label, term[1], value, threshold, within_threshold(value, threshold))
        )
    return SecrecyReport(tuple(conditions), params.eta, smoothing)
