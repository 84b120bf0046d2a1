import json
import math
from pathlib import Path

import numpy as np
import pytest

from oneshot_secrecy.channel import (
    HK_REGISTERS,
    ChannelSpec,
    SplitSpec,
    bundled_path,
    control_state_hk,
    load_channel,
    load_distribution,
    uniform_hk,
)
from oneshot_secrecy.entropic import ToleranceParams
from oneshot_secrecy.operators import OperatorError, RegisterLayout
from oneshot_secrecy.regions import PenaltyMode, theorem2_region
from oneshot_secrecy.secrecy import (
    VACUITY_THRESHOLD,
    leakage_bound,
    randomizer_plan,
    secrecy_check,
)
from oneshot_secrecy.states import CQConditionals, CQState

PARAMS = ToleranceParams(eps=0.25, eps_prime=0.1, delta=0.01, delta_prime=0.2)


def split_channel_with_z(z_of_parts, dz):
    """Four binary split parts, scalar receivers, Z prepared per part values."""
    parts = ("0", "1")
    symbols = tuple(c + p for c in parts for p in parts)
    states = {}
    for x1 in symbols:
        for x2 in symbols:
            z = z_of_parts(int(x1[0]), int(x1[1]), int(x2[0]), int(x2[1]))
            states[(x1, x2)] = np.kron(np.kron(np.eye(1), np.eye(1)), z).astype(complex)
    table = {(c, p): c + p for c in parts for p in parts}
    return ChannelSpec(
        "custom-split",
        {"X1": symbols, "X2": symbols},
        {"Y1": 1, "Y2": 1, "Z": dz},
        states,
        {"X1": SplitSpec((parts, parts), table), "X2": SplitSpec((parts, parts), dict(table))},
    )


def basis(dim, idx):
    m = np.zeros((dim, dim), dtype=complex)
    m[idx, idx] = 1.0
    return m


def test_leakage_bound_examples():
    lb = leakage_bound(0.2)
    assert abs(lb.value - 49.07) <= 0.01
    assert lb.vacuous
    tiny = leakage_bound(1e-16)
    assert abs(tiny.value - 0.6) <= 1e-12
    assert not tiny.vacuous
    assert leakage_bound(0.1).value < leakage_bound(0.2).value
    with pytest.raises(ValueError):
        leakage_bound(0.0)


def test_leakage_vacuity_threshold():
    assert abs(VACUITY_THRESHOLD - (1.0 / 30.0) ** 8) <= 1e-24
    below = VACUITY_THRESHOLD * (1 - 1e-9)
    above = VACUITY_THRESHOLD * (1 + 1e-9)
    assert not leakage_bound(below).vacuous
    assert leakage_bound(above).vacuous


def test_randomizer_plan_trivial_z(xor_channel):
    state = control_state_hk(xor_channel, uniform_hk(xor_channel))
    plan = randomizer_plan(state, PARAMS)
    expected = math.log2(3000.0) - 0.25 * math.log2(0.2)
    for value in (plan.log_k10, plan.log_k20, plan.log_k11, plan.log_k22):
        assert abs(value - expected) <= 1e-9
        assert value >= math.log2(3 / 0.1**3) - 0.25 * math.log2(0.2) - 1e-9
    assert plan.leakage.vacuous
    assert plan.decoding_order == ("m10", "m20", "m11", "m22")


def test_randomizer_plan_copy_costs_one_bit():
    chan = split_channel_with_z(lambda c1, p1, c2, p2: basis(2, c1), 2)
    state = control_state_hk(chan, uniform_hk(chan))
    plan = randomizer_plan(state, PARAMS)
    base = math.log2(3000.0) - 0.25 * math.log2(0.2)
    assert abs(plan.log_k10 - (base + 1.0)) <= 1e-9
    assert abs(plan.log_k20 - base) <= 1e-9  # Z carries nothing beyond X10
    assert abs(plan.log_k11 - base) <= 1e-9
    assert abs(plan.log_k22 - base) <= 1e-9


def test_randomizer_plan_big_o_applies_to_three_blocks():
    chan = split_channel_with_z(lambda *parts: np.eye(2) / 2, 2)
    state = control_state_hk(chan, uniform_hk(chan))
    with_o = randomizer_plan(
        state, ToleranceParams(eps=0.25, eps_prime=0.1, delta_prime=0.2, big_o_constant=2.0)
    )
    plain = randomizer_plan(state, PARAMS)
    assert abs(with_o.log_k10 - plain.log_k10) <= 1e-12
    for a, b in (
        (with_o.log_k20, plain.log_k20),
        (with_o.log_k11, plain.log_k11),
        (with_o.log_k22, plain.log_k22),
    ):
        assert abs(a - b - 2.0) <= 1e-12


def test_randomizer_plan_smoothing_monotone_in_eta():
    chan = split_channel_with_z(lambda c1, p1, c2, p2: basis(2, c1), 2)
    state = control_state_hk(chan, uniform_hk(chan))
    wide = ToleranceParams(eps=0.25, eps_prime=0.05, delta_prime=0.5)  # eta = 0.45
    narrow = ToleranceParams(eps=0.25, eps_prime=0.45, delta_prime=0.5)  # eta = 0.05
    p_wide = randomizer_plan(state, wide, smoothing="diagonal-scan")
    p_narrow = randomizer_plan(state, narrow, smoothing="diagonal-scan")
    base_wide = math.log2(3 / 0.05**3) - 0.25 * math.log2(0.5)
    base_narrow = math.log2(3 / 0.45**3) - 0.25 * math.log2(0.5)
    # compare the information terms alone: shrinking the ball never helps
    assert p_narrow.log_k10 - base_narrow >= p_wide.log_k10 - base_wide - 1e-9


def test_secrecy_check_trivial_and_full_copy(xor_channel):
    state = control_state_hk(xor_channel, uniform_hk(xor_channel))
    report = secrecy_check(state, PARAMS, (0.01, 0.01, 0.01))
    assert report.all_pass()
    assert all(abs(c.value) <= 1e-9 for c in report.conditions)

    leaky = split_channel_with_z(
        lambda c1, p1, c2, p2: basis(16, ((c1 * 2 + p1) * 2 + c2) * 2 + p2), 16
    )
    state = control_state_hk(leaky, uniform_hk(leaky))
    strict = secrecy_check(
        state, ToleranceParams(eps=0.25, eps_prime=0.1, delta_prime=0.2, theta=3.9)
    )
    by_label = {c.label: c for c in strict.conditions}
    assert abs(by_label["full"].value - 4.0) <= 1e-9
    assert not by_label["criterion"].passed
    assert abs(by_label["sub1"].value - 3.0) <= 1e-9
    loose = secrecy_check(state, ToleranceParams(eps=0.25, theta=math.inf))
    assert loose.all_pass()
    # full grouping dominates every sub-grouping on classical instances
    assert by_label["full"].value >= by_label["sub1"].value - 1e-9
    assert by_label["full"].value >= by_label["sub2"].value - 1e-9


def test_secrecy_check_requires_hk_state(diag_channel):
    from oneshot_secrecy.channel import control_state_t1, uniform_t1

    state = control_state_t1(diag_channel, uniform_t1(diag_channel))
    with pytest.raises(OperatorError):
        secrecy_check(state, PARAMS)
    # the four split registers, and no Z
    no_z = CQState(CQConditionals(HK_REGISTERS, (1, 1, 1, 1), RegisterLayout(("Y1",), (1,)),
                                  np.ones((1, 1, 1, 1, 1, 1))), np.ones((1, 1, 1, 1)))
    with pytest.raises(OperatorError, match="^state carries no eavesdropper register Z$"):
        secrecy_check(no_z, PARAMS)
    with pytest.raises(ValueError):
        secrecy_check(
            control_state_hk(
                split_channel_with_z(lambda *p: np.eye(2) / 2, 2),
                uniform_hk(split_channel_with_z(lambda *p: np.eye(2) / 2, 2)),
            ),
            PARAMS,
            thresholds=(1.0,),
        )


DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize("channel_path, dist_path, smoothing", [
    (bundled_path("xor_split.json"), bundled_path("uniform_hk.json"), "none"),
    (bundled_path("xor_split.json"), bundled_path("uniform_hk.json"), "diagonal-scan"),
    # non-commuting, so its terms take the eigendecomposition path (the scan needs commuting inputs)
    (DATA / "nc_small_split.json", DATA / "nc_small_split_dist.json", "none"),
    # classical, with values the scan moves
    (DATA / "classical_split.json", DATA / "classical_split_dist.json", "diagonal-scan"),
])
def test_state_entries_match_the_region_reports(channel_path, dist_path, smoothing):
    """``secrecy_check`` and ``randomizer_plan`` on a state give a t2 region's report and plan, byte for byte."""
    channel, dist = load_channel(channel_path), load_distribution(dist_path)
    state = control_state_hk(channel, dist)
    meta = theorem2_region(channel, dist, PARAMS, PenaltyMode("off"), smoothing).meta
    for entry, key in ((secrecy_check(state, PARAMS, smoothing=smoothing), "secrecy"),
                       (randomizer_plan(state, PARAMS, smoothing), "randomizer_plan")):
        assert json.dumps(entry.as_dict(), sort_keys=True) == json.dumps(meta[key], sort_keys=True)
