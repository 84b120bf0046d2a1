import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oneshot_secrecy import cli, entropic, regions
from oneshot_secrecy.channel import (
    ChannelSpec,
    bundled_path,
    InputDistribution,
    SplitSpec,
    control_state_hk,
    control_state_t1,
    load_channel,
    uniform_hk,
    uniform_t1,
)
from oneshot_secrecy.entropic import ConvergenceError, ToleranceParams
from oneshot_secrecy.operators import DET_TOL, FEAS_TOL, OperatorError, partial_trace_matrix, permute_registers_matrix
from oneshot_secrecy.regions import (
    PenaltyMode,
    RatePolytope,
    _grid_count,
    _grid_radii,
    _simplex_grid,
    conjecture_region,
    fourier_motzkin,
    hk_nosecrecy_region,
    hk_region_via_projection,
    minimal_2d,
    qmac_inner_bound,
    sweep_union,
    theorem1_region,
    theorem2_region,
    vertices_2d,
)
from conftest import rand_density
from util import (
    _enumerate_masked,
    _prune_rows,
    convex_hull_2d,
    degraded,
    drawn_channels,
    drawn_distributions,
    enumerate_vertices_nd,
    fourier_motzkin_rowwise,
    hk_distributions,
    minimal_2d_masked,
    minimal_2d_rebuild,
    nc_small_unsplit,
    one_point_terms,
    point_in_hull_2d,
    polytope_from_arrays,
    qubit_maps,
    region_bounds,
    t1_distributions,
    vertices_2d_pairwise,
)

OFF = PenaltyMode("off")
PAPER = PenaltyMode("paper")
PARAMS = ToleranceParams(eps=0.25, eps_prime=0.1, delta=0.01, delta_prime=0.2)
S_VAL = math.log2(4.0 / 3.0)          # divergence floor at eps = 0.25
A_VAL = 1.0 + S_VAL                   # one revealed bit on top of the floor


def basis_state(dim, index):
    m = np.zeros((dim, dim), dtype=complex)
    m[index, index] = 1.0
    return m


def diag_channel_with_z(z_states):
    """Binary diagonal channel whose eavesdropper state per (x1, x2) is given."""
    states = {}
    dz = z_states[("0", "0")].shape[0]
    for i1, x1 in enumerate("01"):
        for i2, x2 in enumerate("01"):
            m = np.kron(np.kron(basis_state(2, i1), basis_state(2, i2)), z_states[(x1, x2)])
            states[(x1, x2)] = m
    return ChannelSpec(
        "custom", {"X1": ("0", "1"), "X2": ("0", "1")}, {"Y1": 2, "Y2": 2, "Z": dz}, states
    )


# ---------------------------------------------------------------------------
# qmac inner bound
# ---------------------------------------------------------------------------


def test_qmac_two_sender_rows(diag_channel):
    state = control_state_t1(diag_channel, uniform_t1(diag_channel))
    poly = qmac_inner_bound(state, ["X1", "X2"], "Y1", 0.25, OFF)
    assert [r.tag for r in poly.rows] == ["qmac:R1", "qmac:R2", "qmac:R1+R2"]
    assert abs(poly.row("qmac:R1").bound - 1.415037) <= 1e-6
    assert abs(poly.row("qmac:R2").bound - 0.415037) <= 1e-6
    assert abs(poly.row("qmac:R1+R2").bound - 1.415037) <= 1e-6


def test_qmac_paper_penalty_shift(diag_channel):
    state = control_state_t1(diag_channel, uniform_t1(diag_channel))
    off = qmac_inner_bound(state, ["X1", "X2"], "Y1", 0.25, OFF)
    pap = qmac_inner_bound(state, ["X1", "X2"], "Y1", 0.25, PAPER)
    for r_off, r_pap in zip(off.rows, pap.rows):
        assert abs((r_pap.bound - r_off.bound) - (math.log2(0.25) - 2.0)) <= 1e-12
    enum = vertices_2d(pap)
    assert enum.degenerate and enum.vertices == [(0.0, 0.0)]


def test_qmac_point_mass_inputs(diag_channel):
    dist = InputDistribution(
        kind="t1", q=np.array([1.0]), x1_given_q=np.array([[1.0, 0.0]]),
        x2_given_q=np.array([[0.0, 1.0]]),
    )
    state = control_state_t1(diag_channel, dist)
    poly = qmac_inner_bound(state, ["X1", "X2"], "Y1", 0.25, OFF)
    for r in poly.rows:
        assert abs(r.bound - math.log2(1 / 0.75)) <= 1e-9


def test_qmac_three_sender_rows(xor_channel):
    state = control_state_hk(xor_channel, uniform_hk(xor_channel))
    poly = qmac_inner_bound(state, ["X10", "X11", "X20"], "Y1", 0.25, OFF)
    assert len(poly.rows) == 7
    assert poly.variables == ("R10", "R11", "R20")
    with pytest.raises(OperatorError):
        qmac_inner_bound(state, ["X10"], "Y1", 0.25, OFF)


# ---------------------------------------------------------------------------
# theorem-1 region
# ---------------------------------------------------------------------------


def test_theorem1_rows_and_vertices(diag_channel):
    poly = theorem1_region(diag_channel, uniform_t1(diag_channel), PARAMS, OFF)
    assert len(poly.rows) == 3
    assert abs(poly.row("t1:r1").bound - 0.415037) <= 1e-6
    assert abs(poly.row("t1:r2").bound - 0.415037) <= 1e-6
    assert abs(poly.row("t1:sum").bound - 1.415037) <= 1e-6
    assert sorted(round(v, 6) for v in poly.row("t1:r1").alternatives) == [0.415037, 1.415037]
    enum = vertices_2d(poly)
    assert not enum.degenerate
    assert all(poly.feasible(v) for v in enum.vertices)


def test_theorem1_paper_penalties_degenerate(diag_channel):
    poly = theorem1_region(diag_channel, uniform_t1(diag_channel), PARAMS, PAPER)
    expected = math.log2(0.25) - 1 - math.log2(3 / 0.1**3) + 0.25 * math.log2(0.01)
    assert abs(poly.row("t1:r1").penalty - expected) <= 1e-9
    enum = vertices_2d(poly)
    assert enum.degenerate and enum.vertices == [(0.0, 0.0)]


def test_submac_matches_qmac_with_trivial_eavesdropper(diag_channel):
    """With Z independent of the inputs, no sub-channel row pays for leakage.

    A ``t1`` row keeps one alternative per receiver, the decoding term of
    that receiver's sub-channel, which is its qmac row; the row's bound is
    then the worse receiver's qmac bound.
    """
    state = control_state_t1(diag_channel, uniform_t1(diag_channel))
    poly = theorem1_region(diag_channel, uniform_t1(diag_channel), PARAMS, OFF)
    qmacs = [qmac_inner_bound(state, ["X1", "X2"], y, 0.25, OFF) for y in ("Y1", "Y2")]
    for row, *per_receiver in zip(poly.rows, *(qm.rows for qm in qmacs)):
        bounds = [r.bound for r in per_receiver]
        assert np.max(np.abs(np.subtract(row.alternatives, bounds))) <= 1e-9
        assert abs(row.bound - min(bounds)) <= 1e-9
    assert abs(poly.row("t1:r1").alternatives[0] - 1.415037) <= 1e-6


def test_submac_eavesdropper_copy_costs_one_bit():
    """The leakage term X1:Z|Q does not depend on the receiver, so the R1 row loses one bit."""
    trivial = diag_channel_with_z({k: np.eye(2, dtype=complex) / 2 for k in
                                   (("0", "0"), ("0", "1"), ("1", "0"), ("1", "1"))})
    copying = diag_channel_with_z({(x1, x2): basis_state(2, int(x1))
                                   for x1 in "01" for x2 in "01"})
    rows = {}
    for name, chan in (("trivial", trivial), ("copy", copying)):
        rows[name] = theorem1_region(chan, uniform_t1(chan), PARAMS, OFF)
    drop = rows["trivial"].row("t1:r1").bound - rows["copy"].row("t1:r1").bound
    assert abs(drop - 1.0) <= 1e-9


def test_theorem1_symmetry(diag_channel):
    poly = theorem1_region(diag_channel, uniform_t1(diag_channel), PARAMS, OFF)
    assert abs(poly.row("t1:r1").bound - poly.row("t1:r2").bound) <= 1e-9


def test_theorem1_delta_source_switch(diag_channel):
    a = theorem1_region(diag_channel, uniform_t1(diag_channel), PARAMS, PAPER, delta_source="delta")
    b = theorem1_region(
        diag_channel, uniform_t1(diag_channel), PARAMS, PAPER, delta_source="delta-prime"
    )
    shift = 0.25 * (math.log2(PARAMS.delta_prime) - math.log2(PARAMS.delta))
    assert abs((b.row("t1:r1").bound - a.row("t1:r1").bound) - shift) <= 1e-9


@pytest.mark.parametrize("penalties", [OFF, PAPER])
def test_theorem1_rejects_an_unknown_delta_source(diag_channel, penalties):
    """A bad ``delta_source`` is refused in either penalty mode, though the off mode reads no delta."""
    with pytest.raises(ValueError, match=r"^delta_source must be one of \('delta', 'delta-prime'\), got 'bogus'$"):
        theorem1_region(diag_channel, uniform_t1(diag_channel), PARAMS, penalties, delta_source="bogus")


@pytest.mark.parametrize("channel", ["diag_channel", "xor_channel"])
def test_sweep_rejects_an_unknown_selector_first(request, channel):
    """A selector outside ``REGION_THEOREMS`` gets ``region_builder``'s error, on a split channel or not."""
    with pytest.raises(ValueError, match=r"^unknown theorem selector 'qmac'$"):
        sweep_union(request.getfixturevalue(channel), "qmac", PARAMS, OFF, grid=2, rays=5)


def test_theorem1_penalty_mode_difference(diag_channel):
    off = theorem1_region(diag_channel, uniform_t1(diag_channel), PARAMS, OFF)
    pap = theorem1_region(diag_channel, uniform_t1(diag_channel), PARAMS, PAPER)
    for r_off, r_pap in zip(off.rows, pap.rows):
        assert r_off.coeffs == r_pap.coeffs
        assert abs((r_off.bound - r_pap.bound) + r_pap.penalty) <= 1e-9


def test_theorem1_with_time_sharing(diag_channel):
    # two time-sharing values: one uniform block, one point-mass block
    dist = InputDistribution(
        kind="t1",
        q=np.array([0.6, 0.4]),
        x1_given_q=np.array([[0.5, 0.5], [1.0, 0.0]]),
        x2_given_q=np.array([[0.5, 0.5], [0.0, 1.0]]),
    )
    poly = theorem1_region(diag_channel, dist, PARAMS, OFF)
    # the conditional quantity may drop the worse time-sharing atom only when
    # its mass fits in the smoothing ball; at eps = 0.25 (mass cap 0.0625)
    # neither atom may be dropped, so every row is a min over both blocks
    uniform_rows = theorem1_region(diag_channel, uniform_t1(diag_channel), PARAMS, OFF)
    point = InputDistribution(
        kind="t1", q=np.array([1.0]), x1_given_q=np.array([[1.0, 0.0]]),
        x2_given_q=np.array([[0.0, 1.0]]),
    )
    point_rows = theorem1_region(diag_channel, point, PARAMS, OFF)
    for tag in ("t1:r1", "t1:r2", "t1:sum"):
        expected = min(uniform_rows.row(tag).bound, point_rows.row(tag).bound)
        assert abs(poly.row(tag).bound - expected) <= 1e-9
    # with a huge ball the light atom is dropped and the uniform block decides
    wide = ToleranceParams(eps=0.7, eps_prime=0.1, delta=0.01, delta_prime=0.2)
    poly_wide = theorem1_region(diag_channel, dist, wide, OFF)
    uniform_wide = theorem1_region(diag_channel, uniform_t1(diag_channel), wide, OFF)
    for tag in ("t1:r1", "t1:sum"):
        assert abs(poly_wide.row(tag).bound - uniform_wide.row(tag).bound) <= 1e-9


def test_region_monotone_in_eavesdropper_strength(diag_channel):
    # Z interpolates from constant to a full copy of x1
    prev = None
    for lam in (0.0, 0.3, 0.7, 1.0):
        z_states = {
            (x1, x2): (1 - lam) * np.eye(2, dtype=complex) / 2 + lam * basis_state(2, int(x1))
            for x1 in "01" for x2 in "01"
        }
        chan = diag_channel_with_z(z_states)
        poly = theorem1_region(chan, uniform_t1(chan), PARAMS, OFF)
        bounds = [r.bound for r in poly.rows]
        if prev is not None:
            assert all(b <= p + 1e-9 for b, p in zip(bounds, prev))
        prev = bounds


# D_H on pure conditionals moves by up to about 1e-9 between states that differ by rounding
DATA_PROCESSING_TOL = 1e-8


@pytest.mark.parametrize("theorem, register", [("t1", "Z"), ("t2", "Z"), ("conjecture", "Z"),
                                               ("t2", "Y1"), ("conjecture", "Y1"), ("hk-nosecrecy", "Y1")])
@settings(max_examples=25)
@given(data=st.data())
def test_region_rows_obey_data_processing(theorem, register, data):
    """On drawn non-commuting channels, penalties off: a map on Z can only lower each leakage term (a
    ``D_max`` information on Z), so it may only raise each row bound, and a map on Y1 can only lower each
    decoding term (a ``D_H`` information on a receiver's output), so it may only lower each row bound.
    ``t1`` binds a row to the receiver of the smaller first term, which a map on Y1 can switch, so only its
    Z side holds row by row."""
    channel = data.draw(drawn_channels(split=theorem != "t1"))
    dist = data.draw(drawn_distributions(channel))
    build = regions.region_builder(theorem)
    before = build(channel, dist, PARAMS, OFF).rows
    after = build(degraded(channel, register, data.draw(qubit_maps())), dist, PARAMS, OFF).rows
    sign = 1.0 if register == "Z" else -1.0
    for row, moved in zip(before, after, strict=True):
        assert sign * (moved.bound - row.bound) >= -DATA_PROCESSING_TOL, row.tag


# t2's two sub-channels are built as mirrors of each other, so swapping the senders only reorders operator bases
SENDER_MIRROR_TOL = 1e-9


def _trivial_z(channel):
    """``channel`` with its eavesdropper output traced out, leaving ``Z`` one-dimensional."""
    layout = channel.quantum_layout
    states = {pair: partial_trace_matrix(rho, layout, ("Y1", "Y2")) for pair, rho in channel.states.items()}
    return ChannelSpec(channel.name, channel.inputs, dict(channel.outputs, Z=1), states, channel.splits)


def _sender_mirror(channel, dist):
    """``channel`` and ``dist`` with the senders swapped: X1 with X2, Y1 with Y2, and the marginals with them."""
    layout = channel.quantum_layout
    states = {(x2, x1): permute_registers_matrix(rho, layout, ("Y2", "Y1", "Z"))[0]
              for (x1, x2), rho in channel.states.items()}
    mirror = ChannelSpec(channel.name, {"X1": channel.inputs["X2"], "X2": channel.inputs["X1"]},
                         dict(channel.outputs, Y1=channel.outputs["Y2"], Y2=channel.outputs["Y1"]), states,
                         {"X1": channel.splits["X2"], "X2": channel.splits["X1"]})
    swap = {"X10": "X20", "X11": "X22", "X20": "X10", "X22": "X11"}
    return mirror, InputDistribution("hk", marginals={reg: dist.marginals[swap[reg]] for reg in swap})


@settings(max_examples=8)
@given(data=st.data())
def test_theorem2_maps_onto_itself_under_the_sender_mirror(data):
    """Swapping the senders maps the ``t2`` region onto itself with R1 and R2 swapped.

    On drawn split channels with a trivial ``Z``, penalties off: row ``k``
    of each sub-channel of the mirrored channel has the bound of row ``k``
    of the other sub-channel, with its rate coefficients swapped.  A
    sub-channel bound to the wrong receiver misses by tenths of a bit.
    ``hk-nosecrecy`` and ``conjecture`` are left out: rows 5 and 6 of their
    split-message table are not each other's mirror.
    """
    channel = _trivial_z(data.draw(drawn_channels(split=True)))
    dist = data.draw(drawn_distributions(channel))
    rows = {row.tag: row for row in theorem2_region(channel, dist, PARAMS, OFF).rows}
    mirrored = theorem2_region(*_sender_mirror(channel, dist), PARAMS, OFF).rows
    assert len(mirrored) == len(rows) == 18
    for row in mirrored:
        side, k = row.tag.split(":")[1:]
        twin = rows[f"t2:{'s2' if side == 's1' else 's1'}:{k}"]
        assert row.coeffs == twin.coeffs[::-1], row.tag
        assert abs(row.bound - twin.bound) <= SENDER_MIRROR_TOL, row.tag


# ---------------------------------------------------------------------------
# split-message regions
# ---------------------------------------------------------------------------


def test_hk_region_values_on_xor(xor_channel):
    poly = hk_nosecrecy_region(xor_channel, uniform_hk(xor_channel), 0.25, OFF)
    expected = {
        "hk:1": A_VAL, "hk:2": A_VAL + S_VAL, "hk:3": A_VAL, "hk:4": A_VAL + S_VAL,
        "hk:5": A_VAL + S_VAL, "hk:6": A_VAL + S_VAL, "hk:7": 2 * A_VAL,
        "hk:8": 2 * A_VAL + S_VAL, "hk:9": 2 * A_VAL + S_VAL,
    }
    assert len(poly.rows) == 9
    for tag, value in expected.items():
        assert abs(poly.row(tag).bound - value) <= 1e-9


def test_hk_region_printed_penalties(xor_channel):
    off = hk_nosecrecy_region(xor_channel, uniform_hk(xor_channel), 0.25, OFF)
    pap = hk_nosecrecy_region(xor_channel, uniform_hk(xor_channel), 0.25, PAPER)
    for r_off, r_pap in zip(off.rows, pap.rows):
        k = len(r_off.terms)
        assert abs((r_pap.bound - r_off.bound) - k * (math.log2(0.25) - 2.0)) <= 1e-9


def test_hk_degenerate_commons(diag_split_channel):
    poly = hk_nosecrecy_region(
        diag_split_channel, uniform_hk(diag_split_channel), 0.25, OFF
    )
    assert abs(poly.row("hk:1").bound - 1.415037) <= 1e-6
    assert abs(poly.row("hk:3").bound - 1.415037) <= 1e-6
    # symmetric instance gives a symmetric region
    assert abs(poly.row("hk:2").bound - poly.row("hk:4").bound) <= 1e-9


def test_hk_matches_projection_pipeline(xor_channel):
    dist = uniform_hk(xor_channel)
    printed = minimal_2d(hk_nosecrecy_region(xor_channel, dist, 0.25, OFF))
    projected = minimal_2d(hk_region_via_projection(xor_channel, dist, 0.25, OFF))

    def canon(poly):
        out = []
        for r in poly.rows:
            scale = max(abs(c) for c in r.coeffs)
            out.append((tuple(round(c / scale, 9) for c in r.coeffs), round(r.bound / scale, 6)))
        return sorted(out)

    assert canon(printed) == canon(projected)
    v1 = vertices_2d(printed).vertices
    v2 = vertices_2d(projected).vertices
    assert len(v1) == len(v2)
    assert all(abs(a[0] - b[0]) <= 1e-9 and a[1] - b[1] <= 1e-9 for a, b in zip(v1, v2))


def test_conjecture_trivial_z_matches_hk(xor_channel):
    dist = uniform_hk(xor_channel)
    conj = conjecture_region(xor_channel, dist, PARAMS, OFF)
    hk = hk_nosecrecy_region(xor_channel, dist, 0.25, OFF)
    assert len(conj.rows) == 9
    for rc, rh in zip(conj.rows, hk.rows):
        mi_c = sum(t.coefficient * t.value for t in rc.terms if t.kind == "ht")
        assert abs(mi_c - rh.mi_part()) <= 1e-6
        imax = sum(abs(t.value) for t in rc.terms if t.kind == "max")
        assert imax <= 1e-9
    assert conj.meta["secrecy"]["conditions"][0]["pass"]


def test_conjecture_degenerate_commons_collapse(diag_split_channel):
    conj = conjecture_region(diag_split_channel, uniform_hk(diag_split_channel), PARAMS, OFF)
    floor = math.log2(1 / 0.75)
    # common-part terms (part_a = X10 or X20, singleton alphabets) hit the floor
    seen = 0
    for row in conj.rows:
        for t in row.terms:
            if t.kind == "ht" and t.part_a in (("X10",), ("X20",)):
                assert abs(t.value - floor) <= 1e-9
                seen += 1
    assert seen >= 2


def test_conjecture_within_hk_when_penalties_match(xor_channel):
    dist = uniform_hk(xor_channel)
    for pen in (OFF, PAPER):
        conj = conjecture_region(xor_channel, dist, PARAMS, pen)
        hk = hk_nosecrecy_region(xor_channel, dist, 0.25, pen)
        # row-wise containment: same directions, secrecy bound never larger
        for rc, rh in zip(conj.rows, hk.rows):
            assert rc.coeffs == rh.coeffs
            assert rc.bound <= rh.bound + 1e-9
    conj_off = conjecture_region(xor_channel, dist, PARAMS, OFF)
    hk_off = hk_nosecrecy_region(xor_channel, dist, 0.25, OFF)
    for v in vertices_2d(conj_off).vertices:
        assert hk_off.feasible(v)


def test_theorem2_trivial_z_rows(xor_channel):
    dist = uniform_hk(xor_channel)
    poly = theorem2_region(xor_channel, dist, PARAMS, OFF)
    assert len(poly.rows) == 18
    state = control_state_hk(xor_channel, dist)
    from oneshot_secrecy.entropic import ht_mutual_info

    for row in poly.rows:
        mi = sum(t.coefficient * t.value for t in row.terms if t.kind == "ht")
        redo = sum(
            t.coefficient * ht_mutual_info(state, list(t.part_a), list(t.part_b), 0.25)
            for t in row.terms
            if t.kind == "ht"
        )
        assert abs(mi - redo) <= 1e-6
        assert abs(row.bound - mi) <= 1e-9  # trivial Z: every leakage term vanishes
    # mirrored system is symmetric on this symmetric channel
    v = vertices_2d(poly)
    pts = set((round(a, 6), round(b, 6)) for a, b in v.vertices)
    assert pts == set((b, a) for a, b in pts)


def test_theorem2_evaluates_each_max_information_once(xor_channel, monkeypatch):
    """The table, the randomizer plan and the secrecy report ask for their terms in one call."""
    calls, batches = [], []
    real = regions.grid_terms

    def counting(conds, probs, terms, *args):
        batches.append(len(terms))
        calls.extend((tuple(part_a), tuple(part_b)) for kind, part_a, part_b, *_ in terms if kind == "max")
        return real(conds, probs, terms, *args)

    monkeypatch.setattr(regions, "grid_terms", counting)
    theorem2_region(xor_channel, uniform_hk(xor_channel), PARAMS, OFF)
    assert len(calls) == len(set(calls)) == 12
    assert len(batches) == 1


def test_theorem1_plans_the_rows_of_each_conditioning_register_once(diag_channel, monkeypatch):
    """A grid's conditional terms share one row plan per register: one plan per region, one per sweep."""
    calls = []
    real = entropic._cond_rows

    def counting(conds, probs, cond):
        calls.append((len(probs), cond))
        return real(conds, probs, cond)

    conditional = []
    real_terms = regions.grid_terms

    def terms_given(conds, probs, terms, *args):
        conditional.extend(cond for _, _, _, cond, _ in terms if cond is not None)
        return real_terms(conds, probs, terms, *args)

    monkeypatch.setattr(entropic, "_cond_rows", counting)
    monkeypatch.setattr(regions, "grid_terms", terms_given)
    theorem1_region(diag_channel, uniform_t1(diag_channel), PARAMS, OFF)
    assert conditional == ["Q"] * 9
    assert calls == [(1, "Q")]
    calls.clear()
    result = sweep_union(diag_channel, "t1", PARAMS, OFF, grid=2, q_size=2, rays=5, max_evals=100)
    assert calls == [(result.evaluations, "Q")]


def test_theorem2_full_copy_z_degenerate():
    states = {}
    for i1, x1 in enumerate("01"):
        for i2, x2 in enumerate("01"):
            z = basis_state(4, 2 * i1 + i2)
            states[(x1, x2)] = np.kron(np.kron(basis_state(2, i1), basis_state(2, i2)), z)
    splits = {
        "X1": SplitSpec((("0",), ("0", "1")), {("0", "0"): "0", ("0", "1"): "1"}),
        "X2": SplitSpec((("0",), ("0", "1")), {("0", "0"): "0", ("0", "1"): "1"}),
    }
    chan = ChannelSpec(
        "full-copy", {"X1": ("0", "1"), "X2": ("0", "1")}, {"Y1": 2, "Y2": 2, "Z": 4},
        states, splits,
    )
    poly = theorem2_region(chan, uniform_hk(chan), PARAMS, OFF)
    enum = vertices_2d(poly)
    assert enum.degenerate and enum.vertices == [(0.0, 0.0)]


def test_theorem2_within_conjecture_on_degenerate_split(diag_split_channel):
    dist = uniform_hk(diag_split_channel)
    conj = conjecture_region(diag_split_channel, dist, PARAMS, OFF)
    t2 = theorem2_region(diag_split_channel, dist, PARAMS, OFF)
    for v in vertices_2d(t2).vertices:
        assert conj.feasible(v)


# ---------------------------------------------------------------------------
# Fourier-Motzkin and vertices
# ---------------------------------------------------------------------------


def test_fm_hand_example():
    variables = ("R1", "R10", "R11")
    rows = [
        ((0.0, 1.0, 0.0), 2.0),
        ((0.0, 0.0, 1.0), 3.0),
        ((0.0, 1.0, 1.0), 4.0),
        ((1.0, -1.0, -1.0), 0.0),
        ((-1.0, 1.0, 1.0), 0.0),
    ]
    poly = polytope_from_arrays(variables, rows)
    out = fourier_motzkin(poly, ["R10", "R11"])
    assert out.variables == ("R1",)
    best = min(r.bound / r.coeffs[0] for r in out.rows if r.coeffs[0] > 0)
    assert abs(best - 4.0) <= 1e-9
    # every projected row is valid at R1 = 4 and none cuts below it
    for r in out.rows:
        if r.coeffs[0] > 0:
            assert r.bound / r.coeffs[0] >= 4.0 - 1e-9


def test_fm_eliminate_nothing_is_identity():
    poly = polytope_from_arrays(("A", "B"), [((1.0, 0.0), 1.0), ((1.0, 1.0), 1.5)])
    out = fourier_motzkin(poly, [])
    assert out.variables == ("A", "B")
    assert sorted((r.coeffs, r.bound) for r in out.rows) == sorted(
        (r.coeffs, r.bound) for r in poly.rows
    )


def test_fm_empty_system_propagates():
    poly = polytope_from_arrays(("A", "B"), [((1.0, 1.0), -2.0)])
    partial = fourier_motzkin(poly, ["B"])
    # the projected 1-d system is still empty against the implicit A >= 0
    assert any(r.coeffs == (1.0,) and r.bound < 0 for r in partial.rows)
    empty = fourier_motzkin(poly, ["A", "B"])
    # eliminating everything leaves the explicit infeasibility marker
    assert any(not r.coeffs or max(abs(c) for c in r.coeffs) <= 1e-12 for r in empty.rows)
    assert any(r.bound < 0 for r in empty.rows)


def test_fm_matches_vertex_oracle(rng):
    for trial in range(10):
        n = 4
        a = rng.integers(-3, 4, size=(10, n)).astype(float)
        b = rng.integers(0, 6, size=10).astype(float)
        a = np.vstack([a, np.eye(n)])
        b = np.concatenate([b, np.full(n, 5.0)])
        variables = ("R1", "R2", "W1", "W2")
        poly = polytope_from_arrays(variables, list(zip(a.tolist(), b.tolist())))
        projected = fourier_motzkin(poly, ["W1", "W2"])
        verts = enumerate_vertices_nd(a, b)
        projected_pts = verts[:, :2]
        # every lifted vertex projects into the FM region
        for pt in projected_pts:
            assert projected.feasible(pt, tol=1e-9)
        # every FM vertex lies in the hull of projected lifted vertices
        hull = convex_hull_2d(projected_pts)
        for v in vertices_2d(projected).vertices:
            assert point_in_hull_2d(v, hull, tol=1e-7)


def test_vertices_2d_hand_example():
    poly = polytope_from_arrays(("R1", "R2"), [((1.0, 0.0), 1.0), ((0.0, 1.0), 1.0), ((1.0, 1.0), 1.5)])
    enum = vertices_2d(poly)
    assert enum.vertices == [(0.0, 0.0), (1.0, 0.0), (1.0, 0.5), (0.5, 1.0), (0.0, 1.0)]
    assert not enum.degenerate


def test_vertices_2d_degenerate():
    poly = polytope_from_arrays(("R1", "R2"), [((1.0, 0.0), -1.0), ((0.0, 1.0), 1.0)])
    enum = vertices_2d(poly)
    assert enum.degenerate and enum.vertices == [(0.0, 0.0)]


# a two-variable polytope and a three-variable one, for the argument checks below
SQUARE = polytope_from_arrays(("R1", "R2"), [((1.0, 0.0), 1.0), ((0.0, 1.0), 1.0)])
LIFTED = polytope_from_arrays(("R1", "R2", "W1"), [((1.0, 1.0, -1.0), 1.0)])
# (error, message, call) for argument checks of the module's public functions
ARGUMENT_CHECKS = {
    "row-tag": (KeyError, "no row tagged 'sum'", lambda: SQUARE.row("sum")),
    "penalty-mode": (ValueError, "penalty mode must be one of ('paper', 'off'), got 'loud'",
                     lambda: PenaltyMode("loud")),
    "eliminate": (OperatorError, "cannot eliminate unknown variable 'W2'", lambda: fourier_motzkin(LIFTED, ["W2"])),
    "vertices": (OperatorError, "vertices_2d needs exactly two variables", lambda: vertices_2d(LIFTED)),
    "minimal": (OperatorError, "minimal_2d needs exactly two variables", lambda: minimal_2d(LIFTED)),
    "sweep-grid": (ValueError, "grid resolution must be >= 2",
                   lambda: sweep_union(load_channel(bundled_path("diag_deterministic.json")), "t1", PARAMS,
                                       PenaltyMode("off"), grid=1)),
}


@pytest.mark.parametrize("case", ARGUMENT_CHECKS)
def test_argument_checks(case):
    error, message, call = ARGUMENT_CHECKS[case]
    with pytest.raises(error) as got:
        call()
    assert type(got.value) is error and got.value.args == (message,)


def test_feasible_rejects_a_point_below_zero_beyond_the_tolerance():
    """``feasible`` holds the nonnegativity rows to ``tol`` as it holds every other row."""
    assert SQUARE.feasible([0.5, 0.5]) and SQUARE.feasible([-0.5 * FEAS_TOL, 0.5])
    assert not SQUARE.feasible([-2.0 * FEAS_TOL, 0.5]) and not SQUARE.feasible([0.5, -2.0 * FEAS_TOL])


@pytest.mark.parametrize("slope", [0.3, 1.0])
def test_vertices_2d_unbounded_along_one_ray(slope):
    """The region is the ray R2 = slope * R1, whatever its angle."""
    poly = polytope_from_arrays(("R1", "R2"), [((slope, -1.0), 0.0), ((-slope, 1.0), 0.0)])
    enum = vertices_2d(poly)
    assert enum.unbounded and not enum.degenerate


def test_vertices_2d_random_feasibility(rng):
    for _ in range(10):
        a = rng.uniform(0.1, 1.0, size=(6, 2))
        b = rng.uniform(0.2, 2.0, size=6)
        poly = polytope_from_arrays(("R1", "R2"), list(zip(a.tolist(), b.tolist())))
        enum = vertices_2d(poly)
        av, bv = poly.coeff_matrix()
        for v in enum.vertices:
            assert np.all(av @ np.asarray(v) <= bv + 1e-9)
            # each non-origin vertex is supported by two active constraints
            active = np.sum(np.abs(av @ np.asarray(v) - bv) <= 1e-7) + np.sum(
                np.abs(np.asarray(v)) <= 1e-9
            )
            assert active >= 2


def test_corners_compares_only_with_kept_points():
    """A chain 0.6 FEAS_TOL apart: the middle point is near the first and goes; the last is near only
    the dropped middle one, so it stays."""
    chain = np.array([[1.0, 1.0], [1.0 + 0.6 * FEAS_TOL, 1.0], [1.0 + 1.2 * FEAS_TOL, 1.0]])
    assert np.array_equal(regions._corners(chain[::-1]), chain[[0, 2]])


def test_minimal_2d_keeps_an_empty_system_empty():
    """The ``0 <= -1`` marker survives: dropping it would turn the empty set into a square."""
    poly = polytope_from_arrays(("R1", "R2"), [((1.0, 0.0), 1.0), ((0.0, 1.0), 1.0), ((0.0, 0.0), -1.0)])
    assert vertices_2d(poly).degenerate
    minimal = minimal_2d(poly)
    assert [(r.coeffs, r.bound) for r in minimal.rows] == [((0.0, 0.0), -1.0)]
    enum = vertices_2d(minimal)
    assert enum.degenerate and enum.vertices == [(0.0, 0.0)]


_GRID = st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0])


def _cluster_rows(cx: float, cy: float, t: float, k: float) -> list:
    """Rows whose crossings near ``(cx, cy)`` lie within ``t < FEAS_TOL`` of each other.

    The last row is broken only at the crossing ``(cx + t, cy)``, which
    merges into ``(cx, cy)``, so the merge lets it go."""
    return [((1.0, 0.0), cx), ((0.0, 1.0), cy), ((1.0, 1.0), cx + cy + t), ((k, 1.0), k * cx + cy + 0.25 * k * t)]


def _origin_cluster_rows(t: float) -> list:
    """Rows whose region is a sliver within ``t < FEAS_TOL`` of the origin, which its crossings merge to.

    The last row holds at every crossing of the others but not at the
    origin, so it stays."""
    return [((1.0, 1.0), t), ((-1e6, 0.0), -2 * FEAS_TOL), ((-1e6, -1.0), -2 * FEAS_TOL)]


@st.composite
def _polytope_rows(draw):
    """Rows in (R1, R2) from families that stress the vertex and pruning paths.

    Grid rows repeat, run parallel, are all zero and have negative bounds
    (empty systems, the origin alone); ray pairs leave only the ray
    ``R2 = s R1``; near pairs have ``|det|`` around ``DET_TOL``; clusters put
    crossings within ``FEAS_TOL`` of each other (:func:`_cluster_rows`, one
    of them near the origin, :func:`_origin_cluster_rows`), so the merge
    decides a row.
    """
    rows = []
    for _ in range(draw(st.integers(0, 7))):
        kind = draw(st.sampled_from(["grid", "uniform", "ray", "near", "repeat", "origin", "cluster",
                                     "origin cluster"]))
        if kind == "grid":
            rows.append(((draw(_GRID), draw(_GRID)), draw(st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.0]))))
        elif kind == "uniform":
            coeffs = (draw(st.floats(-2.0, 2.0)), draw(st.floats(-2.0, 2.0)))
            rows.append((coeffs, draw(st.floats(-1.0, 3.0))))
        elif kind == "ray":
            s = draw(st.floats(0.1, 3.0))
            rows += [((s, -1.0), 0.0), ((-s, 1.0), 0.0)]
        elif kind == "near":
            c2, bound = draw(st.floats(0.2, 2.0)), draw(st.floats(0.5, 2.0))
            t = draw(st.floats(0.5, 2.0)) * DET_TOL
            shift = draw(st.one_of(st.just(0.0), st.floats(-1e-3, 1e-3)))
            rows += [((1.0, c2), bound), ((1.0, c2 + t), bound + shift)]
        elif kind == "repeat" and rows:
            (c1, c2), bound = rows[draw(st.integers(0, len(rows) - 1))]
            scale = draw(st.sampled_from([1.0, 2.0, 0.5]))
            rows.append(((scale * c1, scale * c2), scale * bound + draw(st.sampled_from([0.0, 0.25]))))
        elif kind == "origin":
            rows.append(((1.0, draw(st.sampled_from([0.0, 1.0]))), 0.0))
        elif kind == "cluster":
            corner = st.sampled_from([0.5, 1.0, 2.0])
            rows += _cluster_rows(draw(corner), draw(corner), draw(st.floats(0.2, 0.8)) * FEAS_TOL,
                                  draw(st.sampled_from([100.0, 1000.0])))
        elif kind == "origin cluster":
            rows += _origin_cluster_rows(draw(st.floats(0.1, 0.5)) * FEAS_TOL)
    return polytope_from_arrays(("R1", "R2"), rows)


@settings(max_examples=400)
@given(poly=_polytope_rows(), data=st.data())
def test_intersection_table_matches_pairwise_oracle(poly, data):
    """Vertices, flags and minimal rows (order and ties included) equal the pairwise routines
    exactly, a table with rows masked out enumerates as the polytope rebuilt without them, and
    the minimal rows are the masked loop's byte for byte."""
    assert vertices_2d(poly) == vertices_2d_pairwise(poly)
    keep = data.draw(st.lists(st.booleans(), min_size=len(poly.rows), max_size=len(poly.rows)))
    rebuilt = RatePolytope(poly.variables, [r for r, on in zip(poly.rows, keep) if on])
    masked = _enumerate_masked(regions._intersection_table(poly), np.array(keep + [True, True]))
    assert vertices_2d(rebuilt) == masked == vertices_2d_pairwise(rebuilt)
    minimal = minimal_2d(poly)
    assert _exact_rows(minimal) == _exact_rows(minimal_2d_masked(poly))
    rows = [(r.coeffs, r.bound, r.tag) for r in minimal.rows]
    pruned = _prune_rows(list(poly.rows), poly.variables)
    if pruned and pruned[0].tag == "infeasible":
        # the oracle drops the empty-system marker; the fix keeps it alone
        assert rows == [((0.0, 0.0), -1.0, "infeasible")]
    else:
        assert rows == [(r.coeffs, r.bound, r.tag) for r in minimal_2d_rebuild(poly).rows]


def _breaks_a_crossing(poly: RatePolytope) -> bool:
    """Whether the last row is broken at a clamped crossing that satisfies every other row."""
    _, _, _, x, sat = regions._intersection_table(RatePolytope(poly.variables, poly.rows[:-1]))
    pts = np.maximum(x[np.all(sat, axis=0)], 0.0)
    return bool(np.any(pts @ np.asarray(poly.rows[-1].coeffs) > poly.rows[-1].bound + FEAS_TOL))


# the square [0, 1]^2 with its corner (1, 1) cut by a steep row, a row dropped first whose crossing with
# that cut lies 5e-10 above the square, lexicographically before the cut's own corner, and a last row
# broken only there
_DROPPED_CROSSING_ROWS = [((1.0, 0.0), 1.0), ((0.0, 1.0), 1.0), ((-1e-9, 1.0), 1 + 5e-10 - 1e-9 * (1 - 1e-7)),
                          ((1.0, 1e-3), (1 - 1e-7) + 1e-3 * (1 + 5e-10)), ((1.0, 1e4), (1 - 1e-7) + 1e4 + 1e-6)]


@pytest.mark.parametrize("rows, kept, broken", [
    (_cluster_rows(1.0, 1.0, 0.5 * FEAS_TOL, 1000.0), ["r1", "r0"], True),
    (_origin_cluster_rows(0.3 * FEAS_TOL), ["r2", "r1", "r0"], False),
    (_DROPPED_CROSSING_ROWS, ["r1", "r0", "r3"], True),
], ids=["cluster", "origin-cluster", "dropped-row-crossing"])
def test_minimal_2d_decides_on_merged_vertices(rows, kept, broken):
    """The merged vertices of the region without the dropped rows decide, not the crossings: the
    cluster's last row goes although a crossing of the others breaks it, and so does a row broken only
    at a crossing of a dropped row; the origin sliver's last row stays although no crossing breaks it."""
    poly = polytope_from_arrays(("R1", "R2"), rows)
    minimal = minimal_2d(poly)
    assert [r.tag for r in minimal.rows] == kept
    assert _exact_rows(minimal) == _exact_rows(minimal_2d_masked(poly)) == _exact_rows(minimal_2d_rebuild(poly))
    assert _breaks_a_crossing(poly) is broken


def _integer_projections(seed: int, count: int) -> list[RatePolytope]:
    """``count`` projections onto (R1, R2), of 20 to 60 rows, of random 4-variable integer systems:
    ten rows with coefficients in -3..3 and bounds in 0..5, plus the box [0, 5]^4."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        a = np.vstack([rng.integers(-3, 4, size=(10, 4)), np.eye(4)])
        b = np.concatenate([rng.integers(0, 6, size=10), np.full(4, 5)])
        projected = fourier_motzkin(polytope_from_arrays(("R1", "R2", "W1", "W2"), zip(a.tolist(), b.tolist())),
                                    ["W1", "W2"])
        if 20 <= len(projected.rows) <= 60:
            out.append(projected)
    return out


@pytest.mark.parametrize("seed", range(3))
def test_minimal_2d_matches_masked_loop_on_integer_projections(seed):
    """Projections the size of the benchmark's: minimal rows byte for byte, vertices and flags exactly."""
    for projected in _integer_projections(seed, 4):
        assert _exact_rows(minimal_2d(projected)) == _exact_rows(minimal_2d_masked(projected))
        assert vertices_2d(projected) == vertices_2d_pairwise(projected)


def test_ray_products_do_not_depend_on_the_rows_multiplied():
    """Each row . ray value has the same bits in a product over all rows as over any subset, so
    ``_has_recession_ray`` on the active rows and ``minimal_2d`` on all rows read the same values.
    At this seed ``a[[0]] @ rays.T`` differs from row 0 of ``a @ rays.T`` in its last bits
    (OpenBLAS 0.3.31: a one-row product takes another kernel)."""
    a = np.random.default_rng(0).normal(size=(60, 2))
    rays, _ = regions._rays(a)
    full = regions._ray_products(a, rays)
    for rows in ([0], [17], list(range(0, 60, 2)), list(range(59))):
        assert np.array_equal(regions._ray_products(a[rows], rays), full[rows])
        sub_rays, _ = regions._rays(a[rows])
        cols = [np.flatnonzero(np.all(rays == r, axis=1))[0] for r in sub_rays]
        assert np.array_equal(regions._ray_products(a[rows], sub_rays), full[np.ix_(rows, cols)])


def test_intersection_table_memory_stays_near_sat():
    """150 rows: ``sat`` holds one byte per (row, crossing), and neither the table nor the routines that
    read it hold more than a few times that.  A stacked product of every crossing at once holds 8."""
    rng = np.random.default_rng(150)
    angles, bounds = rng.uniform(0.0, math.pi / 2, 150), rng.uniform(1.0, 1.5, 150)
    poly = polytope_from_arrays(("R1", "R2"), zip(np.stack([np.cos(angles), np.sin(angles)], axis=1), bounds))
    sat_bytes = 152 * len(regions._intersection_table(poly)[1])
    for routine in (regions._intersection_table, vertices_2d, minimal_2d):
        tracemalloc.start()
        try:
            routine(poly)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * sat_bytes, routine.__name__


def test_fm_budget_counts_before_combining(monkeypatch):
    """Eliminating B combines 3 rows with B > 0 and 3 with B < 0 (nonnegativity among them): 9 rows of 3
    coefficients, 216 bytes.  Over the budget nothing is combined or pruned."""
    poly = polytope_from_arrays(("A", "B", "C"), [((1, 1, 0), 1), ((0, 1, 1), 2), ((1, -1, 0), 0),
                                                  ((0, -1, 1), 1), ((1, 0, -1), 1), ((0, 1, -1), 3)])
    expected = fourier_motzkin(poly, ["B", "C"])
    monkeypatch.setattr(regions, "_POLYTOPE_BYTES", 216)
    assert fourier_motzkin(poly, ["B", "C"]) == expected
    monkeypatch.setattr(regions, "_POLYTOPE_BYTES", 215)

    def no_prune(a, b):
        raise AssertionError("the budget check combined rows")

    monkeypatch.setattr(regions, "_prune", no_prune)
    with pytest.raises(ValueError) as got:
        fourier_motzkin(poly, ["B", "C"])
    assert str(got.value) == ("eliminating 'B' forms 9 combination rows of 24 bytes, "
                              "over the polytope budget of 215 bytes")


@pytest.mark.parametrize("routine", [vertices_2d, minimal_2d])
def test_intersection_table_budget_counts_before_building(monkeypatch, routine):
    """12 rows and the 2 nonnegativity rows: 91 crossings of 14 rows each, a 1274-byte ``sat``."""
    rng = np.random.default_rng(12)
    poly = polytope_from_arrays(("R1", "R2"), zip(rng.uniform(0.1, 1.0, size=(12, 2)), rng.uniform(0.5, 2.0, 12)))
    assert len(regions._prune(*poly.coeff_matrix())[0]) == 12
    expected = routine(poly)
    monkeypatch.setattr(regions, "_POLYTOPE_BYTES", 14 * 91)
    assert routine(poly) == expected
    monkeypatch.setattr(regions, "_POLYTOPE_BYTES", 14 * 91 - 1)

    def no_table(*args, **kwargs):
        raise AssertionError("the budget check built the table")

    monkeypatch.setattr(regions.np, "triu_indices", no_table)
    with pytest.raises(ValueError) as got:
        routine(poly)
    assert str(got.value) == ("12 rows and nonnegativity have 91 crossings, whose table of 1274 bytes "
                              "is over the polytope budget of 1273 bytes")


@pytest.mark.parametrize("n_rows", [0, 3, 12])
def test_one_solve_per_polytope(monkeypatch, n_rows):
    """``vertices_2d`` and ``minimal_2d`` each solve every row pair in one batched call."""
    rng = np.random.default_rng(n_rows)
    poly = polytope_from_arrays(("R1", "R2"), list(zip(
        rng.uniform(0.1, 1.0, size=(n_rows, 2)).tolist(), rng.uniform(0.5, 2.0, size=n_rows).tolist())))
    calls = []
    solve = np.linalg.solve
    monkeypatch.setattr(regions.np.linalg, "solve", lambda *args: calls.append(1) or solve(*args))
    vertices_2d(poly)
    assert len(calls) == 1
    minimal_2d(poly)
    assert len(calls) == 2


_FM_GRID = st.sampled_from([-2.0, -1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 2.0])


@st.composite
def _fm_systems(draw):
    """A small system in 2-4 variables and a drawn elimination list, from none to all.

    Rows repeat scaled with tied or looser bounds, are all zero with negative
    bounds (empty systems) and sit on a grid, with signed zeros, that makes
    directions collide.
    """
    n = draw(st.integers(2, 4))
    rows = []
    for _ in range(draw(st.integers(0, 7))):
        kind = draw(st.sampled_from(["grid", "uniform", "repeat", "zero"]))
        if kind == "repeat" and rows:
            coeffs, bound = rows[draw(st.integers(0, len(rows) - 1))]
            scale = draw(st.sampled_from([1.0, 2.0, 0.5]))
            rows.append((tuple(scale * c for c in coeffs), scale * bound + draw(st.sampled_from([0.0, 0.25]))))
        elif kind == "zero":
            rows.append(((0.0,) * n, draw(st.sampled_from([-1.0, -1e-12, 0.0, 1.0]))))
        elif kind == "uniform":
            rows.append((tuple(draw(st.floats(-2.0, 2.0)) for _ in range(n)), draw(st.floats(-1.0, 3.0))))
        else:
            rows.append((tuple(draw(_FM_GRID) for _ in range(n)), draw(st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.0]))))
    poly = polytope_from_arrays(tuple(f"V{i}" for i in range(n)), rows)
    eliminate = draw(st.permutations(poly.variables))[:draw(st.integers(0, n))]
    return poly, eliminate


def _exact_rows(poly):
    return [(np.asarray(r.coeffs, dtype=float).tobytes(), np.float64(r.bound).tobytes(), r.tag)
            for r in poly.rows]


@settings(max_examples=300)
@given(system=_fm_systems())
def test_fourier_motzkin_matches_rowwise_oracle(system):
    """Projected rows equal the row-wise routine's bit for bit: coefficients, bounds, tags, order;
    on two-variable projections ``minimal_2d`` keeps a subsequence of the pruned rows and
    matches the rebuilding oracle."""
    poly, eliminate = system
    projected, oracle = fourier_motzkin(poly, eliminate), fourier_motzkin_rowwise(poly, eliminate)
    assert projected.variables == oracle.variables and projected.meta == oracle.meta
    assert _exact_rows(projected) == _exact_rows(oracle)
    if len(projected.variables) != 2:
        return
    minimal = _exact_rows(minimal_2d(projected))
    pruned = _exact_rows(RatePolytope(projected.variables, _prune_rows(list(projected.rows), projected.variables)))
    if pruned and pruned[0][2] == "infeasible":
        assert minimal == pruned[:1]
        return
    rest = iter(pruned)
    assert all(row in rest for row in minimal)
    assert minimal == _exact_rows(minimal_2d_rebuild(projected))


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


def test_simplex_grid():
    pts = _simplex_grid(2, 5)
    assert len(pts) == 5
    assert all(abs(p.sum() - 1.0) <= 1e-12 for p in pts)
    with pytest.raises(ValueError):
        _simplex_grid(2, 1)
    for size in range(1, 5):
        for resolution in range(2, 10):
            assert _grid_count(size, resolution) == len(_simplex_grid(size, resolution))


# grid 2 holds only point masses, whose regions barely differ; t1 and conjecture
# run at grid 3, where a wrong set of points moves the frontier
@pytest.mark.parametrize("theorem, q_size, grid", [("t1", 1, 3), ("t1", 2, 3), ("conjecture", 1, 3),
                                                   ("t2", 1, 2)])
def test_sweep_single_point_matches_region(theorem, q_size, grid):
    """The sweep's frontier is the pointwise maximum of the public builders' regions."""
    channel = _noncommuting_channel(7) if theorem == "t1" else _noncommuting_split_channel(7)
    dists = list(t1_distributions(channel, grid, q_size) if theorem == "t1" else hk_distributions(channel, grid))
    result = sweep_union(channel, theorem, PARAMS, OFF, grid=grid, q_size=q_size, rays=31)
    dirs = np.stack([np.cos(result.thetas), np.sin(result.thetas)], axis=1)
    radii = np.zeros(31)
    for dist in dists:
        poly = regions.region_builder(theorem)(channel, dist, PARAMS, OFF)
        radii = np.maximum(radii, _grid_radii(*poly.coeff_matrix(), dirs))
    assert result.evaluations == len(dists)
    assert result.radii.tobytes() == radii.tobytes()


def test_sweep_uniform_dominates_sum_row(diag_channel):
    uni = theorem1_region(diag_channel, uniform_t1(diag_channel), PARAMS, OFF)
    best = max(
        theorem1_region(diag_channel, d, PARAMS, OFF).row("t1:sum").bound
        for d in t1_distributions(diag_channel, 5, 1)
    )
    assert uni.row("t1:sum").bound >= best - 1e-9


def test_sweep_refinement_monotone(diag_channel):
    coarse = sweep_union(diag_channel, "t1", PARAMS, OFF, grid=2, rays=31, max_evals=500)
    fine = sweep_union(diag_channel, "t1", PARAMS, OFF, grid=3, rays=31, max_evals=500)
    assert np.all(fine.radii >= coarse.radii - 1e-9)


def test_sweep_eval_cap(diag_channel):
    with pytest.raises(ValueError, match="exceeds"):
        sweep_union(diag_channel, "t1", PARAMS, OFF, grid=9, max_evals=10)


def test_sweep_eval_cap_counts_without_building_the_grid(diag_channel, xor_channel, monkeypatch):
    def no_grid(size, resolution):
        raise AssertionError("the cap check built a grid")

    monkeypatch.setattr(regions, "_simplex_grid", no_grid)
    with pytest.raises(ValueError, match="exceeds"):
        sweep_union(diag_channel, "t1", PARAMS, OFF, grid=10**6, q_size=4)
    with pytest.raises(ValueError, match="exceeds"):
        sweep_union(xor_channel, "t2", PARAMS, OFF, grid=10**6)


def test_sweep_time_shared_alphabet(diag_channel):
    # grid 2, |Q| = 2: two corner time-sharing weights x (2x2 corner pairs)^2
    result = sweep_union(diag_channel, "t1", PARAMS, OFF, grid=2, q_size=2, rays=5, max_evals=100)
    assert result.evaluations == 2 * (2 * 2) ** 2
    # time sharing cannot beat the best single block on any ray
    single = sweep_union(diag_channel, "t1", PARAMS, OFF, grid=2, q_size=1, rays=5, max_evals=100)
    assert np.all(result.radii >= single.radii - 1e-9)
    with pytest.raises(ValueError, match="q_size"):
        sweep_union(diag_channel, "t1", PARAMS, OFF, grid=2, q_size=5)


def test_sweep_split_theorem(diag_split_channel, diag_channel):
    result = sweep_union(diag_split_channel, "conjecture", PARAMS, OFF, grid=2, rays=5,
                         max_evals=100)
    # degenerate commons leave two free binary marginals: 2 x 2 corner grids
    assert result.evaluations == 4
    assert np.all(np.isfinite(result.radii))
    with pytest.raises(OperatorError, match="splits"):
        sweep_union(diag_channel, "conjecture", PARAMS, OFF, grid=2)


def test_sweep_q_size_applies_to_t1_only(xor_channel):
    with pytest.raises(ValueError, match="q_size=4"):
        sweep_union(xor_channel, "hk-nosecrecy", PARAMS, OFF, grid=2, q_size=4)


def _noncommuting_channel(seed):
    """Binary inputs onto random full-rank qubit triples, without splits: nothing commutes."""
    rng = np.random.default_rng(seed)
    states = {(x1, x2): rand_density(rng, 8) for x1 in "01" for x2 in "01"}
    return ChannelSpec("random", {"X1": ("0", "1"), "X2": ("0", "1")}, {"Y1": 2, "Y2": 2, "Z": 2}, states)


def _noncommuting_split_channel(seed):
    """Binary split inputs onto random full-rank qubit triples: nothing commutes."""
    rng = np.random.default_rng(seed)
    symbols = ("00", "01", "10", "11")
    states = {(x1, x2): rand_density(rng, 8) for x1 in symbols for x2 in symbols}
    table = {(c, p): c + p for c in "01" for p in "01"}
    split = SplitSpec((("0", "1"), ("0", "1")), table)
    return ChannelSpec("random-split", {"X1": symbols, "X2": symbols}, {"Y1": 2, "Y2": 2, "Z": 2},
                       states, {"X1": split, "X2": split})


@pytest.mark.parametrize("theorem, q_size, grid", [("t1", 1, 3), ("t1", 2, 3), ("conjecture", 1, 2),
                                                   ("t2", 1, 2)])
def test_sweep_chunks_leave_the_frontier_unchanged(diag_channel, monkeypatch, theorem, q_size, grid):
    """Batches of one row, of three rows and unbounded give the same frontier bytes.

    The whole grid goes to one ``grid_terms`` call, whose batches are the
    only bound: unbounded, every term is solved whole and each register's
    terms share one max-min; at three of the widest rows, a term of such
    rows is cut into ranges of three, each a batch of its own; at one byte,
    every row is, and every conditional term runs its own max-min.
    """
    channel = diag_channel if theorem == "t1" else _noncommuting_split_channel(7)
    real, real_max_min = entropic._solve_terms, entropic._max_min
    batches, max_mins = [], []
    registers = [term[3] for term in regions._THEOREMS[theorem][0].terms if term[3] is not None]

    def spy(conds, pieces, strategy):
        batches.append([(len(term.rows.points), term.row_bytes, len(range(len(term.rows.points))[rows]))
                        for term, rows in pieces])
        return real(conds, pieces, strategy)

    def max_min_spy(masses, values, support, eps):
        max_mins.append(len(values))
        return real_max_min(masses, values, support, eps)

    def run(budget):
        batches.clear()
        max_mins.clear()
        monkeypatch.setattr(entropic, "_BATCH_BYTES", budget)
        result = sweep_union(channel, theorem, PARAMS, OFF, grid=grid, q_size=q_size, rays=31)
        return result.points.tobytes(), result.evaluations, result.degenerate_count

    monkeypatch.setattr(entropic, "_solve_terms", spy)
    monkeypatch.setattr(entropic, "_max_min", max_min_spy)
    whole = run(math.inf)
    assert all(solved == rows for batch in batches for rows, _, solved in batch)
    assert max_mins == [registers.count(cond) for cond in dict.fromkeys(registers)]
    widest = max(size for batch in batches for _, size, _ in batch)
    assert run(1) == whole
    assert all(len(batch) == 1 and batch[0][2] == 1 for batch in batches)
    assert max_mins == [1] * len(registers)
    assert run(3 * widest) == whole
    cut = [batch for batch in batches if any(solved < rows for rows, _, solved in batch)]
    assert all(len(batch) == 1 for batch in cut)
    assert any(size == widest and solved == 3 for [(rows, size, solved)] in cut)


def test_max_min_runs_once_per_register(diag_channel, monkeypatch):
    """A ``t1`` sweep and a ``t1`` region run one max-min for all their terms given ``Q``.

    Both fit ``_BATCH_BYTES``: on the sweep's 243 points a term counts
    31 KiB (8 floats a point and value of ``Q``).  The region solves the secrecy criterion given ``Q`` beside its
    table's terms, so its max-min holds one term more.
    """
    real = entropic._max_min
    calls = []

    def spy(masses, values, support, eps):
        calls.append((len(masses), len(values)))
        return real(masses, values, support, eps)

    monkeypatch.setattr(entropic, "_max_min", spy)
    given_q = sum(term[3] == "Q" for term in regions._THEOREMS["t1"][0].terms)
    assert given_q > 1
    sweep_union(diag_channel, "t1", PARAMS, OFF, grid=3, q_size=2, rays=5)
    assert calls == [(243, given_q)]
    calls.clear()
    theorem1_region(diag_channel, uniform_t1(diag_channel), PARAMS, OFF)
    assert calls == [(1, given_q + 1)]


def test_sweep_convergence_error_at_a_later_point_names_the_term(monkeypatch, capsys, tmp_path):
    """The fifth row of the first term's stack is the fifth grid point's, with its value of Q."""
    real = entropic._dh_betas

    def failing(rho, sigma, eps):
        betas = real(rho, sigma, eps)
        if len(betas) > 4:
            raise ConvergenceError(f"straddle detection failed at t=0.5, eps={eps}", 4)
        return betas

    monkeypatch.setattr(entropic, "_dh_betas", failing)
    code = cli.main(["sweep", "--channel", str(bundled_path("diag_deterministic.json")), "--theorem", "t1",
                     "--grid", "3", "--eps", "0.25", "--csv", str(tmp_path / "frontier.csv")])
    assert code == 1
    err = capsys.readouterr().err
    assert "D_H(X1 : X2,Y1 | Q): straddle detection failed at t=0.5, eps=0.25 (grid point 4, Q=0)" in err


def test_sweep_error_names_the_earlier_term_failing_at_a_later_point(monkeypatch):
    """An earlier table term failing only at the last grid point is named, not a later term failing at the first.

    The grid is one ``grid_terms`` call, whose unsolved terms are solved
    again one at a time in table order, so the answer does not depend on
    how the grid's rows are batched.  The plain ``t2`` terms' rows are the
    grid's points.
    """
    terms = [term for term in regions._THEOREMS["t2"][0].terms if term[0] == "ht"]
    fail_at = {terms[0]: 15, terms[-1]: 0}
    real = entropic._solve_terms

    def poisoned(conds, pieces, strategy):
        offset = 0
        for term, rows in pieces:
            span = range(len(term.rows.points))[rows]
            at = fail_at.get((term.kind, tuple(term.part_a), tuple(term.part_b), term.cond))
            if at in span:
                raise ConvergenceError(f"straddle detection failed at t=0.5, eps={term.eps}", offset + span.index(at))
            offset += len(span)
        return real(conds, pieces, strategy)

    monkeypatch.setattr(entropic, "_solve_terms", poisoned)
    name = re.escape(entropic.term_name(*terms[0]))
    with pytest.raises(ConvergenceError, match=rf"^{name}: straddle .* \(grid point 15\)$"):
        sweep_union(_noncommuting_split_channel(7), "t2", PARAMS, OFF, grid=2, rays=5)


def test_sweep_stack_solves_stay_within_the_batch_budget(monkeypatch, xor_channel):
    """No stack solve of ``sweep_t2_xor_g5`` holds more rows than ``_BATCH_BYTES`` allows, unless one row is over it.

    A row costs at least 8 times its joint blocks (``_GridTerm.row_bytes``),
    so a stack of more than one row holds at most an eighth of the budget in
    joint blocks.  The whole grid is one ``grid_terms`` call, and 26 of its
    terms are over the budget and cut into row ranges.
    """
    real_values, real_solve = entropic._pair_values, entropic._solve_terms
    stacks, cut = [], set()

    def values(kind, joint, product, eps, strategy):
        stacks.append((len(joint), joint.nbytes))
        return real_values(kind, joint, product, eps, strategy)

    def solve(conds, pieces, strategy):
        cut.update((term.kind, tuple(term.part_a), tuple(term.part_b), term.eps)
                   for term, rows in pieces if rows.stop - rows.start < len(term.rows.points))
        return real_solve(conds, pieces, strategy)

    monkeypatch.setattr(entropic, "_pair_values", values)
    monkeypatch.setattr(entropic, "_solve_terms", solve)
    result = sweep_union(xor_channel, "t2", PARAMS, OFF, grid=5)
    assert result.evaluations == 625
    assert all(8 * nbytes <= entropic._BATCH_BYTES or rows == 1 for rows, nbytes in stacks)
    assert len(cut) == 26


def test_sweep_traced_peak_of_a_large_grid():
    """The 16807-point ``t1`` sweep of the unsplit test channel stays under 10 MiB traced.

    Every array of the whole grid is a few floats a point; the batches of
    ``grid_terms`` bound what its stack solves build.
    """
    channel = nc_small_unsplit()
    tracemalloc.start()
    try:
        result = sweep_union(channel, "t1", PARAMS, OFF, grid=7, q_size=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.evaluations == 16807
    assert peak < 10 * 2**20


def _sweep_bounds(monkeypatch, *args, **kwargs) -> np.ndarray:
    """A sweep's ``(points, rows)`` bounds, as its blocks hand them to ``regions._grid_radii``."""
    blocks = []
    real = regions._grid_radii

    def recording(a, b, dirs):
        blocks.append(b)
        return real(a, b, dirs)

    with monkeypatch.context() as patch:
        patch.setattr(regions, "_grid_radii", recording)
        sweep_union(*args, **kwargs)
    return np.concatenate(blocks)


@pytest.mark.parametrize("theorem, q_size, grid, commuting, smoothing", [
    ("t1", 1, 3, True, "none"), ("t1", 2, 3, True, "none"), ("t1", 1, 3, False, "none"),
    ("t1", 2, 3, False, "none"), ("t1", 1, 4, True, "diagonal-scan"),
    ("conjecture", 1, 2, True, "none"), ("conjecture", 1, 2, False, "none"),
    ("conjecture", 1, 2, True, "diagonal-scan"),
    ("t2", 1, 2, True, "none"), ("t2", 1, 2, False, "none"),
    ("hk-nosecrecy", 1, 2, True, "none"), ("hk-nosecrecy", 1, 2, False, "none"),
])
def test_sweep_bounds_match_the_row_by_row_assembly(diag_channel, xor_channel, monkeypatch, theorem, q_size, grid,
                                                    commuting, smoothing):
    """Every grid point's row bounds are, byte for byte, its region's rows summed one term at a time
    from the public one-point helpers (``util.region_bounds``)."""
    if theorem == "t1":
        channel = diag_channel if commuting else _noncommuting_channel(7)
        states = [control_state_t1(channel, d) for d in t1_distributions(channel, grid, q_size)]
    else:
        channel = xor_channel if commuting else _noncommuting_split_channel(7)
        states = [control_state_hk(channel, d) for d in hk_distributions(channel, grid)]
    terms = [one_point_terms(state, PARAMS, smoothing) for state in states]
    for penalties in (OFF, PAPER):
        bounds = _sweep_bounds(monkeypatch, channel, theorem, PARAMS, penalties, grid=grid, q_size=q_size, rays=5,
                               smoothing=smoothing)
        expected = np.array([region_bounds(term, theorem, PARAMS, penalties) for term in terms])
        assert bounds.tobytes() == expected.tobytes()


def test_sweeps_ask_only_for_their_rows_terms(diag_channel, monkeypatch):
    """No secrecy report, randomizer plan or t1 criterion: a sweep asks for the terms its rows read, once each."""
    calls = []
    real = regions.grid_terms

    def counting(conds, probs, terms, *args):
        calls.extend((kind, tuple(part_a), tuple(part_b), cond) for kind, part_a, part_b, cond, _ in terms)
        return real(conds, probs, terms, *args)

    monkeypatch.setattr(regions, "grid_terms", counting)
    sweep_union(_noncommuting_split_channel(7), "conjecture", PARAMS, OFF, grid=2, rays=5)
    assert len(set(calls)) == len(calls)
    assert sorted(kind for kind, *_ in calls) == ["ht"] * 15 + ["max"] * 4
    assert {c[:3] for c in calls if c[0] == "max"} == {
        ("max", ("X10",), ("Z",)), ("max", ("X11",), ("Z", "X10", "X20")),
        ("max", ("X20",), ("Z", "X10")), ("max", ("X22",), ("Z", "X10", "X11", "X20")),
    }
    calls.clear()
    sweep_union(diag_channel, "t1", PARAMS, OFF, grid=3, q_size=2, rays=5)
    assert len(set(calls)) == len(calls) == 8
    assert ("max", ("X1", "X2"), ("Z",), "Q") not in calls


@pytest.mark.parametrize("z_dim", [1, 3])
def test_sweep_with_infinite_terms(monkeypatch, z_dim):
    """D_H is +inf where beta = 0, and D_max +inf where rho weighs on sigma's numerical kernel.

    Every output carries two eigenvalues below ``EIG_CLAMP`` whose joint weight
    reaches it, so with eps = 1 - 1e-10 every D_H term is +inf; with a 3-level
    eavesdropper so is every leak, and the bounds are inf - inf = nan.  The
    sweep sums them without a RuntimeWarning (an error in this suite), as
    Python floats do.  An unbounded frontier keeps 0 where its direction is 0;
    a nan bound stops the sweep with an error naming its point and row.
    """
    delta = 6e-11
    tiny = np.diag([1.0 - 2.0 * delta, delta, delta]).astype(complex)
    z = tiny if z_dim == 3 else np.ones((1, 1), dtype=complex)
    state = np.kron(np.kron(tiny, tiny), z)
    channel = ChannelSpec("tiny-eigenvalues", {"X1": ("0", "1"), "X2": ("0", "1")}, {"Y1": 3, "Y2": 3, "Z": z_dim},
                          {(x1, x2): state for x1 in "01" for x2 in "01"})
    params = ToleranceParams(eps=1.0 - 1e-10)
    states = [control_state_t1(channel, d) for d in t1_distributions(channel, 2, 1)]
    expected = np.array([region_bounds(one_point_terms(s, params), "t1", params, OFF) for s in states])
    if z_dim == 3:
        assert np.all(np.isnan(expected))
        with pytest.raises(OperatorError, match=r"row t1:r1 is undefined \(nan\) at grid point 0$"):
            sweep_union(channel, "t1", params, OFF, grid=2, rays=5)
        return
    bounds = _sweep_bounds(monkeypatch, channel, "t1", params, OFF, grid=2, rays=5)
    np.testing.assert_array_equal(bounds, expected)
    assert np.all(bounds == math.inf)
    result = sweep_union(channel, "t1", params, OFF, grid=2, rays=5)
    assert np.all(result.radii == math.inf)
    assert result.points[0].tolist() == [math.inf, 0.0]
    assert not np.isnan(result.points).any()


# ---------------------------------------------------------------------------
# cross-cutting region invariants
# ---------------------------------------------------------------------------


def test_row_counts_per_region(diag_channel, xor_channel):
    t1_state = control_state_t1(diag_channel, uniform_t1(diag_channel))
    hk_state = control_state_hk(xor_channel, uniform_hk(xor_channel))
    dist = uniform_hk(xor_channel)
    assert len(qmac_inner_bound(t1_state, ["X1", "X2"], "Y1", 0.25, OFF).rows) == 3
    assert len(qmac_inner_bound(hk_state, ["X10", "X11", "X20"], "Y1", 0.25, OFF).rows) == 7
    assert len(theorem1_region(diag_channel, uniform_t1(diag_channel), PARAMS, OFF).rows) == 3
    assert len(conjecture_region(xor_channel, dist, PARAMS, OFF).rows) == 9
    assert len(theorem2_region(xor_channel, dist, PARAMS, OFF).rows) == 18
    assert len(hk_nosecrecy_region(xor_channel, dist, 0.25, OFF).rows) == 9
    # every emitted row carries a tag and a term breakdown
    for poly in (
        conjecture_region(xor_channel, dist, PARAMS, OFF),
        theorem2_region(xor_channel, dist, PARAMS, OFF),
    ):
        assert all(r.tag and r.terms for r in poly.rows)


def test_penalty_mode_difference_is_the_recorded_constant(diag_channel, xor_channel):
    dist = uniform_hk(xor_channel)
    builders = [
        lambda pen: theorem1_region(diag_channel, uniform_t1(diag_channel), PARAMS, pen),
        lambda pen: conjecture_region(xor_channel, dist, PARAMS, pen),
        lambda pen: theorem2_region(xor_channel, dist, PARAMS, pen),
        lambda pen: hk_nosecrecy_region(xor_channel, dist, 0.25, pen),
    ]
    for build in builders:
        off, pap = build(OFF), build(PAPER)
        for r_off, r_pap in zip(off.rows, pap.rows):
            assert r_off.tag == r_pap.tag and r_off.coeffs == r_pap.coeffs
            assert abs(r_off.penalty) <= 1e-12
            assert abs((r_off.bound - r_pap.bound) + r_pap.penalty) <= 1e-9


def test_row_penalties_follow_params_big_o_constant(diag_channel, xor_channel):
    """The O(1) constant of ``ToleranceParams`` reaches every row that carries it."""
    big_o = ToleranceParams(eps=0.25, eps_prime=0.1, delta=0.01, delta_prime=0.2, big_o_constant=2.0)
    dist = uniform_hk(xor_channel)
    builders = [
        lambda params: theorem1_region(diag_channel, uniform_t1(diag_channel), params, PAPER),
        lambda params: conjecture_region(xor_channel, dist, params, PAPER),
        lambda params: theorem2_region(xor_channel, dist, params, PAPER),
    ]
    for build in builders:
        plain, shifted = build(PARAMS), build(big_o)
        for r_plain, r_shifted in zip(plain.rows, shifted.rows):
            # only the time-shared rows with a single randomizer carry no O(1) constant
            expected = 0.0 if r_plain.tag in ("t1:r1", "t1:r2") else 2.0
            assert abs(r_shifted.penalty - r_plain.penalty - expected) <= 1e-12, r_plain.tag
