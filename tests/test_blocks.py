"""Block-diagonal operators: the blockwise solvers against dense oracles.

``joint_and_product`` returns operators in classical-major order, block
diagonal with one block per classical value; the divergences read the
finest common blocks off the operators and solve them blockwise.  The dense
oracles are the same divergences on the pair conjugated by a random unitary
that mixes every block (``D_H`` and ``D_max`` do not change under a unitary,
and the rotated pair has a single block), and the dense embedding in
``tests/util.py``.

``block_pairs`` builds the blocks of a whole grid of states at once; each
point's blocks must be those of the point alone, bit for bit.
"""
import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oneshot_secrecy import entropic, regions
from oneshot_secrecy.channel import ChannelSpec, control_state_hk, control_state_t1, load_channel
from oneshot_secrecy.entropic import (
    ConvergenceError,
    _block_stack,
    _dh_betas,
    _dmax_values,
    cond_smooth_ht_mi,
    cond_smooth_max_mi,
    grid_terms,
    hypothesis_testing_beta,
    hypothesis_testing_divergence,
    ht_mutual_info,
    max_relative_entropy,
    smooth_max_mutual_info,
    smooth_max_relative_entropy,
)
from oneshot_secrecy.operators import (
    BRACKET_MARGIN,
    COND_SUPPORT_TOL,
    PROBE_BAND,
    OperatorError,
    RegisterLayout,
    permute_registers_matrix,
)
from oneshot_secrecy.states import CQConditionals, CQState, _block_diag, block_pairs, joint_and_product
from conftest import rand_density, rand_unitary
from util import (
    _random_density,
    bisection_beta,
    condition_state,
    dense_joint_and_product,
    dh_dual,
    drawn_channels,
    hk_distributions,
    max_min,
    nc_small_unsplit,
    t1_distributions,
    threshold_betas_generators,
)

BLOCK_KINDS = ("zero", "diagonal", "full-rank", "rank-deficient")


def _block(rng, kind, d):
    if kind == "zero":
        return np.zeros((d, d), dtype=complex)
    if kind == "diagonal":
        return np.diag(rng.random(d) * (rng.random(d) < 0.7)).astype(complex)
    rank = d if kind == "full-rank" else int(rng.integers(1, d + 1))
    g = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
    return g @ g.conj().T


def _block_diag_operator(rng, kinds, d):
    blocks = [_block(rng, kind, d) for kind in kinds]
    total = sum(np.trace(b).real for b in blocks)
    out = np.zeros((len(kinds) * d, len(kinds) * d), dtype=complex)
    for k, b in enumerate(blocks):
        out[k * d:(k + 1) * d, k * d:(k + 1) * d] = b / total if total > 0 else b
    return out


def _beta_or_error(rho, sigma, eps):
    try:
        return hypothesis_testing_beta(rho, sigma, eps)
    except ConvergenceError:
        return None


def _assert_matches_rotated(rho, sigma, eps, seed):
    """``D_H`` and ``D_max`` of the pair equal those of its rotation by a seeded unitary."""
    rng = np.random.default_rng(seed)
    n = rho.shape[0]
    u, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    rot_rho, rot_sigma = u @ rho @ u.conj().T, u @ sigma @ u.conj().T
    assert _block_stack(rot_rho, rot_sigma)[0].shape[0] == 1
    fast, slow = _beta_or_error(rho, sigma, eps), _beta_or_error(rot_rho, rot_sigma, eps)
    assert (fast is None) == (slow is None), (fast, slow)
    if fast is not None:
        assert abs(fast - slow) <= 1e-9, (fast, slow)
    fast, slow = max_relative_entropy(rho, sigma), max_relative_entropy(rot_rho, rot_sigma)
    assert fast == slow or abs(fast - slow) <= 1e-9, (fast, slow)
    return fast


@settings(max_examples=150)
@given(
    k=st.integers(1, 6),
    d=st.integers(1, 4),
    data=st.data(),
    eps=st.floats(0.01, 0.99),
    seed=st.integers(0, 2**32 - 1),
)
def test_blockwise_divergences_match_dense(k, d, data, eps, seed):
    rng = np.random.default_rng(seed)
    kinds = st.lists(st.sampled_from(BLOCK_KINDS), min_size=k, max_size=k)
    rho = _block_diag_operator(rng, data.draw(kinds), d)
    sigma = _block_diag_operator(rng, data.draw(kinds), d)
    if not rho.any():
        rho[0, 0] = 1.0
    d_max = _assert_matches_rotated(rho, sigma, eps, seed)
    assert smooth_max_relative_entropy(rho, sigma, eps) == d_max


def _stack_row(rng, flavour, k, d, eps):
    """One ``(rho, sigma)`` row of ``k`` blocks of size ``d``, traces one."""
    if flavour == "classical":
        kinds = ["diagonal"] * k, ["diagonal"] * k
    elif flavour == "dense":
        kinds = ["full-rank"] * k, ["full-rank"] * k
    elif flavour == "kernel":
        # rho full rank, sigma rank deficient: rho weighs on sigma's kernel
        kinds = ["full-rank"] * k, ["rank-deficient"] * k
    else:
        # beta is 0: sigma lives on the first block, which carries eps / 2 of rho
        rho = np.stack([_block(rng, "full-rank", d) for _ in range(k)])
        traces = np.trace(rho, axis1=-2, axis2=-1).real
        rho[0] *= eps / 2 / traces[0]
        rho[1:] *= (1 - eps / 2) / traces[1:].sum()
        sigma = np.zeros_like(rho)
        sigma[0] = _block(rng, "full-rank", d)
        return rho, sigma / np.trace(sigma[0]).real
    pair = []
    for side in kinds:
        blocks = np.stack([_block(rng, kind, d) for kind in side])
        blocks[0] += np.diag(rng.random(d) + 0.1)
        pair.append(blocks / np.trace(blocks, axis1=-2, axis2=-1).real.sum())
    return tuple(pair)


def _solve(solver, a, b, *args):
    try:
        return solver(a, b, *args)
    except ConvergenceError as exc:
        return exc


@settings(max_examples=60)
@given(
    k=st.integers(2, 4),
    d=st.integers(2, 3),
    flavours=st.permutations(["classical", "dense", "kernel", "beta-zero", "dense", "classical"]),
    dead=st.integers(1, 3),
    eps=st.floats(0.05, 0.95),
    seed=st.integers(0, 2**32 - 1),
)
def test_stack_rows_match_each_row_alone(k, d, flavours, dead, eps, seed):
    """Every row of a stack solve is the row solved alone, bit for bit.

    The stack mixes classical rows, dense rows, rows with weight on sigma's
    kernel and rows whose beta is 0, and every row has all-zero blocks at
    its own places, as a sweep's zero-probability values give.  The stack
    solve is also the one that decomposes every dead block (``_live_blocks``
    reporting all blocks live), bit for bit.  Non-classical rows also meet
    the plain bisection and the dual certificate.
    """
    rng = np.random.default_rng(seed)
    a, b = (np.zeros((len(flavours), k + dead, d, d), dtype=complex) for _ in range(2))
    for r, flavour in enumerate(flavours):
        slots = np.sort(rng.permutation(k + dead)[:k])
        a[r, slots], b[r, slots] = _stack_row(rng, flavour, k, d, eps)
    betas = _solve(_dh_betas, a, b, eps)
    alone = [_solve(_dh_betas, a[r:r + 1], b[r:r + 1], eps) for r in range(len(flavours))]
    d_max = _dmax_values(a, b)
    with mock.patch.object(entropic, "_live_blocks", lambda a, b: None):
        every = _solve(_dh_betas, a, b, eps)
        every_max = _dmax_values(a, b)
    failed = [r for r, beta in enumerate(alone) if isinstance(beta, ConvergenceError)]
    if failed:
        assert isinstance(betas, ConvergenceError) and betas.row in failed, (betas, failed)
        assert isinstance(every, ConvergenceError) and (str(every), every.row) == (str(betas), betas.row)
    else:
        assert betas.tobytes() == every.tobytes()
        assert betas.tobytes() == np.concatenate(alone).tobytes()
        assert any(beta == 0.0 for beta in betas.tolist())
    assert d_max.tobytes() == every_max.tobytes()
    assert d_max.tobytes() == np.concatenate([_dmax_values(a[r:r + 1], b[r:r + 1]) for r in range(len(a))]).tobytes()
    for r, flavour in enumerate(flavours):
        if flavour == "classical" or r in failed:
            continue
        rho, sigma = _block_diag(a[r]), _block_diag(b[r])
        beta = float(betas[r])
        try:
            slow = bisection_beta(rho, sigma, eps)
        except ConvergenceError:
            slow = None
        assert slow is None or abs(beta - slow) <= 1e-8 * abs(slow), (flavour, beta, slow)
        best, probes = dh_dual(rho, sigma, eps)
        tol = 1e-9 + 1e-7 * beta
        assert all(value <= beta + tol for _, value in probes), (flavour, beta)
        assert beta <= best + tol, (flavour, beta, best)


# the rows of _certificate_rows and whether each skips its first probe
CERTIFIED = {"above": True, "below": False, "dense": True, "rank-deficient": False, "kernel": False,
             "no-breakpoint": False}


def _rotated(u, diagonal):
    return u @ np.diag(diagonal).astype(complex) @ u.conj().T


def _certificate_rows(rng, k, d, eps):
    """One ``(rho, sigma)`` row of ``k`` blocks of size ``d`` per ``CERTIFIED`` kind, keyed by kind.

    Every row has dead blocks.  ``above`` and ``below`` put sigma's least
    eigenvalue at 2 and 0.5 times ``BRACKET_MARGIN`` first-probe bands, with
    rho off its eigenvector so that the breakpoints do not move with it;
    ``rank-deficient`` is that row with the eigenvalue 0.  ``kernel`` has rho
    weigh on sigma's kernel so that the bracket must grow past its first
    probe.  ``no-breakpoint`` has rho only on sigma's kernel, with mass just
    inside ``TYPE_I_TOL`` of the target, and sigma alone on the other live
    blocks: no positive breakpoint, and beta 0.
    """
    target = 1.0 - eps
    live = np.sort(rng.permutation(k)[:k - 1])
    rows = {}
    # sigma's least eigenvalue, in first-probe bands (None: the rank-deficient row)
    for kind, bands in (("above", 2.0), ("below", 0.5), ("rank-deficient", None)):
        us = [rand_unitary(rng, d) for _ in live]
        ws = [rng.random(d - 1) + 0.1 for _ in live]
        rs = [rand_density(rng, d - 1) for _ in live]
        ws = [w / sum(x.sum() for x in ws) for w in ws]
        rs = [r / len(live) for r in rs]
        lam = max(np.linalg.eigvalsh(r / np.sqrt(np.outer(w, w))).max() for r, w in zip(rs, ws))
        least = 0.0 if bands is None else bands * BRACKET_MARGIN * PROBE_BAND * (2.0 + lam)
        rho, sigma = (np.zeros((k, d, d), dtype=complex) for _ in range(2))
        for slot, u, w, r in zip(live, us, ws, rs):
            sigma[slot] = _rotated(u, np.concatenate([[least], w]))
            rho[slot] = u[:, 1:] @ r @ u[:, 1:].conj().T
        rows[kind] = rho, sigma
    rho, sigma = (np.zeros((k, d, d), dtype=complex) for _ in range(2))
    for slot in live:
        rho[slot], sigma[slot] = rand_density(rng, d), rand_density(rng, d)
    rows["dense"] = rho / len(live), sigma / len(live)
    # rho is a pure state with 0.9 of the target on sigma's kernel
    u, rest = rand_unitary(rng, d), rng.normal(size=d - 1) + 1j * rng.normal(size=d - 1)
    psi = np.concatenate([[math.sqrt(0.9 * target)], math.sqrt(1.0 - 0.9 * target) * rest / np.linalg.norm(rest)])
    rho, sigma = (np.zeros((k, d, d), dtype=complex) for _ in range(2))
    rho[live[0]] = u @ np.outer(psi, psi.conj()) @ u.conj().T
    sigma[live[0]] = _rotated(u, np.concatenate([[0.0], rng.random(d - 1) + 0.1]))
    rows["kernel"] = rho, sigma / np.trace(sigma[live[0]]).real
    # exactly diagonal where rho lives, so the breakpoints are exact zeros
    rho, sigma = (np.zeros((k, d, d), dtype=complex) for _ in range(2))
    rho[live[0], 0, 0] = target - 1e-10
    sigma[live[0]] = np.diag(np.concatenate([[0.0], rng.random(d - 1) + 0.1]))
    for slot in live[1:]:
        sigma[slot] = rand_density(rng, d)
    rows["no-breakpoint"] = rho, sigma / np.trace(sigma, axis1=-2, axis2=-1).real.sum()
    return rows


@settings(max_examples=40)
@given(
    k=st.integers(3, 4),
    d=st.integers(2, 3),
    kinds=st.permutations(list(CERTIFIED)),
    eps=st.floats(0.05, 0.95),
    seed=st.integers(0, 2**32 - 1),
)
def test_certified_bracket_start_keeps_every_bit(k, d, kinds, eps, seed):
    """``_threshold_betas`` gives the same bytes when certified rows skip their first probe as when every row probes.

    One stack mixes rows on both sides of the certificate (see
    :func:`_certificate_rows`).  The solver's own first probe shows each
    row's side: with ``BRACKET_MARGIN`` inf every row probes t = hi first,
    so a row's blocks in that first ``rho - t sigma`` match the default
    solve's exactly when the row is not certified.  The array search gives
    the generator search's bytes (``threshold_betas_generators``), and the
    probed solve gives the certified one's.
    """
    rows = _certificate_rows(np.random.default_rng(seed), k, d, eps)
    a, b = (np.stack(side) for side in zip(*(rows[kind] for kind in kinds)))
    live = entropic._live_blocks(a, b)
    at = np.nonzero(live)[0]
    eigh = entropic._eigh

    def first_probe():
        calls = []
        with mock.patch.object(entropic, "_eigh", side_effect=lambda m: calls.append(m) or eigh(m)):
            betas = entropic._threshold_betas(a, b, 1.0 - eps, eps, np.arange(len(kinds)))
        # calls[0] is sigma's; every row searches, so calls[1] holds all live blocks
        assert calls[1].shape[0] == len(at)
        return betas, calls[1]

    betas, first = first_probe()
    with mock.patch.object(entropic, "BRACKET_MARGIN", math.inf):
        probed, first_probed = first_probe()
    skipped = [not np.array_equal(first[at == i], first_probed[at == i]) for i in range(len(kinds))]
    assert skipped == [CERTIFIED[kind] for kind in kinds]
    assert betas.tobytes() == probed.tobytes()
    reference = threshold_betas_generators(a, b, 1.0 - eps, eps, np.arange(len(kinds)))
    assert betas.tobytes() == reference.tobytes()
    row = kinds.index("no-breakpoint")
    ws, vs = np.linalg.eigh(b[row])
    assert (entropic._support_spectrum(a[row], ws, vs) <= 0.0).all()
    assert betas[row] == 0.0


@pytest.mark.parametrize("max_iter", [1, 2, 3])
def test_certified_rows_fail_with_the_probed_search_text(monkeypatch, max_iter):
    """With ``_MAX_ITER`` low, a certified row's error is the probed search's: same text, same row.

    A certified row is one probe ahead of a row that probes; beside one that
    fails after as many probes, the lower row is still the one named.
    """
    rows = _certificate_rows(np.random.default_rng(3), 4, 3, 0.25)
    monkeypatch.setattr(entropic, "_MAX_ITER", max_iter)
    for kinds in (["dense"], ["kernel", "dense"], ["dense", "kernel"]):
        a, b = (np.stack(side) for side in zip(*(rows[kind] for kind in kinds)))
        certified = _solve(_dh_betas, a, b, 0.25)
        with mock.patch.object(entropic, "BRACKET_MARGIN", math.inf):
            probed = _solve(_dh_betas, a, b, 0.25)
        assert isinstance(certified, ConvergenceError) and isinstance(probed, ConvergenceError), kinds
        assert (str(certified), certified.row) == (str(probed), probed.row), kinds
        if kinds[certified.row] == "dense":
            assert str(certified).startswith(f"no convergence after {max_iter} iterations"), str(certified)


def test_detection_never_splits_a_nonzero_entry():
    """A 1e-300 entry between two blocks merges them; the value follows the rotated oracle."""
    rng = np.random.default_rng(11)
    for kind in ("diagonal", "full-rank"):
        for which, i, j in ((0, 0, 2), (1, 2, 0), (1, 5, 1), (0, 3, 4)):
            pair = [_block_diag_operator(rng, [kind] * 3, 2) for _ in range(2)]
            pair[which][i, j] = 1e-300
            stacks = _block_stack(*pair)
            d = stacks[0].shape[-1]
            assert i // d == j // d
            for op, stack in zip(pair, stacks):
                assert np.count_nonzero(stack) == np.count_nonzero(op)
            _assert_matches_rotated(*pair, 0.25, 3)


def _random_state(rng, sizes, qdims):
    probs = rng.random(sizes) * (rng.random(sizes) < 0.8)
    probs.flat[0] += 0.1
    probs = probs / probs.sum()
    dq = math.prod(qdims)
    g = rng.normal(size=sizes + (dq, dq)) + 1j * rng.normal(size=sizes + (dq, dq))
    conds = g @ np.conj(np.swapaxes(g, -1, -2))
    conds /= np.trace(conds, axis1=-2, axis2=-1).real[..., None, None]
    cl = tuple(f"C{i}" for i in range(len(sizes)))
    qu = RegisterLayout(tuple(f"Q{i}" for i in range(len(qdims))), qdims)
    return CQState(CQConditionals(cl, sizes, qu, conds), probs)


def _classical_major(state, part_a, part_b):
    """Layout of the classical-major order (a_cl, b_cl, a_qu, b_qu)."""
    conds = state.conds
    order = ([r for r in part_a if conds.is_classical(r)] + [r for r in part_b if conds.is_classical(r)]
             + [r for r in part_a if not conds.is_classical(r)]
             + [r for r in part_b if not conds.is_classical(r)])
    dims = [conds.alphabet_sizes[conds.axis(r)] if conds.is_classical(r) else conds.quantum_layout.dim_of(r)
            for r in order]
    return RegisterLayout(tuple(order), tuple(dims))


@settings(max_examples=120)
@given(
    sizes=st.lists(st.integers(1, 3), min_size=1, max_size=3),
    qdims=st.lists(st.integers(1, 3), min_size=1, max_size=2),
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
)
def test_joint_and_product_matches_dense_embedding(sizes, qdims, data, seed):
    state = _random_state(np.random.default_rng(seed), tuple(sizes), tuple(qdims))
    registers = list(state.conds.registers)
    # each register goes to side a, side b or is dropped; both sides non-empty
    sides = data.draw(st.lists(st.sampled_from("abx"), min_size=len(registers),
                               max_size=len(registers)))
    order = data.draw(st.permutations(registers))
    part_a = [r for r in order if sides[registers.index(r)] == "a"]
    part_b = [r for r in order if sides[registers.index(r)] == "b"]
    if not part_a or not part_b:
        return
    _check_against_dense(state, part_a, part_b)


@pytest.mark.parametrize("part_a, part_b", [
    (["C1", "Q0"], ["Q1", "C0"]),  # mixed
    (["C2", "C0"], ["C1"]),  # all classical
    (["Q1"], ["Q0"]),  # all quantum
    (["Q0", "C1"], ["C2"]),  # quantum on one side only, C0 dropped
])
def test_joint_and_product_groupings(part_a, part_b):
    state = _random_state(np.random.default_rng(5), (2, 3, 2), (2, 3))
    _check_against_dense(state, part_a, part_b)


def _check_against_dense(state, part_a, part_b):
    joint, product = joint_and_product(state, part_a, part_b)
    dense_joint, dense_product = dense_joint_and_product(state, part_a, part_b)
    layout = _classical_major(state, part_a, part_b)
    for ours, dense in ((joint, dense_joint), (product, dense_product)):
        permuted, _ = permute_registers_matrix(ours, layout, part_a + part_b)
        assert np.max(np.abs(permuted - dense)) <= 1e-12
    # both vanish off the detected blocks, which are at least one per joint
    # classical value
    stacks = _block_stack(joint, product)
    conds = state.conds
    assert stacks[0].shape[0] >= math.prod(conds.alphabet_sizes[conds.axis(r)]
                                           for r in part_a + part_b if conds.is_classical(r))
    for op, stack in zip((joint, product), stacks):
        assert np.count_nonzero(stack) == np.count_nonzero(op)


def test_joint_and_product_pairs_run_blockwise(monkeypatch):
    """``D_H`` on ``joint_and_product`` output decomposes one block per classical value."""
    state = _random_state(np.random.default_rng(5), (2, 3, 2), (2, 3))
    joint, product = joint_and_product(state, ["C1", "Q0"], ["Q1", "C0"])
    shapes = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda m: shapes.append(m.shape) or eigh(m))
    hypothesis_testing_divergence(joint, product, 0.25)
    assert shapes and set(shapes) == {(6, 6, 6)}


def _random_grid(rng, sizes, qdims, points):
    """``points`` states over one set of conditionals, as a list of CQStates."""
    base = _random_state(rng, sizes, qdims)
    states = [base]
    for _ in range(points - 1):
        probs = rng.random(sizes) * (rng.random(sizes) < 0.8)
        probs.flat[int(rng.integers(probs.size))] += 0.1
        states.append(CQState(base.conds, probs / probs.sum()))
    return states


def _check_grid(states, part_a, part_b):
    conds = states[0].conds
    joint, product = block_pairs(conds, np.stack([s.probs for s in states]), part_a, part_b)
    for g, state in enumerate(states):
        alone = joint_and_product(state, part_a, part_b)
        assert np.array_equal(_block_diag(joint[g]), alone[0])
        assert np.array_equal(_block_diag(product[g]), alone[1])
        _check_against_dense(state, part_a, part_b)


@settings(max_examples=80)
@given(
    sizes=st.lists(st.integers(1, 3), min_size=1, max_size=3),
    qdims=st.lists(st.integers(1, 3), min_size=1, max_size=2),
    points=st.integers(1, 5),
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
)
def test_grid_blocks_match_each_point_alone(sizes, qdims, points, data, seed):
    """The batched blocks are bitwise the one-point ones and match the dense embedding."""
    states = _random_grid(np.random.default_rng(seed), tuple(sizes), tuple(qdims), points)
    registers = list(states[0].conds.registers)
    sides = data.draw(st.lists(st.sampled_from("abx"), min_size=len(registers), max_size=len(registers)))
    order = data.draw(st.permutations(registers))
    part_a = [r for r in order if sides[registers.index(r)] == "a"]
    part_b = [r for r in order if sides[registers.index(r)] == "b"]
    if part_a and part_b:
        _check_grid(states, part_a, part_b)


@pytest.mark.parametrize("qdims", [(1,), (2,)])
def test_grid_blocks_sum_many_dropped_values(qdims):
    """Nine and eighteen dropped classical values, where numpy's pairwise summation starts."""
    states = _random_grid(np.random.default_rng(11), (3, 3, 2, 2), qdims, 4)
    _check_grid(states, ["C2"], ["Q0"])
    _check_grid(states, ["Q0"], ["C3"])
    _check_grid(states, ["C3", "C2"], ["C0"])


@settings(max_examples=60)
@given(
    sizes=st.lists(st.integers(1, 3), min_size=2, max_size=3),
    qdim=st.sampled_from([2, 3]),
    points=st.integers(1, 4),
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
)
def test_grid_conditional_terms_match_each_point_alone(sizes, qdim, points, data, seed):
    """Conditional terms of a grid: each point's value is the one-point value and the
    max-min over the separately conditioned states (``util.condition_state``), exactly."""
    states = _random_grid(np.random.default_rng(seed), tuple(sizes), (qdim,), points)
    cond, a, b = data.draw(st.permutations(["C0", "C1", "Q0"]))
    if cond == "Q0":
        return
    conds = states[0].conds
    ax = conds.axis(cond)
    # every other point loses one value of cond, so the support differs between points
    empty = data.draw(st.integers(0, sizes[ax] - 1))
    for g in range(1, points, 2):
        probs = states[g].probs.copy()
        np.moveaxis(probs, ax, 0)[empty] = 0.0
        if sizes[ax] > 1 and probs.sum() > 0.0:
            states[g] = CQState(conds, probs / probs.sum())
    probs = np.stack([s.probs for s in states])
    [ht] = grid_terms(conds, probs, [("ht", [a], [b], cond, 0.25)])
    [dmax] = grid_terms(conds, probs, [("max", [a], [b], cond, 0.1)], "none")
    others = tuple(i for i in range(len(sizes)) if i != ax)
    for g, state in enumerate(states):
        assert ht[g] == cond_smooth_ht_mi(state, [a], [b], cond, 0.25)
        assert dmax[g] == cond_smooth_max_mi(state, [a], [b], cond, 0.1)
        pz = state.probs.sum(axis=others)
        support = np.flatnonzero(pz > COND_SUPPORT_TOL)
        given = [condition_state(state, cond, int(z)) for z in support]
        assert ht[g] == max_min(pz[support], np.array([ht_mutual_info(s, [a], [b], 0.25) for s in given]), 0.25)
        assert dmax[g] == max_min(pz[support], np.array([smooth_max_mutual_info(s, [a], [b], 0.1) for s in given]),
                                  0.1)
    with pytest.raises(OperatorError, match=f"conditioning register '{cond}' also appears in a part"):
        grid_terms(conds, probs, [("ht", [a, cond], [b], cond, 0.25)])


def test_conditioning_alphabet_above_twenty():
    """A conditioning alphabet of 21 values, once rejected as past a brute-force bound of 20.

    Each point's conditional ``D_H`` and ``D_max`` equal the per-value
    max-min oracle (``util.max_min``) over the separately conditioned
    states, bit for bit.  The second point has zero-mass values of ``C0``,
    and eps 0.5 lets ``D_max``'s max-min drop several values.
    """
    states = _random_grid(np.random.default_rng(21), (21, 2), (2,), 2)
    conds, probs = _grid(states)
    assert (probs[1].sum(axis=1) <= COND_SUPPORT_TOL).any()
    for kind, eps in (("ht", 0.25), ("max", 0.5)):
        [values] = grid_terms(conds, probs, [(kind, ["C1"], ["Q0"], "C0", eps)])
        one_point = cond_smooth_ht_mi if kind == "ht" else cond_smooth_max_mi
        each = ht_mutual_info if kind == "ht" else smooth_max_mutual_info
        for g, state in enumerate(states):
            pz = state.probs.sum(axis=1)
            support = np.flatnonzero(pz > COND_SUPPORT_TOL)
            given = [condition_state(state, "C0", int(z)) for z in support]
            expected = max_min(pz[support], np.array([each(s, ["C1"], ["Q0"], eps) for s in given]), eps)
            assert values[g] == one_point(state, ["C1"], ["Q0"], "C0", eps) == expected


SMALL_SPLIT = Path(__file__).parent / "data" / "nc_small_split.json"


def _table_terms(theorems, eps=0.25, eta=0.1):
    """The distinct ``(kind, part_a, part_b, cond, eps)`` terms of compiled region tables, in table order."""
    terms = dict.fromkeys(t for theorem in theorems for t in regions._THEOREMS[theorem][0].terms)
    return [(kind, a, b, cond, eps if kind == "ht" else eta) for kind, a, b, cond in terms]


def _grid(states):
    return states[0].conds, np.stack([state.probs for state in states])


def test_grid_terms_match_term_by_term_values(monkeypatch):
    """Terms solved per block shape, in batches of any size, are each term solved alone, bit for bit.

    The grids are sweep grids with zero-mass values: the split-message tables
    on a rank-deficient split channel and ``t1``'s conditional terms on a
    rank-deficient unsplit one.
    """
    split = load_channel(SMALL_SPLIT)
    rng = np.random.default_rng(5)
    unsplit = ChannelSpec("random", {"X1": ("0", "1"), "X2": ("0", "1")}, {"Y1": 2, "Y2": 2, "Z": 2},
                          {(x1, x2): _random_density(rng, 8, 2) for x1 in "01" for x2 in "01"})
    grids = [
        (_grid([control_state_hk(split, dist) for dist in hk_distributions(split, 3)]),
         _table_terms(("conjecture", "t2"))),
        (_grid([control_state_t1(unsplit, dist) for dist in t1_distributions(unsplit, 2, 2)]), _table_terms(("t1",))),
    ]
    for (conds, probs), terms in grids:
        # one more term of a shape already there, at another eps
        terms = terms + [next(("ht", a, b, cond, 0.3) for kind, a, b, cond, _ in terms if kind == "ht")]
        expected = [grid_terms(conds, probs, [term])[0] for term in terms]
        shapes = {(kind, eps, entropic.pair_shape(conds, a, b)) for kind, a, b, _, eps in terms}
        for batch_bytes, solves in ((math.inf, len(shapes)), (1 << 16, None), (1, len(terms))):
            monkeypatch.setattr(entropic, "_BATCH_BYTES", batch_bytes)
            with mock.patch.object(entropic, "_solve_terms", wraps=entropic._solve_terms) as solve:
                got = grid_terms(conds, probs, terms)
            assert [g.tobytes() for g in got] == [e.tobytes() for e in expected], batch_bytes
            assert solves is None or solve.call_count == solves
            assert solve.call_count < len(terms) or batch_bytes == 1


def test_batch_convergence_error_names_the_first_failing_term(monkeypatch):
    """A batch that fails is re-solved term by term in order: the error names the first failing term.

    Rows of the second and third terms fail.  The first and third share a
    block shape, so their batch fails first; the error must still name the
    second term, its grid point and nothing of the third.
    """
    split = load_channel(SMALL_SPLIT)
    conds, probs = _grid([control_state_hk(split, dist) for dist in hk_distributions(split, 3)])
    terms = [("ht", ["X10"], ["Y1"], None, 0.25), ("ht", ["X10", "X11"], ["Y1"], None, 0.25),
             ("ht", ["X20"], ["Y2"], "X11", 0.25)]
    rows = entropic._cond_rows(conds, probs, "X11")
    cond_rows = block_pairs(conds, rows.probs, ["X20"], ["Y2"], rows.given)[0]
    failing = {block_pairs(conds, probs, ["X10", "X11"], ["Y1"])[0][40].tobytes(), cond_rows[-1].tobytes()}
    assert not failing & {row.tobytes() for row in block_pairs(conds, probs, ["X10"], ["Y1"])[0]}
    real, lengths = entropic._dh_betas, []

    def poisoned(rho, sigma, eps):
        lengths.append(len(rho))
        bad = [r for r, row in enumerate(rho) if row.tobytes() in failing]
        if bad:
            raise ConvergenceError(f"straddle detection failed at t=0.5, eps={eps}", bad[0])
        return real(rho, sigma, eps)

    monkeypatch.setattr(entropic, "_dh_betas", poisoned)
    with pytest.raises(ConvergenceError) as sequential:
        for term in terms:
            grid_terms(conds, probs, [term], first=7)
    assert str(sequential.value) == "D_H(X10,X11 : Y1): straddle detection failed at t=0.5, eps=0.25 (grid point 47)"
    lengths.clear()
    with pytest.raises(ConvergenceError) as batched:
        grid_terms(conds, probs, terms, first=7)
    assert str(batched.value) == str(sequential.value)
    # the first and third terms' rows went into one stack first
    assert lengths[0] == len(probs) + len(cond_rows)


def _t1_sweep_grid(channel):
    """``t1``'s sweep grid at resolution 3 over two values of Q: many points share a value's slice."""
    return _grid([control_state_t1(channel, dist) for dist in t1_distributions(channel, 3, 2)])


@settings(max_examples=3)
@given(channel=drawn_channels(split=False))
def test_conditional_terms_of_repeated_slices_match_each_point_alone(channel):
    """A conditional term solves each distinct conditional state once; every point gets its own value.

    On ``t1``'s sweep grid every conditional term of its table has fewer
    rows than supported (point, value) pairs, and its values equal, bit for
    bit, that term's from one ``grid_terms`` call per point.
    """
    conds, probs = _t1_sweep_grid(channel)
    terms = [term for term in _table_terms(("t1",)) if term[3] is not None]
    for *_, cond, _ in terms:
        rows = entropic._cond_rows(conds, probs, cond)
        assert len(rows.points) < np.count_nonzero(rows.pz > COND_SUPPORT_TOL)
    got = grid_terms(conds, probs, terms)
    for g in range(len(probs)):
        alone = grid_terms(conds, probs[g:g + 1], terms)
        assert [v[g:g + 1].tobytes() for v in got] == [v.tobytes() for v in alone], g


def test_a_planned_register_named_in_a_later_part_still_raises():
    """Each term's register checks run, also for a register whose rows an earlier term planned."""
    conds, probs = _t1_sweep_grid(nc_small_unsplit())
    with pytest.raises(OperatorError, match="conditioning register 'Q' also appears in a part"):
        grid_terms(conds, probs, [("ht", ["X1"], ["Y1"], "Q", 0.25), ("ht", ["X1", "Q"], ["Y1"], "Q", 0.25)])


def _spied_rows(monkeypatch):
    """The rows of every ``(rho, sigma)`` stack that reaches ``_dh_betas`` or ``_dmax_values``, as bytes."""
    seen = []

    def spy(real):
        def solver(rho, sigma, *args):
            seen.extend(zip(map(bytes, rho), map(bytes, sigma)))
            return real(rho, sigma, *args)
        return solver

    monkeypatch.setattr(entropic, "_dh_betas", spy(entropic._dh_betas))
    monkeypatch.setattr(entropic, "_dmax_values", spy(entropic._dmax_values))
    return seen


def test_conditional_term_solves_the_distinct_states_in_first_appearance_order(monkeypatch):
    """The solvers see one row per distinct (value, renormalised slice), in order of first appearance.

    The expected rows are built from each point conditioned on each
    supported value alone (``util.condition_state``).
    """
    conds, probs = _t1_sweep_grid(nc_small_unsplit())
    seen = _spied_rows(monkeypatch)
    for kind, a, b, eps in (("ht", ["X1"], ["X2", "Y1"], 0.25), ("max", ["X2"], ["Z", "X1"], 0.1)):
        distinct = {}
        for state in (CQState(conds, p) for p in probs):
            for z in np.flatnonzero(state.probs.sum(axis=(1, 2)) > COND_SUPPORT_TOL).tolist():
                given = condition_state(state, "Q", z)
                distinct.setdefault((z, given.probs.tobytes()), given)
        expected = [tuple(map(bytes, (x[0] for x in block_pairs(s.conds, s.probs[None], a, b))))
                    for s in distinct.values()]
        seen.clear()
        grid_terms(conds, probs, [(kind, a, b, "Q", eps)])
        assert len(distinct) < len(probs)
        assert seen == expected, kind


def test_conditional_states_differing_in_a_zero_sign_are_not_merged(monkeypatch):
    """Slices equal but for ``-0.0`` against ``0.0`` are two rows, each point still its value alone."""
    rng = np.random.default_rng(3)
    layout = RegisterLayout(("Q0",), (2,))
    conds = CQConditionals(("C0", "C1"), (2, 2), layout,
                           np.array([[rand_density(rng, 2, full_rank=False) for _ in range(2)] for _ in range(2)]))
    probs = np.array([[[0.5, 0.0], [0.25, 0.25]], [[0.5, -0.0], [0.25, 0.25]]])
    seen = _spied_rows(monkeypatch)
    for kind, eps in (("ht", 0.25), ("max", 0.1)):
        seen.clear()
        [values] = grid_terms(conds, probs, [(kind, ["C1"], ["Q0"], "C0", eps)])
        # (0, C0=1) and (1, C0=1) are one row; (0, C0=0) and (1, C0=0) differ in a zero's sign
        assert len(seen) == 3, kind
        for g in range(len(probs)):
            [alone] = grid_terms(conds, probs[g:g + 1], [(kind, ["C1"], ["Q0"], "C0", eps)])
            assert values[g:g + 1].tobytes() == alone.tobytes()
