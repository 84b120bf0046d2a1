"""Block-diagonal operators: the blockwise solvers against dense oracles.

``joint_and_product`` returns operators in classical-major order, block
diagonal with one block per classical value; the divergences read the
finest common blocks off the operators and solve them blockwise.  The dense
oracles are the same divergences on the pair conjugated by a random unitary
that mixes every block (``D_H`` and ``D_max`` do not change under a unitary,
and the rotated pair has a single block), and the dense embedding in
``tests/util.py``.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oneshot_secrecy.entropic import (
    ConvergenceError,
    _block_stack,
    hypothesis_testing_beta,
    hypothesis_testing_divergence,
    max_relative_entropy,
    smooth_max_relative_entropy,
)
from oneshot_secrecy.operators import RegisterLayout, permute_registers_matrix
from oneshot_secrecy.states import CQState, joint_and_product
from util import dense_joint_and_product

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
    return CQState(cl, sizes, probs, qu, conds)


def _classical_major(state, part_a, part_b):
    """Layout of the classical-major order (a_cl, b_cl, a_qu, b_qu)."""
    order = ([r for r in part_a if state.is_classical(r)] + [r for r in part_b if state.is_classical(r)]
             + [r for r in part_a if not state.is_classical(r)]
             + [r for r in part_b if not state.is_classical(r)])
    dims = [state.size_of(r) if state.is_classical(r) else state.quantum_layout.dim_of(r)
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
    registers = list(state.registers)
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
    assert stacks[0].shape[0] >= state.classical_dim(part_a + part_b)
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
