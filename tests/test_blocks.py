"""Block-diagonal operators: the blockwise solvers against the dense ones.

``joint_and_product`` returns operators in classical-major order, block
diagonal with one block per classical value; the divergences solve them on
the blocks when told the block count.  The dense oracles here are the same
divergences with ``blocks=1`` and the dense embedding in ``tests/util.py``.
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
    max_relative_entropy,
    smooth_max_relative_entropy,
)
from oneshot_secrecy.operators import OperatorError, RegisterLayout, permute_registers_matrix
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


def _beta_or_error(rho, sigma, eps, blocks):
    try:
        return hypothesis_testing_beta(rho, sigma, eps, blocks=blocks)
    except ConvergenceError:
        return None


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
    fast, slow = _beta_or_error(rho, sigma, eps, k), _beta_or_error(rho, sigma, eps, 1)
    assert (fast is None) == (slow is None), (fast, slow)
    if fast is not None:
        assert abs(fast - slow) <= 1e-9
    fast, slow = max_relative_entropy(rho, sigma, blocks=k), max_relative_entropy(rho, sigma)
    assert fast == slow or abs(fast - slow) <= 1e-9, (fast, slow)
    smoothed = smooth_max_relative_entropy(rho, sigma, eps, blocks=k)
    assert smoothed == fast


def test_off_block_entries_rejected():
    rho = np.diag([0.25, 0.25, 0.25, 0.25]).astype(complex)
    sigma = rho.copy()
    sigma[0, 2] = sigma[2, 0] = 1e-300
    for fn in (lambda r, s, b: hypothesis_testing_beta(r, s, 0.25, blocks=b),
               lambda r, s, b: max_relative_entropy(r, s, blocks=b),
               lambda r, s, b: smooth_max_relative_entropy(r, s, 0.25, blocks=b)):
        with pytest.raises(OperatorError, match="outside the 2 diagonal blocks"):
            fn(rho, sigma, 2)
        with pytest.raises(OperatorError, match="outside the 2 diagonal blocks"):
            fn(sigma, rho, 2)
        with pytest.raises(OperatorError, match="does not split into 3 equal blocks"):
            fn(rho, rho, 3)
        fn(rho, sigma, 1)


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
    # both are block diagonal with one block per joint classical value
    k = state.classical_dim(part_a + part_b)
    for op in (joint, product):
        stack = _block_stack(op, k)
        assert stack.shape == (k, op.shape[0] // k, op.shape[0] // k)
