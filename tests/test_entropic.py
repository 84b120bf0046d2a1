import math
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oneshot_secrecy import entropic
from oneshot_secrecy.entropic import (
    ConvergenceError,
    ToleranceParams,
    _max_min,
    _diagonal_scan,
    _np_betas,
    binary_entropy,
    classical_np_oracle,
    cond_smooth_ht_mi,
    cond_smooth_max_mi,
    fact_bound,
    grid_values,
    ht_mutual_info,
    hypothesis_testing_beta,
    hypothesis_testing_divergence,
    max_mutual_info,
    max_relative_entropy,
    relative_entropy,
    smooth_max_mutual_info,
    smooth_max_relative_entropy,
    von_neumann_entropy,
)
from oneshot_secrecy.operators import (
    EIG_CLAMP,
    OperatorError,
    RegisterLayout,
    fidelity,
    partial_trace_matrix,
    purified_distance,
    trace_distance,
    validate_density,
)
from oneshot_secrecy.states import CQConditionals, CQState
from conftest import rand_density, rand_unitary
from util import bisection_beta, dh_dual, diagonal_scan_pairwise

R = np.diag([0.5, 0.5]).astype(complex)
S = np.diag([0.9, 0.1]).astype(complex)


def classical_cq(names, probs, quantum=None):
    """All-classical CQState with a trivial one-dimensional quantum part."""
    probs = np.asarray(probs, dtype=float)
    layout = RegisterLayout(("Y",), (1,)) if quantum is None else quantum[1]
    conds = (
        np.ones(probs.shape + (1, 1), dtype=complex)
        if quantum is None
        else np.broadcast_to(quantum[0], probs.shape + quantum[0].shape).copy()
    )
    return CQState(CQConditionals(names, probs.shape, layout, conds), probs)


def test_tolerance_params_invariants():
    p = ToleranceParams(eps=0.25, eps_prime=0.1, delta=0.01, delta_prime=0.2)
    assert abs(p.eta - 0.1) <= 1e-15
    with pytest.raises(ValueError):
        ToleranceParams(eps=1.5)
    with pytest.raises(ValueError):
        ToleranceParams(eps=0.2, eps_prime=0.3, delta_prime=0.2)
    with pytest.raises(ValueError):
        ToleranceParams(eps=0.2, delta=0.0)


def test_binary_entropy():
    assert abs(binary_entropy(0.5) - 1.0) <= 1e-12
    assert binary_entropy(1e-12) < 1e-9
    assert abs(binary_entropy(0.25) - 0.811278) <= 1e-6
    with pytest.raises(ValueError):
        binary_entropy(0.0)
    with pytest.raises(ValueError):
        binary_entropy(1.0)


def test_von_neumann_entropy(rng):
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    v /= np.linalg.norm(v)
    pure = np.outer(v, v.conj())
    assert abs(von_neumann_entropy(pure)) <= 1e-9
    assert abs(von_neumann_entropy(np.eye(8) / 8) - 3.0) <= 1e-12
    assert abs(von_neumann_entropy(np.diag([0.75, 0.25])) - 0.811278) <= 1e-6


def test_relative_entropy():
    assert relative_entropy(np.diag([1.0, 0]), np.diag([0, 1.0])) == math.inf
    assert abs(relative_entropy(R, R)) <= 1e-12
    assert abs(relative_entropy(R, S) - 0.736966) <= 1e-6


def test_classical_np_oracle_examples():
    beta, div = classical_np_oracle([0.25, 0.25, 0.25, 0.25], [0.25, 0.25, 0.25, 0.25], 0.1)
    assert abs(beta - 0.9) <= 1e-12 and abs(div - math.log2(1 / 0.9)) <= 1e-12
    beta, div = classical_np_oracle([0.5, 0.5], [0.9, 0.1], 0.5)
    assert abs(beta - 0.1) <= 1e-12 and abs(div - math.log2(10)) <= 1e-12
    p = [0.25] * 4 + [0.0] * 4
    q = [0.125] * 8
    beta, div = classical_np_oracle(p, q, 0.25)
    assert abs(beta - 0.375) <= 1e-12 and abs(div - math.log2(8 / 3)) <= 1e-12
    with pytest.raises(ValueError):
        classical_np_oracle([0.5, 0.6], q[:2], 0.1)


# atoms from a small set, so likelihood ratios tie; zero, tiny negative and absent atoms
NP_ATOMS = st.sampled_from([0.0, -1e-13, 1e-14, 0.05, 0.1, 0.1, 0.2, 0.25, 0.4])


@settings(max_examples=200)
@given(
    n=st.integers(1, 12),
    count=st.integers(1, 5),
    data=st.data(),
    eps=st.one_of(st.sampled_from([0.25, 0.5, 0.75]), st.floats(0.01, 0.99)),
)
def test_np_rows_match_the_admission_loop(n, count, data, eps):
    """Every row of the cumulative-sum solver is ``classical_np_oracle``'s loop, bit for bit.

    Every golden file runs this route, so it must not move by an ulp.
    """
    rows = []
    for _ in range(count):
        p = np.array(data.draw(st.lists(NP_ATOMS, min_size=n, max_size=n)))
        q = np.array(data.draw(st.lists(NP_ATOMS, min_size=n, max_size=n)))
        p[data.draw(st.integers(0, n - 1))] += 0.3
        q[data.draw(st.integers(0, n - 1))] += 0.3
        rows.append((p / p.sum(), q / q.sum()))
    betas = _np_betas(np.array([p for p, _ in rows]), np.array([q for _, q in rows]), 1.0 - eps)
    for (p, q), beta in zip(rows, betas.tolist()):
        expected, _ = classical_np_oracle(p, q, eps)
        assert (beta == expected) if expected > 0.0 else (beta <= 0.0), (beta, expected)


def test_ht_divergence_trivial_and_classical():
    assert abs(hypothesis_testing_divergence(R, R, 0.1) - math.log2(1 / 0.9)) <= 1e-9
    assert abs(hypothesis_testing_divergence(R, S, 0.5) - math.log2(10)) <= 1e-9


def test_ht_divergence_matches_oracle_on_commuting(rng):
    for _ in range(25):
        d = int(rng.choice([2, 4, 8]))
        eps = float(rng.choice([0.1, 0.25, 0.5]))
        p, q = rng.dirichlet(np.ones(d)), rng.dirichlet(np.ones(d))
        u = rand_unitary(rng, d)
        dh = hypothesis_testing_divergence(u @ np.diag(p) @ u.conj().T, u @ np.diag(q) @ u.conj().T, eps)
        assert abs(dh - classical_np_oracle(p, q, eps)[1]) <= 1e-6


def test_ht_divergence_lower_bound_and_monotone(rng):
    for _ in range(30):
        d = int(rng.choice([2, 3, 4]))
        rho, sig = rand_density(rng, d), rand_density(rng, d)
        e1, e2 = sorted(rng.uniform(0.05, 0.95, size=2))
        lo = hypothesis_testing_divergence(rho, sig, e1)
        hi = hypothesis_testing_divergence(rho, sig, e2)
        assert lo >= math.log2(1 / (1 - e1)) - 1e-9
        assert lo <= hi + 1e-9


def test_ht_divergence_infinite_off_support():
    rho = np.diag([1.0, 0.0])
    sig = np.diag([0.0, 1.0])
    assert hypothesis_testing_divergence(rho, sig, 0.3) == math.inf
    assert hypothesis_testing_beta(rho, sig, 0.3) == 0.0


def test_max_relative_entropy_examples():
    assert abs(max_relative_entropy(S, S)) <= 1e-12
    assert abs(max_relative_entropy(np.diag([1.0, 0.0]), np.eye(2) / 2) - 1.0) <= 1e-12
    assert abs(max_relative_entropy(R, S) - math.log2(5)) <= 1e-12
    assert max_relative_entropy(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])) == math.inf
    assert max_relative_entropy(R, S) >= relative_entropy(R, S) - 1e-9


def test_diagonal_max_relative_entropy_reads_the_diagonals(monkeypatch):
    """An exactly diagonal pair makes no eigendecomposition, with or without a kernel."""
    def forbidden(m):
        raise AssertionError("eigendecomposition of a diagonal pair")

    monkeypatch.setattr(np.linalg, "eigh", forbidden)
    monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
    assert abs(max_relative_entropy(R, S) - math.log2(5)) <= 1e-12
    assert max_relative_entropy(np.diag([0.5, 0.5, 0.0]), np.diag([0.25, 0.25, 0.5])) == 1.0
    assert max_relative_entropy(np.diag([0.0, 1.0]), np.diag([1.0, 0.0])) == math.inf
    assert max_relative_entropy(np.diag([0.0, 1.0]), np.diag([1.0, 1.0])) == 0.0
    assert max_relative_entropy(np.zeros((2, 2)), S) == -math.inf


def test_smooth_max_relative_entropy():
    # vanishing ball: equals the unsmoothed value under both strategies
    for strategy in ("none", "diagonal-scan"):
        val = smooth_max_relative_entropy(R, S, 1e-9, strategy)
        assert abs(val - max_relative_entropy(R, S)) <= 1e-9
    assert abs(smooth_max_relative_entropy(S, S, 0.3, "diagonal-scan")) <= 1e-9
    rho, sig = np.diag([0.9, 0.1]).astype(complex), np.eye(2).astype(complex) / 2
    scanned = smooth_max_relative_entropy(rho, sig, 0.2, "diagonal-scan")
    assert scanned <= 0.847997 + 1e-6
    assert scanned <= math.log2(0.8 / 0.5) + 1e-6


def test_smooth_max_monotone_in_eps():
    rho, sig = np.diag([0.9, 0.1]).astype(complex), np.eye(2).astype(complex) / 2
    values = [
        smooth_max_relative_entropy(rho, sig, eps, "diagonal-scan")
        for eps in (0.05, 0.1, 0.2, 0.4)
    ]
    unsmoothed = max_relative_entropy(rho, sig)
    assert all(v <= unsmoothed + 1e-9 for v in values)
    assert all(b <= a + 1e-9 for a, b in zip(values, values[1:]))


def test_diagonal_scan_rejects_non_commuting(rng):
    a, b = rand_density(rng, 2), rand_density(rng, 2)
    with pytest.raises(OperatorError):
        smooth_max_relative_entropy(a, b, 0.2, "diagonal-scan")
    with pytest.raises(ValueError):
        smooth_max_relative_entropy(a, b, 0.2, "bogus")


def correlated_bits():
    probs = np.zeros((2, 2))
    probs[0, 0] = probs[1, 1] = 0.5
    return classical_cq(("A", "B"), probs)


def test_ht_mutual_info_cases(rng):
    # product state: divergence of a state against itself
    probs = np.outer([0.3, 0.7], [0.6, 0.4])
    state = classical_cq(("A", "B"), probs)
    assert abs(ht_mutual_info(state, "A", "B", 0.1) - math.log2(1 / 0.9)) <= 1e-9
    assert abs(ht_mutual_info(correlated_bits(), "A", "B", 0.25) - math.log2(8 / 3)) <= 1e-9
    # classical register against an independent maximally mixed qubit
    quantum = (np.eye(2, dtype=complex) / 2, RegisterLayout(("Y",), (2,)))
    state = classical_cq(("A",), np.array([0.5, 0.5]), quantum)
    assert abs(ht_mutual_info(state, "A", "Y", 0.25) - math.log2(1 / 0.75)) <= 1e-9


def test_max_mutual_info_cases():
    probs = np.outer([0.3, 0.7], [0.6, 0.4])
    state = classical_cq(("A", "B"), probs)
    assert abs(max_mutual_info(state, "A", "B")) <= 1e-9
    assert abs(max_mutual_info(correlated_bits(), "A", "B") - 1.0) <= 1e-9
    sm = smooth_max_mutual_info(correlated_bits(), "A", "B", 1e-9)
    assert abs(sm - 1.0) <= 1e-9


def test_cond_optimize_example():
    """The max-min keeps the 0.95 atom of value 1.0 once the 0.05 atom of value 0.2 may go."""
    masses, values = np.array([0.95, 0.05]), np.array([1.0, 0.2])
    assert _max_min(masses, values, 0.3) == 1.0
    # vanishing ball: no atom may be dropped
    assert _max_min(masses, values, 1e-6) == 0.2
    # monotone nondecreasing in eps
    vals = [_max_min(masses, values, e) for e in (0.01, 0.1, 0.23, 0.5)]
    assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))


def test_cond_quantities_reduce_when_deterministic():
    # |Z| = 1 conditioning equals the unconditional quantity
    probs = np.zeros((1, 2, 2))
    probs[0] = [[0.5, 0.0], [0.0, 0.5]]
    state = classical_cq(("Z", "A", "B"), probs)
    flat = correlated_bits()
    for eps in (0.1, 0.3):
        assert abs(
            cond_smooth_ht_mi(state, "A", "B", "Z", eps) - ht_mutual_info(flat, "A", "B", eps)
        ) <= 1e-12
        assert abs(
            cond_smooth_max_mi(state, "A", "B", "Z", eps) - max_mutual_info(flat, "A", "B")
        ) <= 1e-12


def test_cond_alphabet_cap():
    probs = np.full((21, 1), 1.0 / 21)
    state = classical_cq(("Z", "A"), probs)
    with pytest.raises(OperatorError):
        cond_smooth_ht_mi(state, "A", "Z2", "Z", 0.1)


def test_overlapping_parts_rejected():
    state = correlated_bits()
    with pytest.raises(OperatorError, match="overlap"):
        ht_mutual_info(state, ["A"], ["A", "B"], 0.25)


def test_conditioning_register_in_a_part_rejected():
    state = classical_cq(("Z", "A"), np.full((2, 2), 0.25))
    for cond_mi in (cond_smooth_ht_mi, cond_smooth_max_mi):
        with pytest.raises(OperatorError, match="conditioning register 'Z' also appears in a part"):
            cond_mi(state, ["A", "Z"], "Y", "Z", 0.25)


def test_fact_bound_examples():
    assert abs(fact_bound(R, R, 0.5) - 2.0) <= 1e-12
    assert fact_bound(R, R, 0.5) >= hypothesis_testing_divergence(R, R, 0.5) - 1e-9
    rhs = fact_bound(R, S, 0.5)
    assert abs(rhs - (0.736966 + 1.0) / 0.5) <= 1e-5
    assert rhs >= hypothesis_testing_divergence(R, S, 0.5) - 1e-9
    assert fact_bound(np.diag([1.0, 0]), np.diag([0, 1.0]), 0.3) == math.inf


def test_ht_divergence_rank_deficient_cases(rng):
    # sigma rank-deficient but supp(rho) inside supp(sigma)
    rho = np.diag([0.6, 0.4, 0.0]).astype(complex)
    sig = np.diag([0.3, 0.7, 0.0]).astype(complex)
    for eps in (0.05, 0.5, 0.95):
        dh = hypothesis_testing_divergence(rho, sig, eps)
        oracle = classical_np_oracle([0.6, 0.4, 0.0], [0.3, 0.7, 0.0], eps)[1]
        assert abs(dh - oracle) <= 1e-6
    # rho leaks a little mass outside supp(sigma); at eps = 0.9 the leaked
    # mass alone meets the constraint and both sides report +inf
    rho2 = np.diag([0.5, 0.3, 0.2]).astype(complex)
    for eps in (0.3, 0.9):
        dh = hypothesis_testing_divergence(rho2, sig, eps)
        oracle = classical_np_oracle([0.5, 0.3, 0.2], [0.3, 0.7, 0.0], eps)[1]
        assert (math.isinf(dh) and math.isinf(oracle)) or abs(dh - oracle) <= 1e-6
    # dominant leaked mass meets the constraint for free
    rho3 = np.diag([0.05, 0.05, 0.9]).astype(complex)
    assert hypothesis_testing_divergence(rho3, sig, 0.2) == math.inf
    # pure sigma
    pure = np.diag([1.0, 0.0, 0.0]).astype(complex)
    dh = hypothesis_testing_divergence(rho, pure, 0.3)
    oracle = classical_np_oracle([0.6, 0.4, 0.0], [1.0, 0.0, 0.0], 0.3)[1]
    assert abs(dh - oracle) <= 1e-6


def test_data_processing_and_unitary_invariance(rng):
    for _ in range(20):
        rho, sig = rand_density(rng, 4), rand_density(rng, 4)
        eps = float(rng.uniform(0.05, 0.9))
        layout = RegisterLayout(("A", "B"), (2, 2))
        r_a = partial_trace_matrix(rho, layout, ["A"])
        s_a = partial_trace_matrix(sig, layout, ["A"])
        assert (
            hypothesis_testing_divergence(r_a, s_a, eps)
            <= hypothesis_testing_divergence(rho, sig, eps) + 1e-6
        )
        assert max_relative_entropy(r_a, s_a) <= max_relative_entropy(rho, sig) + 1e-9
        u = rand_unitary(rng, 4)
        ru, su = u @ rho @ u.conj().T, u @ sig @ u.conj().T
        assert abs(
            hypothesis_testing_divergence(ru, su, eps) - hypothesis_testing_divergence(rho, sig, eps)
        ) <= 1e-9
        assert abs(max_relative_entropy(ru, su) - max_relative_entropy(rho, sig)) <= 1e-9
        assert abs(relative_entropy(ru, su) - relative_entropy(rho, sig)) <= 1e-9
        # max-relative entropy dominates the relative entropy
        assert max_relative_entropy(rho, sig) >= relative_entropy(rho, sig) - 1e-9


# exact zeros, tiny negatives and, for q, atoms inside the clamp (0, EIG_CLAMP];
# ordinary masses are drawn more often so that most cases bisect
ATOM_KINDS = {
    "zero": st.just(0.0),
    "negative": st.just(-1e-14),
    "clamped": st.floats(1e-13, EIG_CLAMP),
    "mass": st.floats(0.01, 1.0),
}
P_ATOMS = st.sampled_from(["zero", "negative"] + ["mass"] * 4).flatmap(ATOM_KINDS.get)
Q_ATOMS = st.sampled_from(["zero", "negative", "clamped"] + ["mass"] * 6).flatmap(ATOM_KINDS.get)
EPS_WIDE = st.one_of(
    st.floats(1e-6, 1e-3), st.floats(1e-3, 1.0 - 1e-3), st.floats(1.0 - 1e-3, 1.0 - 1e-6)
)


def _beta_or_error(rho, sigma, eps):
    try:
        return hypothesis_testing_beta(rho, sigma, eps)
    except ConvergenceError:
        return None


@settings(max_examples=300)
@given(
    d=st.integers(2, 6),
    data=st.data(),
    p_trace=st.floats(0.6, 1.4),
    eps=EPS_WIDE,
    seed=st.integers(0, 2**32 - 1),
)
def test_diagonal_dh_matches_bisection(d, data, p_trace, eps, seed):
    """The exact diagonal path agrees with the bisection on a rotated copy."""
    p = np.array(data.draw(st.lists(P_ATOMS, min_size=d, max_size=d)))
    q = np.array(data.draw(st.lists(Q_ATOMS, min_size=d, max_size=d)))
    if p.sum() <= 0.5:
        p[0] += 1.0
    p = p * (p_trace / p.sum())
    u = rand_unitary(np.random.default_rng(seed), d)
    rho, sigma = np.diag(p).astype(complex), np.diag(q).astype(complex)
    fast = _beta_or_error(rho, sigma, eps)
    slow = _beta_or_error(u @ rho @ u.conj().T, u @ sigma @ u.conj().T, eps)
    assert (fast is None) == (slow is None), (fast, slow)
    if fast is not None:
        assert abs(fast - slow) <= 1e-9


def test_diagonal_dh_support_convention():
    # the p mass on {q <= EIG_CLAMP} meets the target: beta is 0 on both paths
    p, q = np.array([0.5, 0.25, 0.25]), np.array([0.5 * EIG_CLAMP, 0.0, 1.0])
    u = rand_unitary(np.random.default_rng(3), 3)
    rho, sigma = np.diag(p).astype(complex), np.diag(q).astype(complex)
    for eps in (0.25, 0.3):
        assert hypothesis_testing_beta(rho, sigma, eps) == 0.0
        assert hypothesis_testing_beta(u @ rho @ u.conj().T, u @ sigma @ u.conj().T, eps) == 0.0
    # short of it, both kernel atoms are admitted first and the clamped one
    # costs its own tiny q; the rest comes from the last atom at ratio 1/4
    for r, s in ((rho, sigma), (u @ rho @ u.conj().T, u @ sigma @ u.conj().T)):
        assert abs(hypothesis_testing_beta(r, s, 0.2) - 0.2) <= 2 * EIG_CLAMP


def _ranked_block(rng, d, rank):
    g = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
    return g @ g.conj().T


def _ranked_pair(k, d, data, kernel_weight, seed):
    """Block-diagonal ``(rho, sigma)`` of ``k`` blocks of size ``d`` with random ranks.

    Without kernel weight, rho's blocks are compressed into sigma's support;
    with it, rho keeps weight on sigma's kernel.
    """
    rng = np.random.default_rng(seed)
    ranks = st.lists(st.integers(1, d), min_size=k, max_size=k)
    rho = np.zeros((k * d, k * d), dtype=complex)
    sigma = np.zeros_like(rho)
    for i, (r_rho, r_sigma) in enumerate(zip(data.draw(ranks), data.draw(ranks))):
        block = slice(i * d, (i + 1) * d)
        sigma[block, block] = _ranked_block(rng, d, r_sigma)
        rho[block, block] = _ranked_block(rng, d, r_rho)
        if not kernel_weight:
            w, v = np.linalg.eigh(sigma[block, block])
            proj = v[:, w > 1e-9] @ v[:, w > 1e-9].conj().T
            rho[block, block] = proj @ rho[block, block] @ proj
    return rho / np.trace(rho).real, sigma / np.trace(sigma).real


RANKED_PAIRS = dict(
    k=st.integers(1, 4),
    d=st.integers(2, 5),
    data=st.data(),
    kernel_weight=st.booleans(),
    eps=st.floats(0.01, 0.99),
    seed=st.integers(0, 2**32 - 1),
)


@settings(max_examples=200)
@given(**RANKED_PAIRS)
def test_threshold_search_matches_bisection(k, d, data, kernel_weight, eps, seed):
    """The breakpoint search agrees with a plain bisection on non-commuting pairs.

    Blocks of both operators have random ranks (see :func:`_ranked_pair`);
    with kernel weight the breakpoints only steer the search.  Only the
    bisection may fail to converge where the other returns.
    """
    rho, sigma = _ranked_pair(k, d, data, kernel_weight, seed)
    fast = _beta_or_error(rho, sigma, eps)
    try:
        slow = bisection_beta(rho, sigma, eps)
    except ConvergenceError:
        return
    assert fast is not None, slow
    assert abs(fast - slow) <= 1e-8 * abs(slow), (fast, slow)


@settings(max_examples=100)
@given(**RANKED_PAIRS)
def test_divergences_meet_their_dual_certificates(k, d, data, kernel_weight, eps, seed):
    """``D_H`` and ``D_max`` against certificates that share no code with the solver.

    Every dual value ``g(mu)`` bounds beta from below, and the best one
    reaches it; ``2^D_max sigma - rho`` is positive semidefinite and stops
    being so just below ``2^D_max``.
    """
    rho, sigma = _ranked_pair(k, d, data, kernel_weight, seed)
    beta = _beta_or_error(rho, sigma, eps)
    if beta is not None:
        best, probes = dh_dual(rho, sigma, eps)
        tol = 1e-9 + 1e-7 * beta
        assert all(value <= beta + tol for _, value in probes), (beta, max(v for _, v in probes))
        assert beta <= best + tol, (beta, best)
    d_max = max_relative_entropy(rho, sigma)
    if math.isfinite(d_max):
        lam = 2.0**d_max
        assert np.linalg.eigvalsh(lam * sigma - rho)[0] >= -1e-9
        assert np.linalg.eigvalsh(lam * (1.0 - 1e-6) * sigma - rho)[0] < 0.0
    else:
        # rho weighs on sigma's kernel
        w, v = np.linalg.eigh(sigma)
        kernel = v[:, w <= 1e-9]
        assert np.trace(kernel.conj().T @ rho @ kernel).real >= EIG_CLAMP


@pytest.mark.parametrize("seed", range(6))
def test_commuting_blocks_end_at_a_breakpoint(monkeypatch, seed):
    """Rotated diagonal blocks need one bracket probe plus a binary search of the breakpoints."""
    rng = np.random.default_rng(seed)
    k, d = 3, 4
    n = k * d
    p, q = rng.random(n), rng.random(n)
    p, q = p / p.sum(), q / q.sum()
    rho = np.zeros((n, n), dtype=complex)
    sigma = np.zeros_like(rho)
    for i in range(k):
        block = slice(i * d, (i + 1) * d)
        u = rand_unitary(rng, d)
        rho[block, block] = u @ np.diag(p[block]) @ u.conj().T
        sigma[block, block] = u @ np.diag(q[block]) @ u.conj().T
    eigh = np.linalg.eigh
    for eps in (0.05, 0.25, 0.5, 0.9):
        calls = []
        monkeypatch.setattr(np.linalg, "eigh", lambda m: calls.append(m) or eigh(m))
        beta = hypothesis_testing_beta(rho, sigma, eps)
        monkeypatch.undo()
        # the first call decomposes sigma; every later one is a probe of rho - t sigma
        assert len(calls) - 1 <= math.ceil(math.log2(n)) + 2, len(calls)
        assert abs(beta - classical_np_oracle(p, q, eps)[0]) <= 1e-9


def test_bracket_grows_past_the_breakpoints():
    """With rho weighing on sigma's kernel the crossing can lie beyond lam_max + 1."""
    rng = np.random.default_rng(4)
    u = rand_unitary(rng, 3)
    # sigma's kernel is the third axis; rho couples it to the support
    sigma = u @ np.diag([0.6, 0.4, 0.0]).astype(complex) @ u.conj().T
    rho = np.array([[0.3, 0.05, 0.2], [0.05, 0.2, 0.15], [0.2, 0.15, 0.5]], dtype=complex)
    rho = u @ rho @ u.conj().T
    eps = 0.45
    inv_half = u @ np.diag([0.6 ** -0.5, 0.4 ** -0.5, 0.0]) @ u.conj().T
    lam_max = float(np.linalg.eigvalsh(inv_half @ rho @ inv_half).max())
    w, v = np.linalg.eigh(rho - (lam_max + 1.0) * sigma)
    above = v[:, w > 0.0]
    # P_+ at the first bracket end still accepts more of rho than the target
    assert np.trace(above.conj().T @ rho @ above).real > 1.0 - eps
    expected = bisection_beta(rho, sigma, eps)
    assert expected > 0.0
    assert abs(hypothesis_testing_beta(rho, sigma, eps) - expected) <= 1e-8 * expected


@given(
    d=st.integers(2, 5),
    data=st.data(),
    eps=st.floats(0.01, 0.5),
)
def test_diagonal_scan_matches_pairwise_loop(d, data, eps):
    masses = st.one_of(st.just(0.0), st.floats(0.01, 1.0))
    p = np.array(data.draw(st.lists(masses, min_size=d, max_size=d)))
    q = np.array(data.draw(st.lists(masses, min_size=d, max_size=d)))
    p[0] += 0.05
    q[-1] += 0.05
    p, q = p / p.sum(), q / q.sum()
    assert _diagonal_scan(p, q, eps) == diagonal_scan_pairwise(p, q, eps)


@given(d=st.integers(1, 6), data=st.data(), eps=st.floats(0.01, 0.5))
def test_diagonal_smoothing_matches_eigenbasis_path(d, data, eps):
    """Reading a diagonal pair off its diagonals gives the eigenbasis path's value.

    ``eigh`` is exact on diagonal input, so the two must agree exactly.
    """
    p = np.array(data.draw(st.lists(P_ATOMS, min_size=d, max_size=d)))
    q = np.array(data.draw(st.lists(Q_ATOMS, min_size=d, max_size=d)))
    p[0] += 0.05
    rho, sigma = np.diag(p / p.sum()).astype(complex), np.diag(q).astype(complex)
    fast = smooth_max_relative_entropy(rho, sigma, eps, "diagonal-scan")
    with mock.patch.object(entropic, "_is_diagonal", lambda m: False):
        slow = smooth_max_relative_entropy(rho, sigma, eps, "diagonal-scan")
    assert fast == slow


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_inputs_rejected(bad):
    m = np.diag([0.5, 0.5]).astype(complex)
    m_bad = m.copy()
    m_bad[0, 1] = bad
    d_bad = np.diag([0.5, bad]).astype(complex)
    with pytest.raises(OperatorError, match="non-finite"):
        validate_density(d_bad)
    with pytest.raises(ValueError, match="non-finite"):
        classical_np_oracle([0.5, bad], [0.5, 0.5], 0.25)
    with pytest.raises(ValueError, match="non-finite"):
        classical_np_oracle([0.5, 0.5], [bad, 0.5], 0.25)
    gated = (
        partial(hypothesis_testing_beta, eps=0.25),
        max_relative_entropy,
        partial(smooth_max_relative_entropy, eps=0.25, strategy="none"),
        partial(smooth_max_relative_entropy, eps=0.25, strategy="diagonal-scan"),
        relative_entropy,
        partial(fact_bound, eps=0.25),
        trace_distance,
        fidelity,
        purified_distance,
    )
    for divergence in gated:
        for rho, sigma in ((d_bad, m), (m, d_bad), (m_bad, m), (m, m_bad)):
            with pytest.raises(OperatorError, match="non-finite"):
                divergence(rho, sigma)
    for op in (d_bad, m_bad):
        with pytest.raises(OperatorError, match="non-finite"):
            von_neumann_entropy(op)
    with pytest.raises(OperatorError, match="dimension mismatch"):
        smooth_max_relative_entropy(m, np.eye(3) / 3, 0.25, "diagonal-scan")


def test_convergence_error_names_the_term(monkeypatch):
    def failing(rho, sigma, eps):
        raise ConvergenceError(f"straddle detection failed at t=0.5, eps={eps}", 0)

    monkeypatch.setattr(entropic, "_dh_betas", failing)
    with pytest.raises(ConvergenceError, match=r"^D_H\(A : B\): straddle .* eps=0\.25$"):
        ht_mutual_info(correlated_bits(), "A", "B", 0.25)


def test_convergence_error_names_the_grid_point_and_conditioning_value(monkeypatch):
    """A conditional term's rows are (point, value) pairs; ``first`` offsets the point."""
    def failing(rho, sigma, eps):
        # rows (0, C=0), (0, C=1), (1, C=0), (1, C=1): the last one fails
        assert len(rho) == 4
        raise ConvergenceError(f"straddle detection failed at t=0.5, eps={eps}", 3)

    monkeypatch.setattr(entropic, "_dh_betas", failing)
    conds = classical_cq(("A", "B", "C"), np.full((2, 2, 2), 0.125)).conds
    probs = np.stack([np.full((2, 2, 2), 0.125), np.full((2, 2, 2), 0.125)])
    with pytest.raises(ConvergenceError, match=r"^D_H\(A : B \| C\): straddle .* eps=0\.25 \(grid point 11, C=1\)$"):
        grid_values("ht", conds, probs, ["A"], ["B"], "C", 0.25, first=10)
    with pytest.raises(ConvergenceError, match=r"^D_H\(A : B \| C\): straddle .* eps=0\.25 \(C=1\)$"):
        grid_values("ht", conds, probs, ["A"], ["B"], "C", 0.25)
