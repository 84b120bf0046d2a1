import itertools
import json
import math
import runpy
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oneshot_secrecy import cli, entropic
from oneshot_secrecy.channel import control_state_hk, distribution_from_document, load_channel, load_distribution
from oneshot_secrecy.entropic import (
    ConvergenceError,
    ToleranceParams,
    _diagonal_scan,
    _max_min,
    _np_betas,
    binary_entropy,
    classical_np_oracle,
    cond_smooth_ht_mi,
    cond_smooth_max_mi,
    fact_bound,
    grid_terms,
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
    KEPT_MASS_SLACK,
    OperatorError,
    RegisterLayout,
    fidelity,
    partial_trace_matrix,
    purified_distance,
    trace_distance,
    validate_density,
)
from oneshot_secrecy.states import CQConditionals, CQState, _block_diag, joint_and_product
from conftest import rand_density, rand_unitary
from util import bisection_beta, dh_dual, diagonal_scan_pairwise, max_min, threshold_betas_generators

BENCH_INPUTS = Path(__file__).resolve().parent.parent / "bench" / "inputs.py"
NC_SMALL_SPLIT = Path(__file__).parent / "data" / "nc_small_split.json"

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
    masses, values = np.array([[0.95, 0.05]]), np.array([[1.0, 0.2]])

    def max_min(eps):
        return float(_max_min(masses, values[None], np.ones((1, 2), dtype=bool), [eps])[0, 0])

    assert max_min(0.3) == 1.0
    # vanishing ball: no atom may be dropped
    assert max_min(1e-6) == 0.2
    # monotone nondecreasing in eps
    vals = [max_min(e) for e in (0.01, 0.1, 0.23, 0.5)]
    assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))


def _eps_at(kept: float) -> float | None:
    """An eps in (0, 1) whose ``1 - eps^2 - KEPT_MASS_SLACK`` is exactly ``kept``, if a float near the root has it."""
    eps = math.sqrt(max(1.0 - KEPT_MASS_SLACK - kept, 0.0))
    for _ in range(200):
        if not 0.0 < eps < 1.0:
            return None
        threshold = 1.0 - eps * eps - KEPT_MASS_SLACK
        if threshold == kept:
            return eps
        eps = math.nextafter(eps, math.inf if threshold > kept else -math.inf)
    return None


@settings(max_examples=300)
@given(
    data=st.data(),
    eps=st.lists(st.one_of(st.floats(1e-9, 1e-3), st.floats(0.01, 0.99), st.floats(0.999, 1.0 - 1e-9)),
                 min_size=1, max_size=4),
    at_boundary=st.booleans(),
)
def test_max_min_rows_match_the_per_point_loop(data, eps, at_boundary):
    """Each term's array max-min of every row is, byte for byte, the loop over that row's supported atoms.

    One to four terms, each with its own eps and values, share one set of
    masses and supports, as a register's terms do in ``grid_terms``.
    Values tie and reach +-inf; unsupported atoms keep a mass the rows must
    ignore; up to 20 atoms, so a row's total is often a pairwise sum of 8 or
    more.  ``at_boundary`` puts the first term's threshold exactly on a kept
    mass of its first row after one or more drops, where one ulp of that
    mass decides the answer.
    """
    terms = len(eps)
    n = data.draw(st.integers(1, 20))
    rows = data.draw(st.integers(1, 5))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    # a drawn share of the values come from a few, so they tie
    shape = (terms, rows, n)
    values = np.where(rng.random(shape) < data.draw(st.sampled_from([0.0, 0.5, 1.0])),
                      rng.choice([-math.inf, -1.5, 0.0, 0.25, 2.0, math.inf], shape), rng.normal(size=shape))
    raw = rng.uniform(1e-3, 1.0, (rows, n))
    support = rng.random((rows, n)) < data.draw(st.sampled_from([0.3, 0.7, 1.0]))
    support[:, 0] |= ~support.any(axis=1)
    masses = raw / np.where(support, raw, 0.0).sum(axis=1, keepdims=True)
    if at_boundary:
        m, v = masses[0, support[0]], values[0, 0, support[0]]
        assume(len(m) > 1)
        kept = float(m.sum())
        for atom in m[np.argsort(v, kind="stable")][:data.draw(st.integers(1, len(m) - 1))]:
            kept -= atom
        eps[0] = _eps_at(kept)
        assume(eps[0] is not None)
    expected = np.array([[max_min(masses[g, support[g]], values[t, g, support[g]], e) for g in range(rows)]
                         for t, e in enumerate(eps)])
    assert _max_min(masses, values, support, eps).tobytes() == expected.tobytes()


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
    """Rotated diagonal blocks need at most one bracket probe plus a binary search of the breakpoints."""
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


def _sweep_corner(tmp_path):
    """The benchmark's seed-0 sweep channel and a corner-point distribution, written under ``tmp_path``."""
    channel = runpy.run_path(str(BENCH_INPUTS))["write_inputs"]("sweep", 0, tmp_path)["small_split"]
    dist = tmp_path / "dist.json"
    dist.write_text(json.dumps({"x10": [0, 1], "x11": [0, 1], "x20": [1 / 39, 38 / 39], "x22": [31 / 39, 8 / 39]}))
    return channel, dist


def test_final_probe_bisects_a_smooth_piece_steeper_than_the_bracket(tmp_path):
    """The benchmark's seed-0 sweep channel at a corner point, where rho weighs on sigma's kernel.

    The search closes on a bracket across which the type-I weight falls by
    about 4e-9, so its midpoint misses the target by 2e-9 > TYPE_I_TOL; the
    search bisects on from there, the command exits 0 and beta meets both oracles.
    """
    channel, dist = _sweep_corner(tmp_path)
    assert cli.main(["quantities", "--channel", str(channel), "--dist", str(dist),
                     "--grouping", "X10,X11,X20:Y1,Y2,Z", "--eps", "0.25"]) == 0
    state = control_state_hk(load_channel(channel), load_distribution(dist))
    rho, sigma = joint_and_product(state, ["X10", "X11", "X20"], ["Y1", "Y2", "Z"])
    beta = hypothesis_testing_beta(rho, sigma, 0.25)
    slow = bisection_beta(rho, sigma, 0.25)
    assert abs(beta - slow) <= 1e-8 * slow, (beta, slow)
    best, probes = dh_dual(rho, sigma, 0.25)
    tol = 1e-9 + 1e-7 * beta
    assert all(value <= beta + tol for _, value in probes)
    assert beta <= best + tol, (beta, best)


def _unit(rng, n):
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return v / np.linalg.norm(v)


def _search_rows(tmp_path, target):
    """One ``(8, 8, 8)`` block-stack row per way a threshold search ends, keyed by kind (see ``SEARCH_ENDS``).

    ``jump`` commutes within each block, so its type-I weight is a step
    function and the search ends on a breakpoint; ``smooth`` has a pure
    rho, one breakpoint and a smooth piece before it that holds the target;
    ``kernel`` has rho weigh on sigma's kernel, so the bracket must grow;
    ``zero`` has rho only on sigma's kernel, just inside ``TYPE_I_TOL`` of
    the target, and beta 0.  ``bisect-above`` is the pair of
    :func:`test_final_probe_bisects_a_smooth_piece_steeper_than_the_bracket`,
    whose final band misses above the type-I window, and ``bisect-below``
    one of the same channel whose final band misses below it.  Every row
    but ``jump`` has dead blocks.
    """
    rng = np.random.default_rng(0)
    k, d = 8, 8
    rows = {}
    rho, sigma = np.zeros((2, k, d, d), dtype=complex)
    for i in range(k):
        u = rand_unitary(rng, d)
        rho[i] = u @ np.diag(rng.random(d)) @ u.conj().T
        sigma[i] = u @ np.diag(rng.random(d) + 0.1) @ u.conj().T
    rows["jump"] = (rho / np.trace(rho, axis1=1, axis2=2).real.sum(),
                    sigma / np.trace(sigma, axis1=1, axis2=2).real.sum())
    rho, sigma = np.zeros((2, k, d, d), dtype=complex)
    psi = _unit(rng, d)
    rho[0], sigma[0] = np.outer(psi, psi.conj()), rand_density(rng, d)
    rows["smooth"] = rho, sigma
    rho, sigma = np.zeros((2, k, d, d), dtype=complex)
    u = rand_unitary(rng, d)
    psi = np.concatenate([[math.sqrt(0.9 * target)], math.sqrt(1.0 - 0.9 * target) * _unit(rng, d - 1)])
    rho[0] = u @ np.outer(psi, psi.conj()) @ u.conj().T
    sigma[0] = u @ np.diag(np.concatenate([[0.0], rng.random(d - 1) + 0.1])) @ u.conj().T
    rows["kernel"] = rho, sigma / np.trace(sigma[0]).real
    rho, sigma = np.zeros((2, k, d, d), dtype=complex)
    rho[0, 0, 0] = target - 1e-10
    sigma[0] = np.diag(np.concatenate([[0.0], rng.random(d - 1) + 0.1]))
    for i in range(1, k):
        sigma[i] = rand_density(rng, d)
    rows["zero"] = rho, sigma / np.trace(sigma, axis1=1, axis2=2).real.sum()
    channel, dist = _sweep_corner(tmp_path)
    channel = load_channel(channel)
    for kind, dist in (("bisect-above", load_distribution(dist)),
                       ("bisect-below", distribution_from_document({"x10": [0, 1], "x11": [0, 1],
                                                                    "x20": [0.05, 0.95], "x22": [0.9, 0.1]}))):
        state = control_state_hk(channel, dist)
        rows[kind] = entropic._block_stack(*joint_and_product(state, ["X10", "X11", "X20"], ["Y1", "Y2", "Z"]))
    return rows


# how each row of _search_rows ends its search uncapped, and whether its first probe is certified
SEARCH_ENDS = {"jump": (True, "jump"), "smooth": (True, "band"), "kernel": (False, "band"),
               "zero": (False, "band"), "bisect-above": (False, "bisect"), "bisect-below": (False, "bisect")}


def _outcome(solver, *args):
    """A solve's bytes, or its error's class, text and row."""
    try:
        return solver(*args).tobytes()
    except ConvergenceError as exc:
        return type(exc), str(exc), exc.row


def test_array_search_matches_the_generator_search(tmp_path, monkeypatch):
    """``_threshold_betas`` gives the generator search's bytes, or its error's class, text and row.

    The rows of :func:`_search_rows` are solved together, in both orders,
    and each alone, at ``_MAX_ITER`` 1-7, at 15-17, where ``bisect-above``
    reaches its final band with 14 probes counted (15 and 16 fail there, so
    the first final-band probe must go uncounted), and at 200.  Uncapped, each row ends as ``SEARCH_ENDS`` names,
    so certified rows mix with probed ones; capped, every failure text turns up.
    """
    eps = 0.25
    rows = _search_rows(tmp_path, 1.0 - eps)
    kinds = list(SEARCH_ENDS)
    failures = set()
    for max_iter in (*range(1, 8), 15, 16, 17, 200):
        monkeypatch.setattr(entropic, "_MAX_ITER", max_iter)
        for order in [kinds, kinds[::-1]] + [[kind] for kind in kinds]:
            a, b = (np.stack(side) for side in zip(*(rows[kind] for kind in order)))
            labels = 3 * np.arange(len(order)) + 1
            ends = {}
            got = _outcome(entropic._threshold_betas, a, b, 1.0 - eps, eps, labels)
            assert got == _outcome(threshold_betas_generators, a, b, 1.0 - eps, eps, labels, ends), (max_iter, order)
            if isinstance(got, tuple):
                failures.add(" ".join(got[1].split()[:2]))
            elif max_iter == 200:
                assert {order[i]: end for i, end in ends.items()} == {kind: SEARCH_ENDS[kind] for kind in order}
                assert all(beta == 0.0 for kind, beta in zip(order, np.frombuffer(got)) if kind == "zero")
    assert failures == {"could not", "no convergence", "straddle detection"}


def test_sweep_batches_match_the_generator_search(tmp_path, monkeypatch):
    """Every ``_threshold_betas`` batch of the ``sweep_conjecture_nc`` golden command gives the generator search's bytes.

    The golden CSV prints 12 digits; this pins the batches' betas at full
    precision, on the stacks a real sweep builds.
    """
    solve, calls = entropic._threshold_betas, []

    def recorded(*args):
        betas = solve(*args)
        calls.append((args, betas))
        return betas

    monkeypatch.setattr(entropic, "_threshold_betas", recorded)
    assert cli.main(["sweep", "--channel", str(NC_SMALL_SPLIT), "--theorem", "conjecture", "--eps", "0.25",
                     "--grid", "3", "--penalties", "off", "--csv", str(tmp_path / "sweep.csv")]) == 0
    assert calls
    for args, betas in calls:
        assert betas.tobytes() == threshold_betas_generators(*args).tobytes()


def test_sigma_weights_are_formed_once_per_searching_row(tmp_path, monkeypatch):
    """Each step forms rho's weights on the open blocks; a row's sigma weights are formed once, when it finishes.

    One solve mixes the rows of :func:`_search_rows` with a row that sigma's
    kernel settles before any search.  Every ``_weights`` call is read as
    the live blocks of some rows of one side, in row order: the set-up call
    takes rho on every live block, the call after each probe takes rho on
    the blocks of the rows still open, and any other call takes sigma on the
    blocks of rows that are open and then leave.  So every searching row
    leaves exactly once, and the settled row's sigma is never formed.
    """
    eps = 0.25
    target = 1.0 - eps
    rows = _search_rows(tmp_path, target)
    rho, sigma = np.zeros((2, 8, 8, 8), dtype=complex)
    rho[0, 0, 0] = 1.0
    sigma[0] = np.diag([0.0] + [1.0 / 7.0] * 7)
    rows["settled"] = rho, sigma
    kinds = list(SEARCH_ENDS)
    kinds.insert(1, "settled")
    a, b = (np.stack(side) for side in zip(*(rows[kind] for kind in kinds)))
    labels = np.arange(len(kinds))
    live = entropic._live_blocks(a, b)
    weights, eigh = entropic._weights, entropic._eigh
    seen, decomposed = [], []
    monkeypatch.setattr(entropic, "_weights", lambda m, v: seen.append(m) or weights(m, v))
    monkeypatch.setattr(entropic, "_eigh", lambda m: decomposed.append(m) or eigh(m))
    betas = entropic._threshold_betas(a, b, target, eps, labels)
    monkeypatch.undo()
    assert betas.tobytes() == threshold_betas_generators(a, b, target, eps, labels).tobytes()

    def blocks(side, which):
        return np.concatenate([side[r][live[r]] for r in which])

    assert np.array_equal(seen[0], blocks(a, labels))
    searching = [r for r, kind in enumerate(kinds) if kind != "settled"]
    steps = 0
    for m in seen[1:]:
        if searching and np.array_equal(m, blocks(a, searching)):
            steps += 1
            continue
        leaving = next((which for n in range(1, len(searching) + 1)
                        for which in itertools.combinations(searching, n) if np.array_equal(m, blocks(b, which))),
                       None)
        assert leaving is not None, m.shape
        searching = [r for r in searching if r not in leaving]
    assert not searching
    # the first decomposition is sigma's; each later one is a probe
    assert steps == len(decomposed) - 1


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


# atoms of a scan draw beside the one that holds the rest of the mass: zeros,
# atoms just above the clamp, below the transfer step and exact multiples of
# it, and repeated masses for ties
SCAN_ATOMS = st.one_of(
    st.just(0.0),
    st.floats(EIG_CLAMP, 2.0 * EIG_CLAMP, exclude_min=True),
    st.floats(0.0, entropic._SCAN_STEP, exclude_min=True, exclude_max=True),
    st.integers(1, 1000).map(lambda k: k * entropic._SCAN_STEP),
    st.sampled_from([0.05, 0.1]),
    st.floats(0.01, 0.1),
)


def scan_vector(data, d):
    """A distribution on ``d`` atoms: normalized masses with zeros, or exact ``SCAN_ATOMS`` beside one atom.

    Atoms within ``EIG_CLAMP`` of zero are zeroed, as the scan's callers do.
    """
    if data.draw(st.booleans()):
        v = np.array(data.draw(st.lists(st.one_of(st.just(0.0), st.floats(0.01, 1.0)), min_size=d, max_size=d)))
        v[data.draw(st.integers(0, d - 1))] += 0.05
        v = v / v.sum()
    else:
        atoms = data.draw(st.lists(SCAN_ATOMS, min_size=d - 1, max_size=d - 1))
        v = np.array([1.0 - sum(atoms)] + atoms)[data.draw(st.permutations(range(d)))]
    return np.where(v <= EIG_CLAMP, 0.0, v)


@settings(max_examples=300)
@given(d=st.integers(1, 8), data=st.data(), eps=EPS_WIDE, same=st.booleans())
def test_diagonal_scan_matches_pairwise_loop(d, data, eps, same):
    p = scan_vector(data, d)
    q = p.copy() if same else scan_vector(data, d)
    assert _diagonal_scan(p[None], q[None], eps)[0] == diagonal_scan_pairwise(p, q, eps)


@pytest.mark.parametrize("donor", [1.5e-4, 3e-4])
def test_diagonal_scan_short_grids_match_pairwise_loop(donor):
    """A donor of a few grid steps with a ratio of 100: the ball keeps only the grid's first points."""
    p = np.array([donor, 0.6, 0.4 - donor])
    q = np.array([donor / 100, 0.8, 0.2 - donor / 100])
    assert _diagonal_scan(p[None], q[None], 0.01)[0] == diagonal_scan_pairwise(p, q, 0.01)


@settings(max_examples=100)
@given(d=st.integers(1, 8), rows=st.integers(1, 5), data=st.data(), eps=EPS_WIDE)
def test_diagonal_scan_stack_rows_match_each_row_alone(d, rows, data, eps):
    p = np.array([scan_vector(data, d) for _ in range(rows)])
    q = np.array([scan_vector(data, d) for _ in range(rows)])
    alone = np.concatenate([_diagonal_scan(p[r:r + 1], q[r:r + 1], eps) for r in range(rows)])
    assert _diagonal_scan(p, q, eps).tobytes() == alone.tobytes()


@settings(max_examples=60)
@given(rows=st.integers(1, 4), data=st.data(), eps=EPS_WIDE)
def test_scanned_stack_matches_each_dense_pair(rows, data, eps):
    """A block stack's rows scan as their dense pairs do: classical rows off the stack, clamp included.

    Each row is two blocks of size 2, diagonal or turned by one rotation per
    block shared by rho and sigma (commuting, not diagonal).  Sigma may put
    an atom inside ``EIG_CLAMP`` under rho's largest one, and rho one
    elsewhere.
    """
    joint, product = np.zeros((2, rows, 2, 2, 2), dtype=complex)
    for r in range(rows):
        turn = [np.eye(2) if not data.draw(st.booleans()) else
                np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]])
                for a in data.draw(st.lists(st.floats(0.1, 1.5), min_size=2, max_size=2))]
        p, q = scan_vector(data, 4), scan_vector(data, 4)
        if data.draw(st.booleans()):
            q[np.argmax(p)] = data.draw(ATOM_KINDS["clamped"])
        if data.draw(st.booleans()):
            p[data.draw(st.integers(0, 3))] = data.draw(ATOM_KINDS["clamped"])
        for stack, v in ((joint, p), (product, q)):
            for b in range(2):
                stack[r, b] = turn[b] @ np.diag(v[2 * b:2 * b + 2]) @ turn[b].T
    alone = [_diagonal_scan(*(x[None] for x in entropic._codiagonalize(_block_diag(j), _block_diag(s))), eps)[0]
             for j, s in zip(joint, product)]
    assert entropic._scanned(joint, product, eps).tobytes() == np.array(alone).tobytes()


def _turned_blocks(angles, v):
    """Dense block-diagonal matrix whose block k is ``diag(v[2k], v[2k + 1])`` turned by ``angles[k]``."""
    out = np.zeros((len(v), len(v)), dtype=complex)
    for k, a in enumerate(angles):
        turn = np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]])
        out[2 * k:2 * k + 2, 2 * k:2 * k + 2] = turn @ np.diag(v[2 * k:2 * k + 2]) @ turn.T
    return out


@settings(max_examples=60)
@given(k=st.integers(2, 4), data=st.data(), eps=EPS_WIDE)
def test_public_route_on_turned_commuting_blocks(k, data, eps):
    """A dense pair of K > 1 commuting, turned 2x2 blocks is the one row of its block stack.

    The public smoothing equals the dense oracle, the smaller of ``D_max`` and
    the scan of the pair's common eigenbasis, bit for bit, and ``D_H`` is
    ``-log2`` of beta.  Every pair has ties built in: sigma's first block is
    a multiple of the identity (one eigenvalue twice) and rho's second block
    a multiple of sigma's (equal ratios).  Rho's first block is never a
    multiple of the identity, so that block is not diagonal; turning sigma's
    first block apart from rho's makes the pair non-commuting, and the public
    smoothing then raises the dense oracle's ``CommutationError`` text.
    """
    angles = data.draw(st.lists(st.floats(0.1, 1.5), min_size=k, max_size=k))
    p, q = scan_vector(data, 2 * k), scan_vector(data, 2 * k)
    p[0] = p[1] + 0.1
    q[0] = q[1] = max(q[0], q[1], 0.05)
    if q[2] + q[3] > 0.0:
        p[2:4] = q[2:4] * ((p[2] + p[3]) / (q[2] + q[3]))
    p, q = p / p.sum(), q / q.sum()
    rho, sigma = _turned_blocks(angles, p), _turned_blocks(angles, q)
    assert entropic._block_stack(rho, sigma)[0].shape == (k, 2, 2)
    dense = min(_diagonal_scan(*(x[None] for x in entropic._codiagonalize(rho, sigma)), eps)[0],
                max_relative_entropy(rho, sigma))
    assert smooth_max_relative_entropy(rho, sigma, eps, "diagonal-scan") == dense
    assert smooth_max_relative_entropy(rho, sigma, eps) == max_relative_entropy(rho, sigma)
    beta = hypothesis_testing_beta(rho, sigma, eps)
    assert hypothesis_testing_divergence(rho, sigma, eps) == (math.inf if beta <= 0.0 else -math.log2(beta))
    apart = sigma.copy()
    apart[:2, :2] = _turned_blocks([angles[0] + 0.5], np.array([0.3, 0.7]) * (q[0] + q[1]))
    with pytest.raises(entropic.CommutationError) as oracle:
        entropic._codiagonalize(rho, apart)
    with pytest.raises(entropic.CommutationError) as public:
        smooth_max_relative_entropy(rho, apart, eps, "diagonal-scan")
    assert str(public.value) == str(oracle.value)


@given(d=st.integers(1, 6), data=st.data(), eps=st.floats(0.01, 0.5), tie=st.booleans())
def test_diagonal_smoothing_matches_eigenbasis_path(d, data, eps, tie):
    """Reading a diagonal pair off the stack gives the eigenbasis path's value.

    The public smoothing reads a diagonal pair's atoms off its one-row block
    stack; the eigenbasis path scans :func:`_codiagonalize`'s values and
    takes the smaller of that and ``D_max``.  ``eigh`` is exact on diagonal
    input, so the two must agree exactly.  ``tie`` puts the last sigma atom
    one float above the first: two unequal atoms within ``DEGEN_TOL`` are
    one eigenspace to the eigenbasis path, which must still pair each with
    its own rho atom.
    """
    p = np.array(data.draw(st.lists(P_ATOMS, min_size=d, max_size=d)))
    q = np.array(data.draw(st.lists(Q_ATOMS, min_size=d, max_size=d)))
    if tie and d > 1:
        q[-1] = np.nextafter(q[0], 1.0)
    p[0] += 0.05
    rho, sigma = np.diag(p / p.sum()).astype(complex), np.diag(q).astype(complex)
    fast = smooth_max_relative_entropy(rho, sigma, eps, "diagonal-scan")
    scanned = _diagonal_scan(*(x[None] for x in entropic._codiagonalize(rho, sigma)), eps)[0]
    assert fast == min(scanned, max_relative_entropy(rho, sigma))


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
    state = classical_cq(("X", "W"), [[0.5, 0.0], [0.0, bad]])
    # an infinite probability times a complex conditional makes a nan: numpy warns, the check then raises
    with np.errstate(invalid="ignore"), pytest.raises(OperatorError, match="^non-finite entries in rho or sigma$"):
        grid_terms(state.conds, state.probs[None], [("ht", ["X"], ["W"], None, 0.25)])


# (error, message, call) for argument checks of the module's public functions
ARGUMENT_CHECKS = {
    "negative-theta": (ValueError, "theta must be nonnegative, got -1.0",
                       lambda: ToleranceParams(eps=0.25, theta=-1.0)),
    "oracle-eps": (ValueError, "eps must lie in (0, 1), got 1.0", lambda: classical_np_oracle([1.0], [1.0], 1.0)),
    "oracle-lengths": (ValueError, "p and q must be 1-d arrays of equal length",
                       lambda: classical_np_oracle([0.5, 0.5], [1.0], 0.25)),
    "divergence-eps": (ValueError, "eps must lie in (0, 1), got 1.5", lambda: hypothesis_testing_divergence(R, S, 1.5)),
    "quantum-cond": (OperatorError, "conditioning register 'Y' must be classical",
                     lambda: cond_smooth_ht_mi(classical_cq(("X", "W"), [[0.5, 0.0], [0.0, 0.5]]), ["X"], ["W"], "Y",
                                               0.25)),
}


@pytest.mark.parametrize("case", ARGUMENT_CHECKS)
def test_argument_checks(case):
    error, message, call = ARGUMENT_CHECKS[case]
    with pytest.raises(error) as got:
        call()
    assert type(got.value) is error and str(got.value) == message


def test_convergence_error_names_the_term(monkeypatch):
    def failing(rho, sigma, eps):
        raise ConvergenceError(f"straddle detection failed at t=0.5, eps={eps}", 0)

    monkeypatch.setattr(entropic, "_dh_betas", failing)
    with pytest.raises(ConvergenceError, match=r"^D_H\(A : B\): straddle .* eps=0\.25$"):
        ht_mutual_info(correlated_bits(), "A", "B", 0.25)


def test_convergence_error_names_the_grid_point_and_conditioning_value(monkeypatch):
    """A conditional term's rows are its distinct (value, slice) states; a grid of one point names no point.

    An error names the first point and value in the failing state: with two
    points of different probabilities each (point, value) is its own row,
    and when both points are alike the second point's states are the
    first's rows.
    """
    def failing_row(rows, row):
        def failing(rho, sigma, eps):
            assert len(rho) == rows
            raise ConvergenceError(f"straddle detection failed at t=0.5, eps={eps}", row)
        return failing

    conds = classical_cq(("A", "B", "C"), np.full((2, 2, 2), 0.125)).conds
    term = [("ht", ["A"], ["B"], "C", 0.25)]
    # rows (0, C=0), (0, C=1), (1, C=0), (1, C=1): the last one fails
    monkeypatch.setattr(entropic, "_dh_betas", failing_row(4, 3))
    probs = np.stack([np.full((2, 2, 2), 0.125), np.arange(1.0, 9.0).reshape(2, 2, 2) / 36.0])
    with pytest.raises(ConvergenceError, match=r"^D_H\(A : B \| C\): straddle .* eps=0\.25 \(grid point 1, C=1\)$"):
        grid_terms(conds, probs, term)
    # the second point alone: rows (0, C=0) and (0, C=1)
    monkeypatch.setattr(entropic, "_dh_betas", failing_row(2, 1))
    with pytest.raises(ConvergenceError, match=r"^D_H\(A : B \| C\): straddle .* eps=0\.25 \(C=1\)$"):
        grid_terms(conds, probs[1:], term)
    # two alike points: rows (0, C=0) and (0, C=1), the second point's states among them
    probs = np.stack([np.full((2, 2, 2), 0.125), np.full((2, 2, 2), 0.125)])
    with pytest.raises(ConvergenceError, match=r"^D_H\(A : B \| C\): straddle .* eps=0\.25 \(grid point 0, C=1\)$"):
        grid_terms(conds, probs, term)
