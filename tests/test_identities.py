"""Exact identities of the divergences, used as oracles that need no second solver.

An ancilla changes nothing: tensoring one fixed state ``omega`` onto both
arguments leaves ``D_H`` and ``D_max`` as they were (a test ``T`` on the
pair gives ``T x 1`` on the grown pair, and the partial trace gives back the
pair).  Region rows inherit this when ``omega`` is appended to every output
state of a channel: each term's joint and product states carry the same
``omega``, or lose it to the trace.  ``D_max`` is additive on tensor
products, which checks the non-classical eigenvalue path against itself.
"""
import dataclasses
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oneshot_secrecy.channel import OUTPUT_NAMES, InputDistribution, load_channel, load_distribution
from oneshot_secrecy.entropic import ToleranceParams, hypothesis_testing_divergence, max_relative_entropy
from oneshot_secrecy.operators import RegisterLayout, permute_registers_matrix
from oneshot_secrecy.regions import (
    PenaltyMode,
    conjecture_region,
    hk_nosecrecy_region,
    theorem1_region,
    theorem2_region,
)

DATA = Path(__file__).parent / "data"
PARAMS = ToleranceParams(eps=0.25, eps_prime=0.1, delta=0.01, delta_prime=0.2)
OFF = PenaltyMode("off")
# a diagonal omega placed first makes the grown pair block-diagonal; the other is dense
OMEGAS = {
    2: np.diag([0.7, 0.3]).astype(complex),
    3: np.array([[0.5, 0.1 + 0.1j, 0.0], [0.1 - 0.1j, 0.3, 0.05j], [0.0, -0.05j, 0.2]]),
}


def _density(rng, d, rank):
    g = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
    m = g @ g.conj().T
    return m / np.trace(m).real


def _same(a, b, tol):
    """Equal, or within ``tol`` relative to ``|a|`` and absolute below 1."""
    return a == b or abs(a - b) <= tol * max(1.0, abs(a))


@settings(max_examples=300)
@given(d=st.integers(2, 4), dim=st.sampled_from(sorted(OMEGAS)), first=st.booleans(),
       rank=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_an_ancilla_leaves_both_divergences_unchanged(d, dim, first, rank, seed):
    rng = np.random.default_rng(seed)
    rho, sigma = _density(rng, d, min(rank, d)), _density(rng, d, d)
    omega = OMEGAS[dim]
    grow = partial(np.kron, omega) if first else (lambda m: np.kron(m, omega))
    # beta meets the type-I constraint to TYPE_I_TOL, about 1e-9 relative on each side:
    # a rank-1 rho has moved D_H by 3.0e-9; D_max of 13.1 has moved by 1.3e-11
    dh = partial(hypothesis_testing_divergence, eps=0.1)
    for divergence, tol in ((dh, 1e-8), (max_relative_entropy, 1e-11)):
        alone, grown = divergence(rho, sigma), divergence(grow(rho), grow(sigma))
        assert _same(grown, alone, tol), (divergence, alone, grown)


@settings(max_examples=100)
@given(d1=st.integers(2, 3), d2=st.integers(2, 3), seed=st.integers(0, 2**32 - 1))
def test_dmax_is_additive_on_tensor_products(d1, d2, seed):
    rng = np.random.default_rng(seed)
    rho1, sigma1, rho2, sigma2 = (_density(rng, d, d) for d in (d1, d1, d2, d2))
    parts = max_relative_entropy(rho1, sigma1) + max_relative_entropy(rho2, sigma2)
    whole = max_relative_entropy(np.kron(rho1, rho2), np.kron(sigma1, sigma2))
    assert abs(whole - parts) <= 1e-11 * abs(parts), (whole, parts)


def _with_ancilla(channel, omega, register):
    """``channel`` with ``omega`` tensored onto every state, inside ``register``, whose dimension grows."""
    grown = RegisterLayout(OUTPUT_NAMES + ("W",), channel.quantum_layout.dims + (len(omega),))
    order = list(OUTPUT_NAMES)
    order.insert(order.index(register) + 1, "W")
    states = {pair: permute_registers_matrix(np.kron(rho, omega), grown, order)[0]
              for pair, rho in channel.states.items()}
    outputs = dict(channel.outputs, **{register: channel.outputs[register] * len(omega)})
    return dataclasses.replace(channel, outputs=outputs, states=states)


def _split_regions(channel):
    dist = load_distribution(DATA / "nc_small_split_dist.json")
    return [theorem2_region(channel, dist, PARAMS, OFF), conjecture_region(channel, dist, PARAMS, OFF),
            hk_nosecrecy_region(channel, dist, PARAMS.eps, OFF)]


def _t1_regions(channel):
    dist = InputDistribution(kind="t1", q=np.array([0.3, 0.7]),
                             x1_given_q=np.array([[0.6, 0.4], [0.1, 0.9]]),
                             x2_given_q=np.array([[0.5, 0.5], [0.8, 0.2]]))
    return [theorem1_region(channel, dist, PARAMS, OFF)]


@pytest.mark.parametrize("register", ["Z", "Y1"])
@pytest.mark.parametrize("name, regions", [("nc_small_split.json", _split_regions),
                                           ("nc_small_unsplit.json", _t1_regions)], ids=["split", "t1"])
def test_an_ancilla_on_an_output_leaves_every_row(name, regions, register):
    channel = load_channel(DATA / name)
    for alone, grown in zip(regions(channel), regions(_with_ancilla(channel, OMEGAS[3], register))):
        assert [(r.tag, r.coeffs) for r in grown.rows] == [(r.tag, r.coeffs) for r in alone.rows]
        moved = [(r.tag, r.bound, s.bound) for r, s in zip(alone.rows, grown.rows)
                 if not _same(s.bound, r.bound, 1e-12)]
        assert not moved, moved
