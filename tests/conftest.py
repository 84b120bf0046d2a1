import numpy as np
import pytest
from hypothesis import settings

from oneshot_secrecy.channel import bundled_path, load_channel

# property tests draw the same examples on every run, and host speed swings
# must not fail an example on time alone
settings.register_profile("reproducible", derandomize=True, deadline=None)
settings.load_profile("reproducible")


def rand_density(rng, d, full_rank=True):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = g @ g.conj().T
    if full_rank:
        m = m + 0.05 * np.eye(d)
    return m / np.trace(m).real


def rand_unitary(rng, d):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def diag_channel():
    return load_channel(bundled_path("diag_deterministic.json"))


@pytest.fixture(scope="session")
def diag_split_channel():
    return load_channel(bundled_path("diag_deterministic_split.json"))


@pytest.fixture(scope="session")
def xor_channel():
    return load_channel(bundled_path("xor_split.json"))
