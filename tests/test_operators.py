import ast
from pathlib import Path

import numpy as np
import pytest

import oneshot_secrecy
from oneshot_secrecy.operators import (
    OperatorError,
    RegisterLayout,
    fidelity,
    partial_trace_matrix,
    permute_registers_matrix,
    purified_distance,
    trace_distance,
    validate_density,
)
from oneshot_secrecy.states import CQConditionals, CQState
from conftest import rand_density, rand_unitary


def test_tensor_then_partial_trace_inverse(rng):
    rho, sig = rand_density(rng, 2), rand_density(rng, 3)
    layout = RegisterLayout(("A", "B"), (2, 3))
    back = partial_trace_matrix(np.kron(rho, sig), layout, ["A"])
    assert np.max(np.abs(back - rho)) <= 1e-12


def test_partial_trace_bell():
    bell = np.zeros((4, 4), dtype=complex)
    for i in (0, 3):
        for j in (0, 3):
            bell[i, j] = 0.5
    layout = RegisterLayout(("A", "B"), (2, 2))
    out = partial_trace_matrix(bell, layout, ["A"])
    assert np.allclose(out, np.eye(2) / 2)


def test_partial_trace_product_keeps_factor(rng):
    rho, sig = rand_density(rng, 2), rand_density(rng, 2)
    layout = RegisterLayout(("A", "B"), (2, 2))
    out = partial_trace_matrix(np.kron(rho, sig), layout, ["B"])
    assert np.max(np.abs(out - sig)) <= 1e-12


def test_partial_trace_index_sum_oracle():
    rho = np.diag([0.1, 0.2, 0.3, 0.4]).astype(complex)
    layout = RegisterLayout(("A", "B"), (2, 2))
    out = partial_trace_matrix(rho, layout, ["A"])
    assert np.allclose(np.diag(out).real, [0.3, 0.7])


def test_partial_trace_trace_preserving_and_commutes(rng):
    rho = rand_density(rng, 8)
    layout = RegisterLayout(("A", "B", "C"), (2, 2, 2))
    kept = partial_trace_matrix(rho, layout, ["C"])
    assert abs(np.trace(kept).real - 1.0) <= 1e-12
    via_two = partial_trace_matrix(
        partial_trace_matrix(rho, layout, ["B", "C"]), RegisterLayout(("B", "C"), (2, 2)), ["C"]
    )
    assert np.max(np.abs(via_two - kept)) <= 1e-12


def test_partial_trace_errors(rng):
    rho = rand_density(rng, 4)
    layout = RegisterLayout(("A", "B"), (2, 2))
    with pytest.raises(OperatorError):
        partial_trace_matrix(rho, RegisterLayout(("A", "B"), (2, 4)), ["A"])
    with pytest.raises(OperatorError):
        partial_trace_matrix(rho, layout, ["nope"])
    with pytest.raises(OperatorError):
        partial_trace_matrix(rho, layout, [])


def test_permute_registers_roundtrip(rng):
    rho = rand_density(rng, 6)
    layout = RegisterLayout(("A", "B"), (2, 3))
    swapped, new_layout = permute_registers_matrix(rho, layout, ["B", "A"])
    assert new_layout.dims == (3, 2)
    back, _ = permute_registers_matrix(swapped, new_layout, ["A", "B"])
    assert np.max(np.abs(back - rho)) <= 1e-14


def test_trace_distance_values():
    rho = np.diag([0.5, 0.5])
    assert trace_distance(rho, rho) == 0.0
    assert abs(trace_distance(np.diag([1.0, 0]), np.diag([0, 1.0])) - 2.0) <= 1e-12
    assert abs(trace_distance(rho, np.diag([0.9, 0.1])) - 0.8) <= 1e-12


def test_trace_distance_triangle_and_unitary_invariance(rng):
    for _ in range(20):
        a, b, c = (rand_density(rng, 4) for _ in range(3))
        slack = trace_distance(a, c) - (trace_distance(a, b) + trace_distance(b, c))
        assert slack <= 1e-10
        u = rand_unitary(rng, 4)
        rotated = trace_distance(u @ a @ u.conj().T, u @ b @ u.conj().T)
        assert abs(rotated - trace_distance(a, b)) <= 1e-10


def test_fidelity_values(rng):
    rho = rand_density(rng, 3)
    assert abs(fidelity(rho, rho) - 1.0) <= 1e-10
    assert fidelity(np.diag([1.0, 0]), np.diag([0, 1.0])) <= 1e-12
    f = fidelity(np.diag([0.5, 0.5]), np.diag([0.9, 0.1]))
    assert abs(f - (np.sqrt(0.45) + np.sqrt(0.05)) ** 2) <= 1e-12
    assert abs(f - 0.8) <= 1e-12


def test_fidelity_symmetry_and_diagonal_oracle(rng):
    a, b = rand_density(rng, 4), rand_density(rng, 4)
    assert abs(fidelity(a, b) - fidelity(b, a)) <= 1e-10
    p, q = rng.dirichlet(np.ones(5)), rng.dirichlet(np.ones(5))
    bhatt = float(np.sum(np.sqrt(p * q))) ** 2
    assert abs(fidelity(np.diag(p), np.diag(q)) - bhatt) <= 1e-10


def test_purified_distance_conventions():
    rho, sig = np.diag([0.5, 0.5]), np.diag([0.9, 0.1])
    assert purified_distance(rho, rho) <= 1e-9
    one = purified_distance(np.diag([1.0, 0]), np.diag([0, 1.0]))
    assert abs(one - 1.0) <= 1e-12
    assert abs(purified_distance(rho, sig) - np.sqrt(0.2)) <= 1e-9


def test_validate_density_diagnostics():
    validate_density(np.eye(2) / 2)
    with pytest.raises(OperatorError, match="trace deviation"):
        validate_density(0.98 * np.eye(2) / 2)
    with pytest.raises(OperatorError, match="hermiticity"):
        validate_density(np.array([[0.5, 0.1], [0.0, 0.5]]))
    with pytest.raises(OperatorError, match="negative eigenvalue"):
        validate_density(np.diag([1.5, -0.5]))


@pytest.mark.parametrize("bad", [
    np.array([[0.5, 0.1], [0.0, 0.5]]),  # not Hermitian
    np.diag([1.5, -0.5]),                # negative eigenvalue
    0.98 * np.eye(2) / 2,                # trace deviation
    np.diag([np.nan, 1.0]),              # non-finite
])
def test_cq_state_validate_checks_each_live_conditional(bad):
    layout = RegisterLayout(("B",), (2,))
    conds = np.stack([np.eye(2) / 2, bad])
    CQState(CQConditionals(("X",), (2,), layout, conds), [1.0, 0.0]).validate()  # zero-probability atom
    with pytest.raises(OperatorError, match="conditional 1"):
        CQState(CQConditionals(("X",), (2,), layout, conds), [0.5, 0.5]).validate()


def test_register_layout_invariants():
    with pytest.raises(OperatorError):
        RegisterLayout(("A", "A"), (2, 2))
    with pytest.raises(OperatorError):
        RegisterLayout(("A",), (0,))
    layout = RegisterLayout(("A", "B", "C"), (2, 3, 4))
    assert layout.total_dim == 24
    assert layout.subset(["C", "A"]).dims == (4, 2)


def test_small_float_literals_live_in_the_tolerance_table():
    """A float literal with 0 < |x| < 1e-5 may only be a module-level value in operators.py."""
    stray = []
    for path in sorted(Path(oneshot_secrecy.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        table = set()
        if path.name == "operators.py":
            table = {node.value for node in tree.body if isinstance(node, ast.Assign)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Constant) and isinstance(node.value, float)
                    and 0.0 < abs(node.value) < 1e-5 and node not in table):
                stray.append(f"{path.name}:{node.lineno}: {node.value!r}")
    assert not stray, stray
