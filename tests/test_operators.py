import ast
import itertools
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
    validate_densities,
    validate_density,
)
from oneshot_secrecy.states import CQConditionals, CQState
from conftest import rand_density, rand_unitary
from util import cq_points_check, density_check_one


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


@pytest.mark.parametrize("dims", [(2, 3, 2), (3, 2, 4), (2, 2, 2, 2)])
def test_partial_trace_in_keep_order_is_the_layout_order_trace_permuted(rng, dims):
    """Kept registers come out in the caller's order, bit for bit as tracing in layout order and permuting."""
    names = tuple("ABCD"[:len(dims)])
    layout = RegisterLayout(names, dims)
    d = layout.total_dim
    m = rng.normal(size=(3, d, d)) + 1j * rng.normal(size=(3, d, d))
    for size in range(1, len(names) + 1):
        for keep in itertools.permutations(names, size):
            in_layout_order = [name for name in names if name in keep]
            reference = permute_registers_matrix(partial_trace_matrix(m, layout, in_layout_order),
                                                 layout.subset(in_layout_order), keep)[0]
            assert partial_trace_matrix(m, layout, keep).tobytes() == reference.tobytes(), keep


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


def test_cq_state_validate_rejects_non_finite_probabilities():
    layout = RegisterLayout(("B",), (2,))
    conds = CQConditionals(("X",), (2,), layout, np.stack([np.eye(2) / 2, np.eye(2) / 2]))
    for probs in ([np.nan, 1.0], [np.inf, 0.0], [-np.inf, 1.0]):
        with pytest.raises(OperatorError, match="non-finite probability"):
            CQState(conds, probs).validate()


def test_cq_check_keeps_no_state():
    """A conditional that passed once is checked again: a later change to it is caught."""
    layout = RegisterLayout(("B",), (2,))
    conds = CQConditionals(("X",), (2,), layout, np.stack([np.eye(2) / 2, np.eye(2) / 2]))
    probs = np.array([[0.5, 0.5]])
    conds.check(probs)
    conds.conditionals[1] = np.diag([1.5, -0.5])
    with pytest.raises(OperatorError, match="^state 'conditional 1': negative eigenvalue"):
        conds.check(probs)


def _raised(check, *args):
    """``(class, text)`` of what ``check(*args)`` raises, or None when it passes."""
    try:
        check(*args)
    except Exception as exc:  # noqa: BLE001 - the class itself is compared
        return type(exc), str(exc)
    return None


def _set_entry(m, i, j, value):
    m = m.copy()
    m[i, j] = value
    return m


# each defect fails one check of the density operator it replaces; the last two fail two at once
DENSITY_DEFECTS = {
    "nan": lambda m: _set_entry(m, 0, 0, np.nan),
    "inf": lambda m: _set_entry(m, 1, 0, np.inf),
    "non-hermitian": lambda m: _set_entry(m, 0, 1, m[0, 1] + 0.3),
    "negative eigenvalue": lambda m: np.diag([1.25, -0.25] + [0.0] * (len(m) - 2)),
    "trace": lambda m: 1.01 * m,
    "non-hermitian and trace": lambda m: _set_entry(1.5 * m, 0, 1, 0.3),
    "negative eigenvalue and trace": lambda m: np.diag([1.0, -0.5] + [0.0] * (len(m) - 2)),
}
WHERE = {"first": 0, "middle": 5, "last": 11}


def _densities(rng, n, d):
    """``n`` random ``d x d`` density operators, the first of them pure."""
    return np.array([rand_density(rng, d, full_rank=k > 0) for k in range(n)])


def _one_at_a_time(stack, labels):
    for m, label in zip(stack.reshape(-1, *stack.shape[-2:]), labels):
        density_check_one(m, label)


@pytest.mark.parametrize("where", WHERE)
@pytest.mark.parametrize("defect", DENSITY_DEFECTS)
def test_validate_densities_matches_one_operator_at_a_time(rng, defect, where):
    stack = _densities(rng, 12, 3).reshape(3, 4, 3, 3)
    labels = [f"{i},{j}" for i in range(3) for j in range(4)]
    assert _raised(validate_densities, stack, labels) is None
    assert _raised(_one_at_a_time, stack, labels) is None
    flat = stack.reshape(12, 3, 3)
    flat[WHERE[where]] = DENSITY_DEFECTS[defect](flat[WHERE[where]])
    expected = _raised(_one_at_a_time, stack, labels)
    assert expected is not None and expected[1].startswith(f"state {labels[WHERE[where]]!r}: ")
    assert _raised(validate_densities, stack, labels) == expected
    # a later defect does not change which operator is named
    if where != "last":
        flat[11] = DENSITY_DEFECTS["nan"](flat[11])
        assert _raised(validate_densities, stack, labels) == expected == _raised(_one_at_a_time, stack, labels)


@pytest.mark.parametrize("defect", DENSITY_DEFECTS)
def test_validate_density_is_the_one_operator_case(rng, defect):
    m = DENSITY_DEFECTS[defect](rand_density(rng, 2))
    for label in (None, "x"):
        assert _raised(validate_density, m, label) == _raised(density_check_one, m, label)


LIVE = [0, 2, 3, 5]


def _cq_grid(rng, points=4):
    """Conditionals on alphabets (2, 3) whose atoms 1 and 4 are dead and hold invalid placeholders."""
    conds = _densities(rng, 6, 2)
    conds[1] = np.diag([np.nan, 1.0])
    conds[4] = np.array([[0.5, 0.4], [0.0, 0.5]])
    probs = np.zeros((points, 6))
    probs[:, LIVE] = rng.dirichlet(np.ones(len(LIVE)), size=points)
    return conds.reshape(2, 3, 2, 2), probs.reshape(points, 2, 3)


def _cq_check(conds, probs):
    CQConditionals(("X", "Y"), (2, 3), RegisterLayout(("B",), (2,)), conds).check(probs)


@pytest.mark.parametrize("where", ["first", "middle", "last"])
@pytest.mark.parametrize("defect", ["negative", "sum"] + list(DENSITY_DEFECTS))
def test_cq_check_matches_one_point_and_conditional_at_a_time(rng, defect, where):
    conds, probs = _cq_grid(rng)
    assert _raised(_cq_check, conds, probs) is None
    assert _raised(cq_points_check, conds, probs) is None
    i = {"first": 0, "middle": 2, "last": -1}[where]
    flat_c, points = conds.reshape(6, 2, 2), probs.reshape(-1, 6)
    if defect in DENSITY_DEFECTS:
        flat_c[LIVE[i]] = DENSITY_DEFECTS[defect](flat_c[LIVE[i]])
    elif defect == "negative":
        points[i, LIVE] = [-0.125, 0.5, 0.25, 0.375]
    else:
        points[i] *= 1.1
    expected = _raised(cq_points_check, conds, probs)
    assert expected is not None
    assert _raised(_cq_check, conds, probs) == expected
    # a later defect does not change which point or conditional is named
    if where != "last":
        if defect in DENSITY_DEFECTS:
            flat_c[LIVE[-1]] = DENSITY_DEFECTS["nan"](flat_c[LIVE[-1]])
        else:
            points[-1, LIVE[0]] = np.nan
        assert _raised(_cq_check, conds, probs) == expected == _raised(cq_points_check, conds, probs)


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
