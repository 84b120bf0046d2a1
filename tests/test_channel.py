import numpy as np
import pytest

from oneshot_secrecy.channel import (
    ChannelFormatError,
    ChannelSpec,
    SplitSpec,
    bundled_path,
    channel_from_document,
    channel_to_document,
    control_state_hk,
    control_state_t1,
    distribution_from_document,
    dumps_channel,
    load_channel,
    load_distribution,
    save_channel,
    uniform_hk,
    uniform_t1,
)
from oneshot_secrecy.channel import InputDistribution
from oneshot_secrecy.operators import OperatorError


def test_load_bundled_diag(diag_channel):
    assert diag_channel.name == "diag-deterministic"
    assert len(diag_channel.states) == 4
    assert (diag_channel.outputs["Y1"], diag_channel.outputs["Y2"], diag_channel.outputs["Z"]) == (2, 2, 2)
    # every conditional: Y copies, Z maximally mixed
    m = diag_channel.state_of("1", "0")
    expect = np.kron(np.kron(np.diag([0.0, 1.0]), np.diag([1.0, 0.0])), np.eye(2) / 2)
    assert np.allclose(m, expect)


def test_trace_deviation_rejected(diag_channel):
    doc = channel_to_document(diag_channel)
    doc["states"]["0,0"]["re"] = (0.98 * np.array(doc["states"]["0,0"]["re"])).tolist()
    with pytest.raises(OperatorError, match="trace deviation"):
        channel_from_document(doc)


def test_missing_pair_and_parse_errors(diag_channel):
    doc = channel_to_document(diag_channel)
    del doc["states"]["0,1"]
    with pytest.raises(OperatorError, match="missing"):
        channel_from_document(doc)
    with pytest.raises(ChannelFormatError):
        channel_from_document({"name": "x"})
    with pytest.raises(ChannelFormatError):
        load_channel("/nonexistent/channel.json")


def test_roundtrip_byte_identity(tmp_path, diag_channel, xor_channel):
    for name in ("diag_deterministic.json", "xor_split.json"):
        src = bundled_path(name)
        original = src.read_bytes()
        spec = load_channel(src)
        out = tmp_path / name
        save_channel(spec, out)
        assert out.read_bytes() == original


def test_control_state_t1_uniform(diag_channel):
    state = control_state_t1(diag_channel, uniform_t1(diag_channel))
    assert state.conds.classical_names == ("Q", "X1", "X2")
    assert state.probs.shape == (1, 2, 2)
    assert np.allclose(state.probs, 0.25)
    assert state.conds.quantum_layout.total_dim == 8
    assert np.allclose(np.diag(state.conds.conditionals[0, 0, 1]).real.sum(), 1.0)
    assert abs(state.probs.sum() - 1.0) <= 1e-9


def test_control_state_t1_point_mass(diag_channel):
    dist = InputDistribution(
        kind="t1",
        q=np.array([1.0]),
        x1_given_q=np.array([[0.0, 1.0]]),
        x2_given_q=np.array([[1.0, 0.0]]),
    )
    state = control_state_t1(diag_channel, dist)
    nz = np.nonzero(state.probs)
    assert state.probs[nz][0] == 1.0 and nz == (np.array([0]), np.array([1]), np.array([0]))
    assert np.allclose(state.conds.conditionals[0, 1, 0], diag_channel.state_of("1", "0"))


def test_control_state_t1_conditional_product(diag_channel):
    rng = np.random.default_rng(7)
    q = rng.dirichlet(np.ones(2))
    c1 = rng.dirichlet(np.ones(2), size=2)
    c2 = rng.dirichlet(np.ones(2), size=2)
    dist = InputDistribution(kind="t1", q=q, x1_given_q=c1, x2_given_q=c2)
    state = control_state_t1(diag_channel, dist)
    for iq in range(2):
        block = state.probs[iq] / q[iq]
        assert np.max(np.abs(block - np.outer(c1[iq], c2[iq]))) <= 1e-12


def test_control_state_t1_requires_unsplit(diag_split_channel):
    with pytest.raises(OperatorError, match="without splits"):
        control_state_t1(diag_split_channel, uniform_t1(diag_split_channel))


def test_control_state_hk_uniform(xor_channel):
    state = control_state_hk(xor_channel, uniform_hk(xor_channel))
    assert state.conds.classical_names == ("X10", "X11", "X20", "X22")
    assert state.probs.shape == (2, 2, 2, 2)
    assert np.allclose(state.probs, 1.0 / 16.0)
    # classical marginal on (X10, X11) is the product of the marginals
    marg = state.probs.sum(axis=(2, 3))
    assert np.max(np.abs(marg - 0.25)) <= 1e-12


def test_control_state_hk_degenerate_personal_matches_t1():
    # |X11| = |X22| = 1 collapses the split state onto the unsplit one
    base = load_channel(bundled_path("diag_deterministic.json"))
    splits = {
        "X1": SplitSpec((("0", "1"), ("0",)), {("0", "0"): "0", ("1", "0"): "1"}),
        "X2": SplitSpec((("0", "1"), ("0",)), {("0", "0"): "0", ("1", "0"): "1"}),
    }
    split_chan = ChannelSpec(base.name, base.inputs, base.outputs, base.states, splits)
    split_chan.validate()
    rng = np.random.default_rng(3)
    p10, p20 = rng.dirichlet(np.ones(2)), rng.dirichlet(np.ones(2))
    hk_dist = InputDistribution(
        kind="hk",
        marginals={
            "X10": p10,
            "X11": np.array([1.0]),
            "X20": p20,
            "X22": np.array([1.0]),
        },
    )
    hk_state = control_state_hk(split_chan, hk_dist)
    t1_dist = InputDistribution(
        kind="t1", q=np.array([1.0]), x1_given_q=p10[None, :], x2_given_q=p20[None, :]
    )
    t1_state = control_state_t1(base, t1_dist)
    # atom-by-atom comparison after dropping the singleton registers
    assert np.max(np.abs(hk_state.probs[:, 0, :, 0] - t1_state.probs[0])) <= 1e-12
    assert np.max(np.abs(hk_state.conds.conditionals[:, 0, :, 0] - t1_state.conds.conditionals[0])) <= 1e-12


def test_distribution_documents(diag_channel, tmp_path):
    doc = {"q": [1.0], "x1_given_q": [[0.5, 0.5]], "x2_given_q": [[0.5, 0.5]]}
    dist = distribution_from_document(doc)
    dist.validate(diag_channel)
    bad = {"q": [1.0], "x1_given_q": [[0.6, 0.5]], "x2_given_q": [[0.5, 0.5]]}
    with pytest.raises(OperatorError, match="sum"):
        distribution_from_document(bad).validate(diag_channel)
    with pytest.raises(ChannelFormatError):
        distribution_from_document({"nope": 1})
    p = tmp_path / "d.json"
    p.write_text("{not json", encoding="utf-8")
    with pytest.raises(ChannelFormatError):
        load_distribution(p)


def test_split_table_validation(diag_channel):
    bad_splits = {
        "X1": SplitSpec((("0",), ("0", "1")), {("0", "0"): "0", ("0", "1"): "0"}),
        "X2": SplitSpec((("0",), ("0", "1")), {("0", "0"): "0", ("0", "1"): "1"}),
    }
    spec = ChannelSpec(
        diag_channel.name, diag_channel.inputs, diag_channel.outputs, diag_channel.states, bad_splits
    )
    with pytest.raises(OperatorError, match="onto"):
        spec.validate()


def test_default_combining_table(xor_channel):
    doc = channel_to_document(xor_channel)
    for inp in ("X1", "X2"):
        del doc["splits"][inp]["map"]
    spec = channel_from_document(doc)
    # row-major identity: (c, p) -> symbol at index 2c + p, which equals c+p here
    assert spec.splits["X1"].combine("1", "0") == "10"
    assert dumps_channel(spec) == dumps_channel(xor_channel)
