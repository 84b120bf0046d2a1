import dataclasses
import functools
import re
from pathlib import Path

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
    save_distribution,
    uniform_hk,
    uniform_t1,
)
from oneshot_secrecy.channel import InputDistribution
from oneshot_secrecy.operators import OperatorError
from util import channel_states_check


def test_load_bundled_diag(diag_channel):
    assert diag_channel.name == "diag-deterministic"
    assert len(diag_channel.states) == 4
    assert (diag_channel.outputs["Y1"], diag_channel.outputs["Y2"], diag_channel.outputs["Z"]) == (2, 2, 2)
    # every conditional: Y copies, Z maximally mixed
    m = diag_channel.states[("1", "0")]
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


NAN_STATE = {"re": [[float("nan")] * 8] * 8, "im": [[0.0] * 8] * 8}


@pytest.mark.parametrize("field, key, value", [
    ("inputs", "X3", ["0"]),
    ("outputs", "W", 2),
    ("states", "7,7", NAN_STATE),
    ("states", "0,7", NAN_STATE),
])
def test_unknown_keys_rejected(diag_channel, field, key, value):
    doc = channel_to_document(diag_channel)
    doc[field][key] = value
    with pytest.raises(OperatorError, match=f"unknown {field[:-1]} key"):
        channel_from_document(doc)


# (where in the document, key, value, error) for an unknown key inside xor_split's splits
UNKNOWN_SPLIT_KEYS = [
    ((), "X3", {"parts": {"X30": ["0"]}}, "unknown split key 'X3'"),
    (("X1", "parts"), "X12", ["0"], "unknown X1 split part key 'X12'"),
    (("X1",), "extra", 1, "unknown X1 split key 'extra'"),
]


@pytest.mark.parametrize("where, key, value, message", UNKNOWN_SPLIT_KEYS, ids=["input", "part", "field"])
def test_unknown_split_keys_rejected(xor_channel, where, key, value, message):
    doc = channel_to_document(xor_channel)
    functools.reduce(dict.__getitem__, where, doc["splits"])[key] = value
    with pytest.raises(OperatorError, match=f"^{re.escape(message)}$"):
        channel_from_document(doc)


# single-state defects on a 16-state non-commuting split channel; each is checked at
# the first, a middle and the last state in alphabet order
STATE_DEFECTS = {
    "nan": lambda m: np.where(np.eye(len(m), dtype=bool), np.nan, m),
    "non-hermitian": lambda m: m + np.triu(np.full_like(m, 0.2), 1),
    "negative eigenvalue": lambda m: np.diag([1.25, -0.25] + [0.0] * (len(m) - 2)),
    "trace": lambda m: 0.98 * m,
    "dimension": lambda m: np.eye(len(m) + 1) / (len(m) + 1),
    "missing": None,
}


@pytest.mark.parametrize("where", [0, 7, 15])
@pytest.mark.parametrize("defect", STATE_DEFECTS)
def test_channel_validate_matches_one_state_at_a_time(defect, where):
    channel = load_channel(Path(__file__).parent / "data" / "nc_small_split.json")
    pairs = [(x1, x2) for x1 in channel.inputs["X1"] for x2 in channel.inputs["X2"]]
    states = dict(channel.states)
    if STATE_DEFECTS[defect] is None:
        del states[pairs[where]]
    else:
        states[pairs[where]] = STATE_DEFECTS[defect](states[pairs[where]])
    with pytest.raises(OperatorError) as expected:
        channel_states_check(channel.inputs, channel.outputs, states)
    with pytest.raises(OperatorError) as got:
        dataclasses.replace(channel, states=states)
    assert type(got.value) is type(expected.value) and str(got.value) == str(expected.value)


@pytest.mark.parametrize("defect", STATE_DEFECTS)
def test_channel_spec_is_valid_from_construction(defect):
    """No invalid spec exists: the constructor raises what checking the states one at a time raises."""
    channel = load_channel(Path(__file__).parent / "data" / "nc_small_split.json")
    pair = (channel.inputs["X1"][1], channel.inputs["X2"][3])
    states = dict(channel.states)
    if STATE_DEFECTS[defect] is None:
        del states[pair]
    else:
        states[pair] = STATE_DEFECTS[defect](states[pair])
    with pytest.raises(OperatorError) as expected:
        channel_states_check(channel.inputs, channel.outputs, states)
    with pytest.raises(OperatorError, match=f"^{re.escape(str(expected.value))}$"):
        ChannelSpec(channel.name, channel.inputs, channel.outputs, states, channel.splits)


# each incomplete split form, and its error, which comes before any length check
INCOMPLETE_MARGINALS = {
    "missing": ({"X10": np.array([1.0])}, "marginal X11 missing"),
    "none": (None, "split-form distribution carries no marginals"),
    "unknown": ({reg: np.full(2, 0.5) for reg in ("X10", "X11", "X20", "X22", "X12")}, "unknown marginal key 'X12'"),
}


@pytest.mark.parametrize("case", INCOMPLETE_MARGINALS)
def test_incomplete_split_distribution_rejected(xor_channel, case):
    marginals, message = INCOMPLETE_MARGINALS[case]
    dist = InputDistribution("hk", marginals=marginals)
    for check in (dist.validate, functools.partial(control_state_hk, dist=dist)):
        with pytest.raises(OperatorError, match=f"^{re.escape(message)}$"):
            check(xor_channel)


def test_roundtrip_byte_identity(tmp_path, diag_channel, xor_channel):
    for name in ("diag_deterministic.json", "xor_split.json"):
        src = bundled_path(name)
        original = src.read_bytes()
        spec = load_channel(src)
        out = tmp_path / name
        save_channel(spec, out)
        assert out.read_bytes() == original
    for name in ("uniform_t1.json", "uniform_hk.json", "uniform_hk_degenerate.json"):
        out = tmp_path / name
        save_distribution(load_distribution(bundled_path(name)), out)
        assert out.read_bytes() == bundled_path(name).read_bytes()


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
    assert np.allclose(state.conds.conditionals[0, 1, 0], diag_channel.states[("1", "0")])


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


@pytest.mark.parametrize("field, size", [("x1_given_q", "|X1|=2"), ("x2_given_q", "|X2|=2")])
def test_wrongly_shaped_conditional_names_both_sizes(diag_channel, field, size):
    doc = {"q": [0.5, 0.5], "x1_given_q": [[0.5, 0.5]] * 2, "x2_given_q": [[0.5, 0.5]] * 2}
    doc[field] = [[1 / 3] * 3] * 2
    with pytest.raises(OperatorError) as got:
        distribution_from_document(doc).validate(diag_channel)
    assert str(got.value) == f"{field} shape (2, 3) incompatible with |Q|=2, {size}"


@pytest.mark.parametrize("doc, key", [
    ({"q": [1.0], "x1_given_q": [[0.5, 0.5]], "x2_given_q": [[0.5, 0.5]], "x10": [1.0]}, "x10"),
    ({"x10": [1.0], "x11": [1.0], "x20": [1.0], "x22": [1.0], "extra": 1}, "extra"),
], ids=["time-shared", "split"])
def test_unknown_distribution_keys_rejected(doc, key):
    """A key outside the chosen form is rejected; a missing key is still malformed first."""
    with pytest.raises(OperatorError, match=f"^unknown distribution key '{key}'$"):
        distribution_from_document(doc)
    with pytest.raises(ChannelFormatError, match="^(malformed time-shared|distribution must carry)"):
        distribution_from_document({k: v for k, v in doc.items() if k not in ("x1_given_q", "x11")})



def test_channel_states_are_read_only():
    """A valid spec cannot be written invalid: its states are read-only views of one stored stack."""
    channel = load_channel(bundled_path("diag_deterministic.json"))
    with pytest.raises(ValueError):
        channel.states[("0", "0")] *= 0.98
    with pytest.raises(ValueError):
        channel.stack[0, 0, 0, 0] = 0.5
    with pytest.raises(TypeError):
        channel.states[("0", "0")] = np.eye(8) / 8
    assert channel.stack is channel.stack
    assert np.shares_memory(channel.states[("1", "0")], channel.stack)
    state = control_state_t1(channel, uniform_t1(channel))
    assert np.allclose(np.trace(state.conds.conditionals, axis1=-2, axis2=-1), 1.0)


def test_replaced_states_are_checked_and_read_only():
    """``dataclasses.replace`` with a new dict of states validates it and keeps it read-only."""
    channel = load_channel(bundled_path("diag_deterministic.json"))
    states = {pair: np.array(m) for pair, m in channel.states.items()}
    copy = dataclasses.replace(channel, states=states)
    states[("0", "0")] *= 0.98
    assert np.allclose(np.trace(copy.states[("0", "0")]), 1.0)
    with pytest.raises(ValueError):
        copy.states[("0", "0")] *= 0.98
    with pytest.raises(OperatorError, match="trace"):
        dataclasses.replace(channel, states=states)


def test_channel_spec_is_read_only_throughout():
    """``inputs``, ``outputs``, ``splits`` and each split's table are read-only copies of what was given."""
    xor = load_channel(bundled_path("xor_split.json"))
    with pytest.raises(TypeError):
        xor.splits["X1"].table[("0", "0")] = "11"
    with pytest.raises(TypeError):
        xor.splits["X1"] = xor.splits["X2"]
    with pytest.raises(TypeError):
        xor.inputs["X1"] = ("00",)
    with pytest.raises(TypeError):
        xor.outputs["Z"] = 4
    control_state_hk(xor, uniform_hk(xor)).validate()
    # built in code from lists and dicts, then those changed: the spec keeps its own copies
    inputs = {name: list(symbols) for name, symbols in xor.inputs.items()}
    outputs = dict(xor.outputs)
    table = dict(xor.splits["X1"].table)
    splits = {"X1": SplitSpec(tuple(list(p) for p in xor.splits["X1"].parts), table), "X2": xor.splits["X2"]}
    spec = ChannelSpec(xor.name, inputs, outputs, dict(xor.states), splits)
    inputs["X1"].append("99")
    outputs["Z"] = 4
    table[("0", "0")] = "11"
    splits.pop("X2")
    assert spec.inputs["X1"] == ("00", "01", "10", "11") and spec.splits["X1"].parts[0] == ("0", "1")
    assert dumps_channel(spec) == dumps_channel(xor)
    # a replaced table is checked as a new one is
    bad = SplitSpec(xor.splits["X1"].parts, {**xor.splits["X1"].table, ("0", "0"): "01"})
    with pytest.raises(OperatorError, match="^X1 combining table is not onto the input alphabet$"):
        dataclasses.replace(xor, splits={**xor.splits, "X1": bad})

def test_split_table_validation(diag_channel):
    bad_splits = {
        "X1": SplitSpec((("0",), ("0", "1")), {("0", "0"): "0", ("0", "1"): "0"}),
        "X2": SplitSpec((("0",), ("0", "1")), {("0", "0"): "0", ("0", "1"): "1"}),
    }
    with pytest.raises(OperatorError, match="onto"):
        ChannelSpec(
            diag_channel.name, diag_channel.inputs, diag_channel.outputs, diag_channel.states, bad_splits
        )


# each text the ChannelSpec constructor raises for a spec built in code, and a spec that raises it: among
# them, an alphabet names each symbol once, a combining table only pairs of part symbols, and a split key
# other than X1/X2 is rejected before dumps_channel could fail on it
SPEC_DEFECTS = {
    "input-repeat": ("input alphabet X1 repeats symbol '0'",
                     lambda diag, xor: dataclasses.replace(diag, inputs={**diag.inputs, "X1": ("0", "0", "1")})),
    "part-repeat": ("X10 alphabet repeats symbol '0'",
                    lambda diag, xor: _with_x1_split(xor, ("0", "1", "0", "1"), {})),
    "map-key": ("X1 combining table pair (2,2) names no part symbol",
                lambda diag, xor: _with_x1_split(xor, None, {("2", "2"): "00"})),
    "split-key": ("unknown split key 'X3'",
                  lambda diag, xor: dataclasses.replace(xor, splits={**xor.splits, "X3": xor.splits["X1"]})),
    "empty-part": ("X1 split alphabets must be nonempty", lambda diag, xor: _with_x1_split(xor, (), {})),
    "missed-pair": ("X1 combining table misses pair (1,1)",
                    lambda diag, xor: _with_x1_table(xor, {k: v for k, v in xor.splits["X1"].table.items()
                                                           if k != ("1", "1")})),
    "unknown-image": ("X1 combining table maps to unknown symbol '22'",
                      lambda diag, xor: _with_x1_split(xor, None, {("1", "1"): "22"})),
    "comma": ("input symbol '0,1' may not contain a comma",
              lambda diag, xor: dataclasses.replace(diag, inputs={**diag.inputs, "X1": ("0,1", "1")})),
    "output-dimension": ("output dimension Z must be >= 1",
                         lambda diag, xor: dataclasses.replace(diag, outputs={**diag.outputs, "Z": 0})),
}


def _with_x1_split(channel, common, extra):
    """``channel`` with X1's common alphabet replaced (``None`` keeps it) and ``extra`` table entries."""
    split = channel.splits["X1"]
    parts = split.parts if common is None else (common, split.parts[1])
    return dataclasses.replace(channel, splits={**channel.splits, "X1": SplitSpec(parts, {**split.table, **extra})})


def _with_x1_table(channel, table):
    """``channel`` with X1's combining table replaced by ``table``."""
    split = channel.splits["X1"]
    return dataclasses.replace(channel, splits={**channel.splits, "X1": SplitSpec(split.parts, table)})


@pytest.mark.parametrize("case", SPEC_DEFECTS)
def test_channel_spec_defects_rejected(diag_channel, xor_channel, case):
    message, build = SPEC_DEFECTS[case]
    with pytest.raises(OperatorError) as got:
        build(diag_channel, xor_channel)
    assert str(got.value) == message


@pytest.mark.parametrize("splits", [5, "X1X2", ["X1"]])
def test_splits_that_are_not_an_object_are_malformed(xor_channel, splits):
    doc = channel_to_document(xor_channel)
    doc["splits"] = splits
    with pytest.raises(ChannelFormatError, match="^malformed channel document: splits .* is not a JSON object$"):
        channel_from_document(doc)


def test_default_table_without_its_input_alphabet_names_the_alphabet(xor_channel):
    """With ``inputs.X1`` missing, a split without ``map`` fails as the same document without splits does."""
    doc = channel_to_document(xor_channel)
    del doc["inputs"]["X1"], doc["splits"]["X1"]["map"]
    for document in (doc, {k: v for k, v in doc.items() if k != "splits"}):
        with pytest.raises(OperatorError, match="^input alphabet X1 missing or empty$"):
            channel_from_document(document)


def test_default_combining_table(xor_channel):
    doc = channel_to_document(xor_channel)
    for inp in ("X1", "X2"):
        del doc["splits"][inp]["map"]
    spec = channel_from_document(doc)
    # row-major identity: (c, p) -> symbol at index 2c + p, which equals c+p here
    assert spec.splits["X1"].combine("1", "0") == "10"
    assert dumps_channel(spec) == dumps_channel(xor_channel)
