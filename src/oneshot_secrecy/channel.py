"""Interference wiretap channel specifications, input distributions, control states.

A channel document is UTF-8 JSON with fields ``name``, ``inputs`` (register
name to symbol list), optional ``splits``, ``outputs`` (Y1/Y2/Z to dimension)
and ``states`` mapping ``"x1,x2"`` to ``{"re": [[...]], "im": [[...]]}``.
Joint output basis index is row-major over (Y1, Y2, Z).
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .operators import OperatorError, RegisterLayout, validate_density, validate_pmf
from .states import CQConditionals, CQState

INPUT_NAMES = ("X1", "X2")
OUTPUT_NAMES = ("Y1", "Y2", "Z")
# common / personal part names per input, in file and register order
SPLIT_PARTS = {"X1": ("X10", "X11"), "X2": ("X20", "X22")}
HK_REGISTERS = ("X10", "X11", "X20", "X22")


class ChannelFormatError(ValueError):
    """The document cannot be parsed into the channel schema."""


@dataclass(frozen=True)
class SplitSpec:
    """Common/personal part alphabets plus the combining table onto the input."""

    parts: tuple[tuple[str, ...], tuple[str, ...]]
    table: Mapping[tuple[str, str], str]

    def combine(self, common: str, personal: str) -> str:
        return self.table[(common, personal)]


@dataclass(frozen=True)
class ChannelSpec:
    name: str
    inputs: Mapping[str, tuple[str, ...]]
    outputs: Mapping[str, int]
    states: Mapping[tuple[str, str], np.ndarray]
    splits: Mapping[str, SplitSpec] | None = None

    @property
    def quantum_layout(self) -> RegisterLayout:
        return RegisterLayout(OUTPUT_NAMES, tuple(self.outputs[n] for n in OUTPUT_NAMES))

    def state_of(self, x1: str, x2: str) -> np.ndarray:
        return self.states[(x1, x2)]

    def has_splits(self) -> bool:
        return self.splits is not None

    def part_alphabet(self, part: str) -> tuple[str, ...]:
        if self.splits is None:
            raise OperatorError(f"channel {self.name!r} declares no message splits")
        for inp, names in SPLIT_PARTS.items():
            if part in names:
                return self.splits[inp].parts[names.index(part)]
        raise OperatorError(f"unknown split part {part!r}")

    def validate(self) -> None:
        for name in INPUT_NAMES:
            if name not in self.inputs or not self.inputs[name]:
                raise OperatorError(f"input alphabet {name} missing or empty")
            for sym in self.inputs[name]:
                if "," in sym:
                    raise OperatorError(f"input symbol {sym!r} may not contain a comma")
        for name in OUTPUT_NAMES:
            if self.outputs.get(name, 0) < 1:
                raise OperatorError(f"output dimension {name} must be >= 1")
        d = self.quantum_layout.total_dim
        for x1 in self.inputs["X1"]:
            for x2 in self.inputs["X2"]:
                key = (x1, x2)
                if key not in self.states:
                    raise OperatorError(f"state for input pair {x1!r},{x2!r} missing")
                m = self.states[key]
                if m.shape != (d, d):
                    raise OperatorError(
                        f"state {x1!r},{x2!r}: dimension {m.shape[0]} != expected {d}"
                    )
                validate_density(m, f"{x1},{x2}")
        if self.splits is not None:
            for inp, names in SPLIT_PARTS.items():
                split = self.splits.get(inp)
                if split is None:
                    raise OperatorError(f"splits must cover both inputs; {inp} missing")
                alph_c, alph_p = split.parts
                if not alph_c or not alph_p:
                    raise OperatorError(f"{inp} split alphabets must be nonempty")
                image = set()
                for c in alph_c:
                    for p in alph_p:
                        if (c, p) not in split.table:
                            raise OperatorError(f"{inp} combining table misses pair ({c},{p})")
                        sym = split.table[(c, p)]
                        if sym not in self.inputs[inp]:
                            raise OperatorError(
                                f"{inp} combining table maps to unknown symbol {sym!r}"
                            )
                        image.add(sym)
                if image != set(self.inputs[inp]):
                    raise OperatorError(f"{inp} combining table is not onto the input alphabet")


def _identity_table(inp: str, alph_c: Sequence[str], alph_p: Sequence[str], symbols: Sequence[str]):
    """Default combining table: row-major pair index onto the input alphabet."""
    if len(symbols) != len(alph_c) * len(alph_p):
        raise ChannelFormatError(
            f"{inp}: default combining table needs |{inp}| = |common| x |personal|"
        )
    table = {}
    for i, c in enumerate(alph_c):
        for j, p in enumerate(alph_p):
            table[(c, p)] = symbols[i * len(alph_p) + j]
    return table


def channel_from_document(doc: Mapping) -> ChannelSpec:
    try:
        name = str(doc["name"])
        inputs = {k: tuple(str(s) for s in v) for k, v in doc["inputs"].items()}
        outputs = dict(doc["outputs"].items())
        raw_states = doc["states"]
    except (KeyError, TypeError, AttributeError) as exc:
        raise ChannelFormatError(f"malformed channel document: {exc!r}") from None
    for k, v in outputs.items():
        if isinstance(v, bool) or not isinstance(v, int):
            raise ChannelFormatError(f"output {k!r}: dimension {v!r} is not an integer")
    states = {}
    for key, payload in raw_states.items():
        parts = key.split(",")
        if len(parts) != 2:
            raise ChannelFormatError(f"state key {key!r} is not of the form 'x1,x2'")
        try:
            re_part = np.asarray(payload["re"], dtype=float)
            im_part = np.asarray(payload["im"], dtype=float)
        except (KeyError, TypeError, ValueError) as exc:
            raise ChannelFormatError(f"state {key!r}: bad matrix payload ({exc!r})") from None
        if re_part.shape != im_part.shape or re_part.ndim != 2:
            raise ChannelFormatError(f"state {key!r}: re/im must be equal-shape 2-d arrays")
        states[(parts[0], parts[1])] = re_part + 1j * im_part
    splits = None
    if "splits" in doc and doc["splits"]:
        splits = {}
        for inp, names in SPLIT_PARTS.items():
            if inp not in doc["splits"]:
                raise ChannelFormatError(f"splits must cover both inputs; {inp} missing")
            entry = doc["splits"][inp]
            try:
                alph_c = tuple(str(s) for s in entry["parts"][names[0]])
                alph_p = tuple(str(s) for s in entry["parts"][names[1]])
            except (KeyError, TypeError) as exc:
                raise ChannelFormatError(f"{inp} split: bad parts ({exc!r})") from None
            if "map" in entry:
                table = {}
                for key, sym in entry["map"].items():
                    pair = key.split(",")
                    if len(pair) != 2:
                        raise ChannelFormatError(f"{inp} map key {key!r} not 'common,personal'")
                    table[(pair[0], pair[1])] = str(sym)
            else:
                table = _identity_table(inp, alph_c, alph_p, inputs[inp])
            splits[inp] = SplitSpec((alph_c, alph_p), table)
    spec = ChannelSpec(name=name, inputs=inputs, outputs=outputs, states=states, splits=splits)
    spec.validate()
    return spec


def channel_to_document(spec: ChannelSpec) -> dict:
    doc: dict = {
        "name": spec.name,
        "inputs": {k: list(v) for k, v in spec.inputs.items()},
        "outputs": dict(spec.outputs),
        "states": {
            f"{x1},{x2}": {
                "re": np.real(m).tolist(),
                "im": np.imag(m).tolist(),
            }
            for (x1, x2), m in spec.states.items()
        },
    }
    if spec.splits is not None:
        doc["splits"] = {
            inp: {
                "parts": {
                    SPLIT_PARTS[inp][0]: list(split.parts[0]),
                    SPLIT_PARTS[inp][1]: list(split.parts[1]),
                },
                "map": {f"{c},{p}": sym for (c, p), sym in sorted(split.table.items())},
            }
            for inp, split in spec.splits.items()
        }
    return doc


def dumps_channel(spec: ChannelSpec) -> str:
    """Canonical serialization; loading then saving reproduces the bytes."""
    return json.dumps(channel_to_document(spec), indent=2, sort_keys=True) + "\n"


def save_channel(spec: ChannelSpec, path) -> None:
    Path(path).write_text(dumps_channel(spec), encoding="utf-8")


def read_json(path, what: str):
    """The parsed UTF-8 JSON document at ``path``; ``what`` names it in errors."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ChannelFormatError(f"cannot read {what} file: {exc}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ChannelFormatError(f"{what} file is not valid JSON: {exc}") from None


def load_channel(path) -> ChannelSpec:
    return channel_from_document(read_json(path, "channel"))


# ---------------------------------------------------------------------------
# input distributions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InputDistribution:
    """Either a time-shared pair of conditionals or four split-part marginals."""

    kind: str  # "t1" or "hk"
    q: np.ndarray | None = None
    x1_given_q: np.ndarray | None = None
    x2_given_q: np.ndarray | None = None
    marginals: Mapping[str, np.ndarray] | None = None

    def validate(self, channel: ChannelSpec) -> None:
        if self.kind == "t1":
            q = np.asarray(self.q, dtype=float)
            c1 = np.asarray(self.x1_given_q, dtype=float)
            c2 = np.asarray(self.x2_given_q, dtype=float)
            validate_pmf(q, "q")
            if c1.shape != (len(q), len(channel.inputs["X1"])):
                raise OperatorError(
                    f"x1_given_q shape {c1.shape} incompatible with |Q|={len(q)}, "
                    f"|X1|={len(channel.inputs['X1'])}"
                )
            if c2.shape != (len(q), len(channel.inputs["X2"])):
                raise OperatorError(f"x2_given_q shape {c2.shape} incompatible with channel")
            for row in c1:
                validate_pmf(row, "x1_given_q row")
            for row in c2:
                validate_pmf(row, "x2_given_q row")
        elif self.kind == "hk":
            if not channel.has_splits():
                raise OperatorError("split-form distribution requires a channel with splits")
            for reg in HK_REGISTERS:
                vec = np.asarray(self.marginals[reg], dtype=float)
                expected = len(channel.part_alphabet(reg))
                if vec.shape != (expected,):
                    raise OperatorError(
                        f"marginal {reg} has length {vec.shape}, expected {expected}"
                    )
                validate_pmf(vec, reg)
        else:
            raise OperatorError(f"unknown distribution kind {self.kind!r}")


def uniform_t1(channel: ChannelSpec, q_size: int = 1) -> InputDistribution:
    n1, n2 = len(channel.inputs["X1"]), len(channel.inputs["X2"])
    return InputDistribution(
        kind="t1",
        q=np.full(q_size, 1.0 / q_size),
        x1_given_q=np.full((q_size, n1), 1.0 / n1),
        x2_given_q=np.full((q_size, n2), 1.0 / n2),
    )


def uniform_hk(channel: ChannelSpec) -> InputDistribution:
    marginals = {}
    for reg in HK_REGISTERS:
        n = len(channel.part_alphabet(reg))
        marginals[reg] = np.full(n, 1.0 / n)
    return InputDistribution(kind="hk", marginals=marginals)


def distribution_from_document(doc: Mapping) -> InputDistribution:
    if "q" in doc:
        try:
            return InputDistribution(
                kind="t1",
                q=np.asarray(doc["q"], dtype=float),
                x1_given_q=np.asarray(doc["x1_given_q"], dtype=float),
                x2_given_q=np.asarray(doc["x2_given_q"], dtype=float),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ChannelFormatError(f"malformed time-shared distribution: {exc!r}") from None
    try:
        marginals = {reg: np.asarray(doc[reg.lower()], dtype=float) for reg in HK_REGISTERS}
    except (KeyError, TypeError, ValueError) as exc:
        raise ChannelFormatError(
            f"distribution must carry q/x1_given_q/x2_given_q or the four split marginals: {exc!r}"
        ) from None
    return InputDistribution(kind="hk", marginals=marginals)


def distribution_to_document(dist: InputDistribution) -> dict:
    if dist.kind == "t1":
        return {
            "q": np.asarray(dist.q, dtype=float).tolist(),
            "x1_given_q": np.asarray(dist.x1_given_q, dtype=float).tolist(),
            "x2_given_q": np.asarray(dist.x2_given_q, dtype=float).tolist(),
        }
    return {reg.lower(): np.asarray(dist.marginals[reg], dtype=float).tolist() for reg in HK_REGISTERS}


def load_distribution(path) -> InputDistribution:
    return distribution_from_document(read_json(path, "distribution"))


def save_distribution(dist: InputDistribution, path) -> None:
    text = json.dumps(distribution_to_document(dist), indent=2, sort_keys=True) + "\n"
    Path(path).write_text(text, encoding="utf-8")


# ---------------------------------------------------------------------------
# control states
# ---------------------------------------------------------------------------


def _t1_probs(channel: ChannelSpec, dist: InputDistribution) -> np.ndarray:
    if dist.kind != "t1":
        raise OperatorError("control_state_t1 needs a time-shared distribution")
    if channel.has_splits():
        raise OperatorError("control_state_t1 requires a channel without splits")
    dist.validate(channel)
    q = np.asarray(dist.q, dtype=float)
    c1 = np.asarray(dist.x1_given_q, dtype=float)
    c2 = np.asarray(dist.x2_given_q, dtype=float)
    return q[:, None, None] * c1[:, :, None] * c2[:, None, :]


def _hk_probs(channel: ChannelSpec, dist: InputDistribution) -> np.ndarray:
    if dist.kind != "hk":
        raise OperatorError("control_state_hk needs the four split marginals")
    if not channel.has_splits():
        raise OperatorError("control_state_hk requires a channel with splits")
    dist.validate(channel)
    m = {reg: np.asarray(dist.marginals[reg], dtype=float) for reg in HK_REGISTERS}
    return (
        m["X10"][:, None, None, None]
        * m["X11"][None, :, None, None]
        * m["X20"][None, None, :, None]
        * m["X22"][None, None, None, :]
    )


def control_probs(channel: ChannelSpec, dist: InputDistribution) -> np.ndarray:
    """The ``probs`` of the control state of ``dist``, without building its conditionals."""
    return (_t1_probs if dist.kind == "t1" else _hk_probs)(channel, dist)


def control_state_t1(channel: ChannelSpec, dist: InputDistribution) -> CQState:
    """Time-shared control state on classical (Q, X1, X2) and quantum (Y1, Y2, Z)."""
    probs = _t1_probs(channel, dist)
    layout = channel.quantum_layout
    d = layout.total_dim
    a1, a2 = channel.inputs["X1"], channel.inputs["X2"]
    conds = np.zeros(probs.shape + (d, d), dtype=complex)
    for i1, s1 in enumerate(a1):
        for i2, s2 in enumerate(a2):
            conds[:, i1, i2] = channel.state_of(s1, s2)
    state = CQState(CQConditionals(("Q", "X1", "X2"), probs.shape, layout, conds), probs)
    state.validate()
    return state


def control_state_hk(channel: ChannelSpec, dist: InputDistribution) -> CQState:
    """Split-message control state on classical (X10, X11, X20, X22)."""
    probs = _hk_probs(channel, dist)
    layout = channel.quantum_layout
    d = layout.total_dim
    alphabets = [channel.part_alphabet(reg) for reg in HK_REGISTERS]
    conds = np.zeros(probs.shape + (d, d), dtype=complex)
    s1 = channel.splits["X1"]
    s2 = channel.splits["X2"]
    for i10, x10 in enumerate(alphabets[0]):
        for i11, x11 in enumerate(alphabets[1]):
            x1 = s1.combine(x10, x11)
            for i20, x20 in enumerate(alphabets[2]):
                for i22, x22 in enumerate(alphabets[3]):
                    conds[i10, i11, i20, i22] = channel.state_of(x1, s2.combine(x20, x22))
    state = CQState(CQConditionals(HK_REGISTERS, probs.shape, layout, conds), probs)
    state.validate()
    return state


# ---------------------------------------------------------------------------
# bundled data
# ---------------------------------------------------------------------------

def bundled_path(name: str) -> Path:
    """Filesystem path of a bundled channel or distribution document."""
    root = resources.files("oneshot_secrecy").joinpath("data")
    path = Path(str(root.joinpath(name)))
    if not path.exists():
        raise FileNotFoundError(f"no bundled file named {name!r}")
    return path
