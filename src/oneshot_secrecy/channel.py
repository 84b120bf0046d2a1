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
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .operators import OperatorError, RegisterLayout, validate_densities, validate_pmf
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

    @property
    def stack(self) -> np.ndarray:
        """The read-only ``(|X1|, |X2|, d, d)`` output states in alphabet order; ``states`` holds views of it."""
        return self._stack

    def has_splits(self) -> bool:
        return self.splits is not None

    def part_alphabet(self, part: str) -> tuple[str, ...]:
        if self.splits is None:
            raise OperatorError(f"channel {self.name!r} declares no message splits")
        for inp, names in SPLIT_PARTS.items():
            if part in names:
                return self.splits[inp].parts[names.index(part)]
        raise OperatorError(f"unknown split part {part!r}")

    def __post_init__(self):
        """Check the spec, copy its states once into one read-only stack and check that stack's densities.

        Every spec that exists is valid, also one made by ``dataclasses.replace``,
        and stays valid: ``states`` becomes a read-only mapping of read-only
        views, and ``inputs``, ``outputs``, ``splits`` and each split's table
        become read-only copies, with tuple alphabets.
        """
        for name in INPUT_NAMES:
            if name not in self.inputs or not self.inputs[name]:
                raise OperatorError(f"input alphabet {name} missing or empty")
            for sym in self.inputs[name]:
                if "," in sym:
                    raise OperatorError(f"input symbol {sym!r} may not contain a comma")
            _check_distinct(f"input alphabet {name}", self.inputs[name])
        for name in OUTPUT_NAMES:
            if self.outputs.get(name, 0) < 1:
                raise OperatorError(f"output dimension {name} must be >= 1")
        pairs = [(x1, x2) for x1 in self.inputs["X1"] for x2 in self.inputs["X2"]]
        for what, given, known in (("input", self.inputs, INPUT_NAMES), ("output", self.outputs, OUTPUT_NAMES),
                                   ("state", self.states, set(pairs))):
            _check_known(what, given, known)
        d = self.quantum_layout.total_dim
        for x1, x2 in pairs:
            if (x1, x2) not in self.states:
                raise OperatorError(f"state for input pair {x1!r},{x2!r} missing")
            m = self.states[(x1, x2)]
            if m.shape != (d, d):
                raise OperatorError(f"state {x1!r},{x2!r}: dimension {m.shape[0]} != expected {d}")
        if self.splits is not None:
            for inp, names in SPLIT_PARTS.items():
                split = self.splits.get(inp)
                if split is None:
                    raise OperatorError(f"splits must cover both inputs; {inp} missing")
                alph_c, alph_p = split.parts
                if not alph_c or not alph_p:
                    raise OperatorError(f"{inp} split alphabets must be nonempty")
                for part, alph in zip(names, split.parts):
                    _check_distinct(f"{part} alphabet", alph)
                for c, p in split.table:
                    if c not in alph_c or p not in alph_p:
                        raise OperatorError(f"{inp} combining table pair ({c},{p}) names no part symbol")
                image = set()
                for c in alph_c:
                    for p in alph_p:
                        if (c, p) not in split.table:
                            raise OperatorError(f"{inp} combining table misses pair ({c},{p})")
                        sym = split.table[(c, p)]
                        if sym not in self.inputs[inp]:
                            raise OperatorError(f"{inp} combining table maps to unknown symbol {sym!r}")
                        image.add(sym)
                if image != set(self.inputs[inp]):
                    raise OperatorError(f"{inp} combining table is not onto the input alphabet")
            _check_known("split", self.splits, INPUT_NAMES)
        stack = np.array([[self.states[(x1, x2)] for x2 in self.inputs["X2"]] for x1 in self.inputs["X1"]])
        stack.flags.writeable = False
        object.__setattr__(self, "_stack", stack)
        object.__setattr__(self, "states", MappingProxyType(dict(zip(pairs, stack.reshape(-1, d, d)))))
        validate_densities(stack, [f"{x1},{x2}" for x1, x2 in pairs])
        object.__setattr__(self, "inputs", MappingProxyType({k: tuple(v) for k, v in self.inputs.items()}))
        object.__setattr__(self, "outputs", MappingProxyType(dict(self.outputs)))
        if self.splits is not None:
            object.__setattr__(self, "splits", MappingProxyType({
                inp: SplitSpec(tuple(map(tuple, split.parts)), MappingProxyType(dict(split.table)))
                for inp, split in self.splits.items()
            }))


def _check_known(what: str, given, known) -> None:
    """Every key of ``given`` is one of ``known``; ``what`` names the keys in the error."""
    unknown = [k for k in given if k not in known]
    if unknown:
        raise OperatorError(f"unknown {what} key {unknown[0]!r}")


def _check_distinct(what: str, symbols: Sequence[str]) -> None:
    """An alphabet names each symbol once; ``what`` names the alphabet in the error."""
    repeated = [sym for i, sym in enumerate(symbols) if sym in symbols[:i]]
    if repeated:
        raise OperatorError(f"{what} repeats symbol {repeated[0]!r}")


def json_strings(value) -> tuple[str, ...]:
    """The entries of a JSON array, as strings; any other value is malformed."""
    if not isinstance(value, list):
        raise TypeError(f"expected a JSON array, got {value!r}")
    return tuple(str(s) for s in value)


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
        inputs = {k: json_strings(v) for k, v in doc["inputs"].items()}
        outputs = dict(doc["outputs"].items())
        raw_states = doc["states"].items()
    except (KeyError, TypeError, AttributeError) as exc:
        raise ChannelFormatError(f"malformed channel document: {exc!r}") from None
    for k, v in outputs.items():
        if isinstance(v, bool) or not isinstance(v, int):
            raise ChannelFormatError(f"output {k!r}: dimension {v!r} is not an integer")
    states = {}
    for key, payload in raw_states:
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
    splits, split_doc = None, doc.get("splits")
    if split_doc is not None and not isinstance(split_doc, dict):
        raise ChannelFormatError(f"malformed channel document: splits {split_doc!r} is not a JSON object")
    if split_doc:
        splits = {}
        for inp, names in SPLIT_PARTS.items():
            if inp not in split_doc:
                raise ChannelFormatError(f"splits must cover both inputs; {inp} missing")
            entry = split_doc[inp]
            try:
                alph_c = json_strings(entry["parts"][names[0]])
                alph_p = json_strings(entry["parts"][names[1]])
                mapping = entry["map"].items() if "map" in entry else None
            except (KeyError, TypeError, AttributeError) as exc:
                raise ChannelFormatError(f"malformed {inp} split: {exc!r}") from None
            _check_known(f"{inp} split", entry, ("parts", "map"))
            _check_known(f"{inp} split part", entry["parts"], names)
            if mapping is not None:
                table = {}
                for key, sym in mapping:
                    pair = key.split(",")
                    if len(pair) != 2:
                        raise ChannelFormatError(f"{inp} map key {key!r} not 'common,personal'")
                    table[(pair[0], pair[1])] = str(sym)
            else:
                # a missing or empty input alphabet is left to the ChannelSpec constructor's error
                table = _identity_table(inp, alph_c, alph_p, inputs[inp]) if inputs.get(inp) else {}
            splits[inp] = SplitSpec((alph_c, alph_p), table)
        _check_known("split", split_doc, INPUT_NAMES)
    return ChannelSpec(name=name, inputs=inputs, outputs=outputs, states=states, splits=splits)


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
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ChannelFormatError(f"{what} file is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ChannelFormatError(f"malformed {what} document: {doc!r} is not a JSON object")
    return doc


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
        """The one check of a distribution's form and probabilities; a control state multiplies the checked pmfs
        as they are."""
        if self.kind == "t1":
            if channel.has_splits():
                raise OperatorError("time-shared distribution requires a channel without splits")
            q = np.asarray(self.q, dtype=float)
            c1 = np.asarray(self.x1_given_q, dtype=float)
            c2 = np.asarray(self.x2_given_q, dtype=float)
            if q.ndim != 1:
                raise OperatorError(f"q has shape {q.shape}, expected a 1-d vector")
            validate_pmf(q, "q")
            if c1.shape != (len(q), len(channel.inputs["X1"])):
                raise OperatorError(
                    f"x1_given_q shape {c1.shape} incompatible with |Q|={len(q)}, "
                    f"|X1|={len(channel.inputs['X1'])}"
                )
            if c2.shape != (len(q), len(channel.inputs["X2"])):
                raise OperatorError(
                    f"x2_given_q shape {c2.shape} incompatible with |Q|={len(q)}, "
                    f"|X2|={len(channel.inputs['X2'])}"
                )
            for row in c1:
                validate_pmf(row, "x1_given_q row")
            for row in c2:
                validate_pmf(row, "x2_given_q row")
        elif self.kind == "hk":
            if not channel.has_splits():
                raise OperatorError("split-form distribution requires a channel with splits")
            if self.marginals is None:
                raise OperatorError("split-form distribution carries no marginals")
            missing = [reg for reg in HK_REGISTERS if reg not in self.marginals]
            if missing:
                raise OperatorError(f"marginal {missing[0]} missing")
            _check_known("marginal", self.marginals, HK_REGISTERS)
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
    """The time-shared form when ``doc`` has ``q``, else the split form; a key of neither form is rejected."""
    if "q" in doc:
        keys = ("q", "x1_given_q", "x2_given_q")
        try:
            dist = InputDistribution("t1", **{key: np.asarray(doc[key], dtype=float) for key in keys})
        except (KeyError, TypeError, ValueError) as exc:
            raise ChannelFormatError(f"malformed time-shared distribution: {exc!r}") from None
    else:
        keys = tuple(reg.lower() for reg in HK_REGISTERS)
        try:
            marginals = {reg: np.asarray(doc[key], dtype=float) for reg, key in zip(HK_REGISTERS, keys)}
        except (KeyError, TypeError, ValueError) as exc:
            raise ChannelFormatError(
                f"distribution must carry q/x1_given_q/x2_given_q or the four split marginals: {exc!r}"
            ) from None
        dist = InputDistribution(kind="hk", marginals=marginals)
    _check_known("distribution", doc, keys)
    return dist


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


def _t1_probs(q: np.ndarray, c1: np.ndarray, c2: np.ndarray) -> np.ndarray:
    """``p(q) p(x1|q) p(x2|q)`` on (Q, X1, X2); leading axes of all three are grid axes."""
    return q[..., :, None, None] * c1[..., :, :, None] * c2[..., :, None, :]


def _hk_probs(m10: np.ndarray, m11: np.ndarray, m20: np.ndarray, m22: np.ndarray) -> np.ndarray:
    """Product of the four split marginals; leading axes of all four are grid axes."""
    return (
        m10[..., :, None, None, None]
        * m11[..., None, :, None, None]
        * m20[..., None, None, :, None]
        * m22[..., None, None, None, :]
    )


def _split_index(channel: ChannelSpec, inp: str) -> np.ndarray:
    """Input-alphabet index of each (common, personal) pair under the combining table of ``inp``."""
    split, symbols = channel.splits[inp], channel.inputs[inp]
    return np.array([[symbols.index(split.combine(c, p)) for p in split.parts[1]] for c in split.parts[0]])


def _t1_conditionals(channel: ChannelSpec, q_size: int) -> CQConditionals:
    """Conditionals on classical (Q, X1, X2): every value of Q sees the same channel."""
    stack = channel.stack
    return CQConditionals(("Q", "X1", "X2"), (q_size, *stack.shape[:2]), channel.quantum_layout,
                          np.repeat(stack[None], q_size, axis=0))


def _hk_conditionals(channel: ChannelSpec) -> CQConditionals:
    """Conditionals on classical (X10, X11, X20, X22), gathered through the combining tables."""
    i1, i2 = _split_index(channel, "X1"), _split_index(channel, "X2")
    conds = channel.stack[i1[:, :, None, None], i2[None, None, :, :]]
    return CQConditionals(HK_REGISTERS, conds.shape[:4], channel.quantum_layout, conds)


def control_state_t1(channel: ChannelSpec, dist: InputDistribution) -> CQState:
    """Time-shared control state on classical (Q, X1, X2) and quantum (Y1, Y2, Z)."""
    if dist.kind != "t1":
        raise OperatorError("control_state_t1 needs a time-shared distribution")
    dist.validate(channel)
    q, c1, c2 = (np.asarray(v, dtype=float) for v in (dist.q, dist.x1_given_q, dist.x2_given_q))
    return CQState(_t1_conditionals(channel, len(q)), _t1_probs(q, c1, c2))


def control_state_hk(channel: ChannelSpec, dist: InputDistribution) -> CQState:
    """Split-message control state on classical (X10, X11, X20, X22)."""
    if dist.kind != "hk":
        raise OperatorError("control_state_hk needs the four split marginals")
    dist.validate(channel)
    probs = _hk_probs(*(np.asarray(dist.marginals[reg], dtype=float) for reg in HK_REGISTERS))
    return CQState(_hk_conditionals(channel), probs)


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
