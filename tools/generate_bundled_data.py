"""Regenerate the bundled channel and distribution documents in src/.../data.

The three channels are small deterministic classical-quantum instances used
by the test suite and the demos:

* diag_deterministic: binary inputs; each receiver gets a computational-basis
  copy of its own sender's letter, the eavesdropper sees a maximally mixed
  qubit regardless of the inputs.
* diag_deterministic_split: the same channel with degenerate common parts
  (singleton X10/X20), so the split machinery reduces to the unsplit one.
* xor_split: all four split parts binary; both receivers observe the pair
  (x11 xor x22, x10 xor x20) in the computational basis, the eavesdropper
  again sees a maximally mixed qubit.  The symmetry makes the two sub-channel
  systems coincide, which keeps every projected row comparable against the
  printed split-message region.
"""
from __future__ import annotations

from pathlib import Path

import numpy as np

from oneshot_secrecy.channel import (
    ChannelSpec,
    SplitSpec,
    save_channel,
    save_distribution,
    uniform_hk,
    uniform_t1,
    load_channel,
)

DATA = Path(__file__).resolve().parents[1] / "src" / "oneshot_secrecy" / "data"


def basis_state(dim: int, index: int) -> np.ndarray:
    m = np.zeros((dim, dim), dtype=complex)
    m[index, index] = 1.0
    return m


def mixed(dim: int) -> np.ndarray:
    return np.eye(dim, dtype=complex) / dim


def diag_deterministic() -> ChannelSpec:
    states = {}
    for i1, x1 in enumerate("01"):
        for i2, x2 in enumerate("01"):
            m = np.kron(np.kron(basis_state(2, i1), basis_state(2, i2)), mixed(2))
            states[(x1, x2)] = m
    return ChannelSpec(
        name="diag-deterministic",
        inputs={"X1": ("0", "1"), "X2": ("0", "1")},
        outputs={"Y1": 2, "Y2": 2, "Z": 2},
        states=states,
    )


def diag_deterministic_split() -> ChannelSpec:
    base = diag_deterministic()
    splits = {
        "X1": SplitSpec((("0",), ("0", "1")), {("0", "0"): "0", ("0", "1"): "1"}),
        "X2": SplitSpec((("0",), ("0", "1")), {("0", "0"): "0", ("0", "1"): "1"}),
    }
    return ChannelSpec(
        name="diag-deterministic-split",
        inputs=base.inputs,
        outputs=base.outputs,
        states=base.states,
        splits=splits,
    )


def xor_split() -> ChannelSpec:
    parts = ("0", "1")
    symbols = tuple(f"{c}{p}" for c in parts for p in parts)  # x1 = x10 x11, row-major
    states = {}
    for x1 in symbols:
        for x2 in symbols:
            x10, x11 = int(x1[0]), int(x1[1])
            x20, x22 = int(x2[0]), int(x2[1])
            u = x11 ^ x22
            v = x10 ^ x20
            y = basis_state(4, 2 * u + v)
            states[(x1, x2)] = np.kron(np.kron(y, y), mixed(2))
    table1 = {(c, p): c + p for c in parts for p in parts}
    return ChannelSpec(
        name="xor-split",
        inputs={"X1": symbols, "X2": symbols},
        outputs={"Y1": 4, "Y2": 4, "Z": 2},
        states=states,
        splits={
            "X1": SplitSpec((parts, parts), table1),
            "X2": SplitSpec((parts, parts), dict(table1)),
        },
    )


def main() -> None:
    DATA.mkdir(parents=True, exist_ok=True)
    for spec, fname in (
        (diag_deterministic(), "diag_deterministic.json"),
        (diag_deterministic_split(), "diag_deterministic_split.json"),
        (xor_split(), "xor_split.json"),
    ):
        save_channel(spec, DATA / fname)
        load_channel(DATA / fname)  # loading validates the written document
        print("wrote", fname)
    diag = load_channel(DATA / "diag_deterministic.json")
    save_distribution(uniform_t1(diag), DATA / "uniform_t1.json")
    xor = load_channel(DATA / "xor_split.json")
    save_distribution(uniform_hk(xor), DATA / "uniform_hk.json")
    degen = load_channel(DATA / "diag_deterministic_split.json")
    save_distribution(uniform_hk(degen), DATA / "uniform_hk_degenerate.json")
    print("wrote distributions")


if __name__ == "__main__":
    main()
