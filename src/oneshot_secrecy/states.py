"""Classical-quantum states: named classical registers over conditional operators."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .operators import PROB_TOL, OperatorError, RegisterLayout, partial_trace_matrix, validate_densities


class CQConditionals:
    """Named classical registers over conditional operators on a shared quantum part.

    ``conditionals[idx]`` is the quantum state prepared when the classical
    registers (in ``classical_names`` order) take the joint value ``idx``.
    CQ states that differ only in their probabilities share these: a grid of
    states is these plus a ``(G, *alphabet_sizes)`` stack of ``probs``.
    Traces onto quantum registers are computed on first use and kept.
    """

    def __init__(self, classical_names: Sequence[str], alphabet_sizes: Sequence[int],
                 quantum_layout: RegisterLayout, conditionals):
        self.classical_names = tuple(classical_names)
        self.alphabet_sizes = tuple(int(s) for s in alphabet_sizes)
        self.quantum_layout = quantum_layout
        self.conditionals = np.asarray(conditionals, dtype=complex)
        d = quantum_layout.total_dim
        if self.conditionals.shape != self.alphabet_sizes + (d, d):
            raise OperatorError(
                f"conditionals shape {self.conditionals.shape} incompatible with "
                f"alphabets {self.alphabet_sizes} and quantum dim {d}"
            )
        if len(set(self.classical_names) | set(quantum_layout.names)) != len(
            self.classical_names
        ) + len(quantum_layout.names):
            raise OperatorError("classical and quantum register names must be distinct")
        self._traced: dict[tuple[str, ...], np.ndarray] = {}

    @property
    def registers(self) -> tuple[str, ...]:
        return self.classical_names + self.quantum_layout.names

    def is_classical(self, name: str) -> bool:
        return name in self.classical_names

    def axis(self, name: str) -> int:
        try:
            return self.classical_names.index(name)
        except ValueError:
            raise OperatorError(f"unknown classical register {name!r}") from None

    def check(self, probs: np.ndarray) -> None:
        """Check every point of a ``(G, *alphabet_sizes)`` stack, then each live conditional.

        A point's probabilities must be finite, may not fall below
        ``-PROB_TOL`` and must sum to 1 within ``PROB_TOL``; the first failing
        point's first violation is raised.  A conditional is live, and must be
        a density operator, where some point gives it more than ``PROB_TOL``.
        """
        points = probs.reshape(len(probs), -1)
        finite = np.isfinite(points).all(axis=1)
        totals = np.where(finite[:, None], points, 0.0).sum(axis=1)
        failed = np.stack([~finite, np.any(points < -PROB_TOL, axis=1), np.abs(totals - 1.0) > PROB_TOL])
        if failed.any():
            g = np.flatnonzero(failed.any(axis=0))[0]
            reasons = ("non-finite probability", f"negative probability {points[g].min():.1e}",
                       f"probabilities sum to {float(totals[g])!r}, not 1")
            raise OperatorError(reasons[np.flatnonzero(failed[:, g])[0]])
        ks = np.flatnonzero(np.any(probs > PROB_TOL, axis=0))
        flat_c = self.conditionals.reshape(-1, *self.conditionals.shape[-2:])
        validate_densities(flat_c[ks], [f"conditional {k}" for k in ks])

    def traced(self, quantum: tuple[str, ...]) -> np.ndarray:
        """The conditionals traced onto the ``quantum`` registers, in that order."""
        if quantum not in self._traced:
            if quantum:
                self._traced[quantum] = partial_trace_matrix(self.conditionals, self.quantum_layout, quantum)
            else:
                self._traced[quantum] = np.ones(self.alphabet_sizes + (1, 1), dtype=complex)
        return self._traced[quantum]


@dataclass
class CQState:
    """Joint state of named classical registers and a shared quantum part.

    ``probs`` has one axis per classical register of ``conds``; the state is
    the one-point grid of its conditionals.  Zero-probability atoms may
    carry any placeholder operator.
    """

    conds: CQConditionals
    probs: np.ndarray

    def __post_init__(self):
        self.probs = np.asarray(self.probs, dtype=float)
        if self.probs.shape != self.conds.alphabet_sizes:
            raise OperatorError(
                f"probs shape {self.probs.shape} != alphabet sizes {self.conds.alphabet_sizes}"
            )

    def validate(self) -> None:
        self.conds.check(self.probs[None])


def _block_diag(stack: np.ndarray) -> np.ndarray:
    """Dense block-diagonal matrix of a ``(K, d, d)`` stack."""
    k, d = stack.shape[0], stack.shape[-1]
    out = np.zeros((k, d, k, d), dtype=complex)
    idx = np.arange(k)
    out[idx, :, idx, :] = stack
    return out.reshape(k * d, k * d)


def _groups(conds: CQConditionals, part_a: Sequence[str], part_b: Sequence[str]):
    """Each part's classical and quantum registers ``(a_cl, a_qu, b_cl, b_qu)``; no register may be named twice."""
    part_a, part_b = list(part_a), list(part_b)
    registers = part_a + part_b
    repeated = sorted({r for r in registers if registers.count(r) > 1})
    if repeated:
        raise OperatorError(f"register groups overlap: {repeated} named twice")
    a_cl = [r for r in part_a if conds.is_classical(r)]
    b_cl = [r for r in part_b if conds.is_classical(r)]
    return a_cl, [r for r in part_a if r not in a_cl], b_cl, [r for r in part_b if r not in b_cl]


def pair_shape(conds: CQConditionals, part_a: Sequence[str], part_b: Sequence[str]) -> tuple[int, int]:
    """``(K, d)`` of :func:`block_pairs`' stacks, without building them."""
    a_cl, a_qu, b_cl, b_qu = _groups(conds, part_a, part_b)
    return (math.prod(conds.alphabet_sizes[conds.axis(r)] for r in a_cl + b_cl),
            math.prod(conds.quantum_layout.dim_of(r) for r in a_qu + b_qu))


def block_pairs(
    conds: CQConditionals, probs: np.ndarray, part_a: Sequence[str], part_b: Sequence[str],
    given: tuple[int, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Joint and product blocks over two register groups at every point of a grid.

    ``probs`` is the ``(G, *alphabet_sizes)`` stack of the grid's points.
    Returns two ``(G, K, d, d)`` stacks, one block per joint classical value
    of the two groups, in the register order of :func:`joint_and_product`.
    Each point's blocks are summed exactly as for that point alone.  With
    ``given = (axis, values)``, a classical axis in neither group, each
    point is zero off its own value on that axis: ``probs`` has size 1
    there, and each point takes the conditionals at its value.
    """
    a_cl, a_qu, b_cl, b_qu = _groups(conds, part_a, part_b)
    qlayout = conds.quantum_layout
    da = math.prod(qlayout.dim_of(r) for r in a_qu)
    db = math.prod(qlayout.dim_of(r) for r in b_qu)
    # joint blocks: the quantum part traced down, the classical axes put in
    # (a_cl, b_cl, dropped) order behind the point axis, the dropped ones summed out
    n = len(conds.classical_names)
    kept = [conds.axis(r) for r in a_cl + b_cl]
    dropped = [i for i in range(n) if i not in kept]
    traced = conds.traced(tuple(a_qu + b_qu))
    if given is not None:
        axis, values = given
        traced = np.expand_dims(np.moveaxis(traced, axis, 0)[values], 1 + axis)
    g = len(probs)
    axes = [0] + [1 + i for i in kept + dropped] + [n + 1, n + 2]
    weighted = np.transpose(probs[..., None, None] * traced, axes)
    sizes = conds.alphabet_sizes
    ka, kb = math.prod(sizes[i] for i in kept[:len(a_cl)]), math.prod(sizes[i] for i in kept[len(a_cl):])
    blocks = weighted.reshape(g, ka, kb, -1, da * db, da * db).sum(axis=3)
    # marginal blocks: rho_A per a_cl value, rho_B per b_cl value, each the
    # partial trace of the summed blocks over the other side's quantum factor
    marg_a = np.einsum("gaikjk->gaij", blocks.sum(axis=2).reshape(g, ka, da, db, da, db))
    marg_b = np.einsum("gbkikj->gbij", blocks.sum(axis=1).reshape(g, kb, da, db, da, db))
    product = np.einsum("gaij,gbkl->gabikjl", marg_a, marg_b)
    shape = (g, ka * kb, da * db, da * db)
    return blocks.reshape(shape), product.reshape(shape)


def joint_and_product(
    state: CQState, part_a: Sequence[str], part_b: Sequence[str]
) -> tuple[np.ndarray, np.ndarray]:
    """The joint state over two register groups and the product of its marginals.

    Both operators share the classical-major register order
    ``(a_cl, b_cl, a_qu, b_qu)``: the classical registers of ``part_a`` then
    of ``part_b``, then their quantum registers, each in the caller's order.
    Both are therefore block diagonal with equal contiguous blocks, one per
    joint classical value of the two groups, which the divergences read off
    the operators.  The order is a
    permutation of ``(*part_a, *part_b)``, which leaves every divergence
    unchanged.  This is the one-point case of :func:`block_pairs`.
    """
    joint, product = block_pairs(state.conds, state.probs[None], part_a, part_b)
    return _block_diag(joint[0]), _block_diag(product[0])
