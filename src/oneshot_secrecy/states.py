"""Classical-quantum states: named classical registers over conditional operators."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .operators import PROB_TOL, OperatorError, RegisterLayout, partial_trace_matrix, validate_density


@dataclass
class CQState:
    """Joint state of named classical registers and a shared quantum part.

    ``probs`` has one axis per classical register (in ``classical_names``
    order); ``conditionals[idx]`` is the quantum state prepared when the
    classical registers take the joint value ``idx``.  Zero-probability
    atoms may carry any placeholder operator.
    """

    classical_names: tuple[str, ...]
    alphabet_sizes: tuple[int, ...]
    probs: np.ndarray
    quantum_layout: RegisterLayout
    conditionals: np.ndarray

    def __post_init__(self):
        self.classical_names = tuple(self.classical_names)
        self.alphabet_sizes = tuple(int(s) for s in self.alphabet_sizes)
        self.probs = np.asarray(self.probs, dtype=float)
        self.conditionals = np.asarray(self.conditionals, dtype=complex)
        d = self.quantum_layout.total_dim
        if self.probs.shape != self.alphabet_sizes:
            raise OperatorError(
                f"probs shape {self.probs.shape} != alphabet sizes {self.alphabet_sizes}"
            )
        if self.conditionals.shape != self.alphabet_sizes + (d, d):
            raise OperatorError(
                f"conditionals shape {self.conditionals.shape} incompatible with "
                f"alphabets {self.alphabet_sizes} and quantum dim {d}"
            )
        if len(set(self.classical_names) | set(self.quantum_layout.names)) != len(
            self.classical_names
        ) + len(self.quantum_layout.names):
            raise OperatorError("classical and quantum register names must be distinct")

    # -- validation -----------------------------------------------------

    def validate(self) -> None:
        if np.any(self.probs < -PROB_TOL):
            raise OperatorError(f"negative probability {self.probs.min():.1e}")
        total = float(self.probs.sum())
        if abs(total - 1.0) > PROB_TOL:
            raise OperatorError(f"probabilities sum to {total!r}, not 1")
        flat_p = self.probs.reshape(-1)
        flat_c = self.conditionals.reshape(-1, *self.conditionals.shape[-2:])
        for k in np.nonzero(flat_p > PROB_TOL)[0]:
            validate_density(flat_c[k], f"conditional {k}")

    # -- register bookkeeping -------------------------------------------

    @property
    def registers(self) -> tuple[str, ...]:
        return self.classical_names + self.quantum_layout.names

    def is_classical(self, name: str) -> bool:
        return name in self.classical_names

    def size_of(self, name: str) -> int:
        return self.alphabet_sizes[self.classical_names.index(name)]

    def _axis(self, name: str) -> int:
        try:
            return self.classical_names.index(name)
        except ValueError:
            raise OperatorError(f"unknown classical register {name!r}") from None

    def condition(self, register: str, value: int) -> "CQState":
        """State of the remaining registers given ``register == value``."""
        ax = self._axis(register)
        probs = np.take(self.probs, value, axis=ax)
        conds = np.take(self.conditionals, value, axis=ax)
        mass = float(probs.sum())
        if mass <= 0.0:
            raise OperatorError(f"conditioning on zero-probability value {register}={value}")
        names = tuple(n for n in self.classical_names if n != register)
        sizes = tuple(s for n, s in zip(self.classical_names, self.alphabet_sizes) if n != register)
        return CQState(names, sizes, probs / mass, self.quantum_layout, conds.copy())

    def classical_marginal_probs(self, register: str) -> np.ndarray:
        ax = self._axis(register)
        axes = tuple(i for i in range(len(self.classical_names)) if i != ax)
        return self.probs.sum(axis=axes) if axes else self.probs.copy()

    def classical_dim(self, registers: Sequence[str]) -> int:
        """Product of the alphabet sizes of the classical registers in ``registers``."""
        return math.prod(self.size_of(r) for r in registers if self.is_classical(r))


def _block_diag(stack: np.ndarray) -> np.ndarray:
    """Dense block-diagonal matrix of a ``(K, d, d)`` stack."""
    k, d = stack.shape[0], stack.shape[-1]
    out = np.zeros((k, d, k, d), dtype=complex)
    idx = np.arange(k)
    out[idx, :, idx, :] = stack
    return out.reshape(k * d, k * d)


def joint_and_product(
    state: CQState, part_a: Sequence[str], part_b: Sequence[str]
) -> tuple[np.ndarray, np.ndarray]:
    """The joint state over two register groups and the product of its marginals.

    Both operators share the classical-major register order
    ``(a_cl, b_cl, a_qu, b_qu)``: the classical registers of ``part_a`` then
    of ``part_b``, then their quantum registers, each in the caller's order.
    Both are therefore block diagonal with ``state.classical_dim(part_a +
    part_b)`` equal contiguous blocks, one per joint classical value, which
    the divergences read off the operators.  The order is a
    permutation of ``(*part_a, *part_b)``, which leaves every divergence
    unchanged.
    """
    part_a, part_b = list(part_a), list(part_b)
    registers = part_a + part_b
    repeated = sorted({r for r in registers if registers.count(r) > 1})
    if repeated:
        raise OperatorError(f"register groups overlap: {repeated} named twice")
    a_cl = [r for r in part_a if state.is_classical(r)]
    a_qu = [r for r in part_a if r not in a_cl]
    b_cl = [r for r in part_b if state.is_classical(r)]
    b_qu = [r for r in part_b if r not in b_cl]
    qlayout = state.quantum_layout
    da = math.prod(qlayout.dim_of(r) for r in a_qu)
    db = math.prod(qlayout.dim_of(r) for r in b_qu)
    # joint blocks: the quantum part traced down, the classical axes put in
    # (a_cl, b_cl, dropped) order and the dropped ones summed out
    n = len(state.classical_names)
    kept = [state._axis(r) for r in a_cl + b_cl]
    dropped = [i for i in range(n) if i not in kept]
    if a_qu + b_qu:
        conds = partial_trace_matrix(state.conditionals, qlayout, a_qu + b_qu)
    else:
        conds = np.ones(state.probs.shape + (1, 1), dtype=complex)
    weighted = np.transpose(state.probs[..., None, None] * conds, kept + dropped + [n, n + 1])
    ka, kb = state.classical_dim(a_cl), state.classical_dim(b_cl)
    blocks = weighted.reshape(ka, kb, -1, da * db, da * db).sum(axis=2)
    # marginal blocks: rho_A per a_cl value, rho_B per b_cl value, each the
    # partial trace of the summed blocks over the other side's quantum factor
    marg_a = np.einsum("aikjk->aij", blocks.sum(axis=1).reshape(ka, da, db, da, db))
    marg_b = np.einsum("bkikj->bij", blocks.sum(axis=0).reshape(kb, da, db, da, db))
    product = np.einsum("aij,bkl->abikjl", marg_a, marg_b).reshape(ka * kb, da * db, da * db)
    return _block_diag(blocks.reshape(ka * kb, da * db, da * db)), _block_diag(product)
