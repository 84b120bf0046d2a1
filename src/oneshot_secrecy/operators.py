"""Dense complex operator algebra on small multi-register Hilbert spaces.

Everything here operates on plain ``numpy`` arrays and is restricted to
joint dimensions of a few dozen, which keeps full eigendecompositions cheap
and exact enough for the tolerances used throughout the package.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

# Numerical tolerances of the whole package, one line of reason each.  Equal
# values that decide different things keep separate names.
# -- operators and probability vectors
HERM_TOL = 1e-9  # largest entrywise |A - A^dagger| of a density operator
PSD_TOL = 1e-9  # most negative eigenvalue a density operator may have
TRACE_TOL = 1e-9  # largest |Tr rho - 1| of a density operator
EIG_CLAMP = 1e-10  # eigenvalues this close to zero are exact zeros before logs/inverses
PROB_TOL = 1e-9  # |sum - 1| of probabilities; CQ-state negativity and live-atom threshold
PMF_NEG_TOL = 1e-12  # most negative entry validate_pmf accepts
DIV_FLOOR = 1e-300  # denominator floor where np.where has already picked q > 0
# -- hypothesis-testing divergence
KERNEL_MASS_SLACK = 1e-12  # rho's mass on sigma's kernel meets the type-I target within this
TYPE_I_TOL = 1e-9  # the type-I constraint Tr(L rho) >= 1 - eps is met to this
NP_MASS_SLACK = 1e-15  # Neyman-Pearson admission stops this close to the target mass
PROBE_BAND = 1e-12  # zero-eigenvalue band of rho - t sigma, relative to 1 + t
BRACKET_MARGIN = 1e3  # a D_H row skips its first probe when sigma's least eigenvalue exceeds this many of its bands
BISECT_WIDTH = 1e-11  # the threshold search stops at this bracket width, relative to max(1, t_hi)
BAND_FLOOR = 1e-14  # least width of the straddle band after the threshold search
# -- smoothing and conditioning
COMMUTE_TOL = 1e-9  # largest |[rho, sigma]| entry the diagonal scan treats as commuting
DEGEN_TOL = 1e-10  # sigma eigenvalues closer than this (relative to 1 + |w|) share an eigenspace
BALL_SLACK = 1e-12  # slack on the purified-distance ball radius of the diagonal scan
COND_SUPPORT_TOL = 1e-12  # conditioning values with at most this mass are dropped
KEPT_MASS_SLACK = 1e-9  # the kept conditioning mass may fall this far below 1 - eps^2
# -- secrecy and polytopes
THRESHOLD_SLACK = 1e-9  # a leakage value may exceed its threshold by this
COEF_TOL = 1e-12  # row coefficients at most this in magnitude count as zero
FEAS_TOL = 1e-9  # constraint slack of a feasible point; vertices closer than this merge
DET_TOL = 1e-12  # row pairs with |det| below this are parallel in vertices_2d
RAY_TOL = 1e-12  # per-row slack when testing a unit recession ray


class OperatorError(ValueError):
    """An operator or register layout violates a structural invariant."""


def _as_matrix(op) -> np.ndarray:
    m = np.asarray(op, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise OperatorError(f"expected a square matrix, got shape {m.shape}")
    return m


def _checked_pair(rho, sigma) -> tuple[np.ndarray, np.ndarray]:
    """The divergences' input gate: two square matrices of one shape, all entries finite."""
    a, b = _as_matrix(rho), _as_matrix(sigma)
    if a.shape != b.shape:
        raise OperatorError(f"dimension mismatch: {a.shape} vs {b.shape}")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise OperatorError("non-finite entries in rho or sigma")
    return a, b


def _checked_matrix(op) -> np.ndarray:
    """The single-operand input gate: a square matrix with all entries finite."""
    m = _as_matrix(op)
    if not np.isfinite(m).all():
        raise OperatorError("non-finite entries in the operator")
    return m


def validate_densities(stack, labels: Sequence[str | None]) -> None:
    """Check the density-operator invariants of every operator in a ``(..., d, d)`` stack.

    Accepts finite entries, Hermiticity residual <= ``HERM_TOL``, eigenvalues
    >= -``PSD_TOL`` and trace within ``TRACE_TOL`` of one.  ``labels`` name
    the operators in C order.  Raises on the first violation of the first
    failing operator, as one check per operator in turn would.
    """
    m = np.asarray(stack, dtype=complex)
    flat = m.reshape(-1, *m.shape[-2:])
    finite = np.isfinite(flat).all(axis=(1, 2))
    ops = np.where(finite[:, None, None], flat, 0.0)  # zero stand-ins keep the checks below finite
    herm = np.abs(ops - ops.conj().swapaxes(1, 2)).max(axis=(1, 2), initial=0.0)
    least = np.linalg.eigvalsh(ops).min(axis=1, initial=np.inf)
    tr_dev = np.abs(np.trace(ops, axis1=1, axis2=2).real - 1.0)
    failed = np.stack([~finite, herm > HERM_TOL, least < -PSD_TOL, tr_dev > TRACE_TOL])
    if failed.any():
        k = np.flatnonzero(failed.any(axis=0))[0]
        who = f"state {labels[k]!r}: " if labels[k] else ""
        reasons = ("non-finite entries", f"hermiticity residual {herm[k]:.1e}",
                   f"negative eigenvalue {least[k]:.1e}", f"trace deviation {tr_dev[k]:.1e}")
        raise OperatorError(who + reasons[np.flatnonzero(failed[:, k])[0]])


def validate_density(m, label: str | None = None) -> np.ndarray:
    """Check one density operator (see :func:`validate_densities`); returns it as a complex ndarray."""
    m = _as_matrix(m)
    validate_densities(m[None], [label])
    return m


def validate_pmf(vec, label: str) -> None:
    """Check a probability vector: finite, entries >= -PMF_NEG_TOL, sum within PROB_TOL of 1."""
    vec = np.asarray(vec, dtype=float)
    if not np.all(np.isfinite(vec)):
        raise OperatorError(f"{label}: non-finite probability")
    if np.any(vec < -PMF_NEG_TOL):
        raise OperatorError(f"{label}: negative probability")
    if abs(float(vec.sum()) - 1.0) > PROB_TOL:
        raise OperatorError(f"{label}: probabilities sum to {float(vec.sum())!r}, not 1")


@dataclass(frozen=True)
class RegisterLayout:
    """Ordered named registers; joint basis indices are row-major over them."""

    names: tuple[str, ...]
    dims: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "names", tuple(self.names))
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        if len(self.names) != len(self.dims):
            raise OperatorError("names and dims must have equal length")
        if len(set(self.names)) != len(self.names):
            raise OperatorError(f"duplicate register names in {self.names}")
        if any(d < 1 for d in self.dims):
            raise OperatorError("register dimensions must be >= 1")

    @property
    def total_dim(self) -> int:
        return math.prod(self.dims)

    def dim_of(self, name: str) -> int:
        return self.dims[self.index(name)]

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise OperatorError(f"unknown register {name!r} in layout {self.names}") from None

    def subset(self, names: Iterable[str]) -> "RegisterLayout":
        names = tuple(names)
        return RegisterLayout(names, tuple(self.dim_of(n) for n in names))


def partial_trace_matrix(m: np.ndarray, layout: RegisterLayout, keep: Sequence[str]) -> np.ndarray:
    """Trace out every register not in ``keep``; kept registers keep their order."""
    keep = list(keep)
    if not keep:
        raise OperatorError("keep must name at least one register")
    keep_pos = [layout.index(name) for name in keep]
    if len(set(keep)) != len(keep):
        raise OperatorError(f"duplicate names in keep: {keep}")
    m = np.asarray(m, dtype=complex)
    n = len(layout.names)
    if m.shape[-1] != layout.total_dim or m.shape[-2] != layout.total_dim:
        raise OperatorError(
            f"dimension mismatch: operator dim {m.shape[-1]} vs layout total {layout.total_dim}"
        )
    batch_shape = m.shape[:-2]
    nb = len(batch_shape)
    t = m.reshape(batch_shape + layout.dims + layout.dims)
    # einsum integer subscripts: batch axes, then row/col register axes; the
    # output lists the kept registers in the caller's order
    row = [nb + i for i in range(n)]
    col = [nb + n + i if i in keep_pos else nb + i for i in range(n)]
    out = list(range(nb)) + [nb + i for i in keep_pos] + [nb + n + i for i in keep_pos]
    kept_dim = math.prod(layout.dims[i] for i in keep_pos)
    return np.einsum(t, list(range(nb)) + row + col, out).reshape(batch_shape + (kept_dim, kept_dim))


def permute_registers_matrix(
    m: np.ndarray, layout: RegisterLayout, new_order: Sequence[str]
) -> tuple[np.ndarray, RegisterLayout]:
    """Reorder the tensor factors of an operator to ``new_order``."""
    new_order = list(new_order)
    if sorted(new_order) != sorted(layout.names):
        raise OperatorError(f"new order {new_order} must be a permutation of {layout.names}")
    m = np.asarray(m, dtype=complex)
    n = len(layout.names)
    perm = [layout.index(name) for name in new_order]
    batch_shape = m.shape[:-2]
    nb = len(batch_shape)
    t = m.reshape(batch_shape + layout.dims + layout.dims)
    axes = list(range(nb)) + [nb + p for p in perm] + [nb + n + p for p in perm]
    t = t.transpose(axes)
    new_layout = layout.subset(new_order)
    d = new_layout.total_dim
    return t.reshape(batch_shape + (d, d)), new_layout


def trace_distance(rho, sigma) -> float:
    """Trace norm of the difference, ranging from 0 (equal) to 2 (orthogonal)."""
    a, b = _checked_pair(rho, sigma)
    return float(np.sum(np.abs(np.linalg.eigvalsh(b - a))))


def fidelity(rho, sigma) -> float:
    """Squared trace norm of sqrt(rho)sqrt(sigma); 1 iff the states coincide."""
    a, b = _checked_pair(rho, sigma)
    sa = _psd_sqrt(a)
    sb = _psd_sqrt(b)
    sv = np.linalg.svd(sa @ sb, compute_uv=False)
    f = float(np.sum(sv)) ** 2
    return min(max(f, 0.0), 1.0)


def _psd_sqrt(m: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(m)
    w = np.where(w > 0.0, w, 0.0)
    return (v * np.sqrt(w)) @ v.conj().T


def purified_distance(rho, sigma) -> float:
    """Distance sqrt(1 - F) derived from the fidelity, used for smoothing balls."""
    return float(np.sqrt(max(0.0, 1.0 - fidelity(rho, sigma))))
