"""One-shot divergences and mutual informations for finite-dimensional states.

All quantities are reported in bits (base-2 logarithms).  ``+inf`` is a legal
return value wherever a support condition fails; it is never raised as an
error.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .operators import (
    BALL_SLACK,
    BAND_FLOOR,
    BISECT_WIDTH,
    COMMUTE_TOL,
    COND_SUPPORT_TOL,
    DEGEN_TOL,
    DIV_FLOOR,
    EIG_CLAMP,
    KEPT_MASS_SLACK,
    KERNEL_MASS_SLACK,
    NP_MASS_SLACK,
    PROBE_BAND,
    TYPE_I_TOL,
    OperatorError,
    _as_matrix,
    _checked_matrix,
    _checked_pair,
    validate_pmf,
)
from .states import CQConditionals, CQState, _block_diag, block_pairs, joint_and_product, pair_shape

SMOOTHING_STRATEGIES = ("none", "diagonal-scan")
# threshold-test probes, bracketing included, before ConvergenceError
_MAX_ITER = 200
# transfer grid of the diagonal-scan smoothing
_SCAN_STEP = 1e-4
# joint stack bytes of one batched stack solve in grid_terms (a larger term is
# a batch of its own): a region's one-point terms share a solve while a sweep
# chunk's terms, each up to regions._CHUNK_BYTES = 2 MiB of stack, go about one
# at a time.  Unbounded batches raised the bench sweep's peak RSS by 21%; this
# budget keeps it within 1%.
_BATCH_BYTES = 1 << 16


class ConvergenceError(RuntimeError):
    """The threshold-test search failed to pin down the optimal test.

    ``row`` is the index of the failing row of a stack solve, when known.
    """

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message)
        self.row = row


@dataclass(frozen=True)
class ToleranceParams:
    """Smoothing/decoding parameters shared by the rate-region expressions.

    ``eta = delta_prime - eps_prime`` is the smoothing width used by the
    max-information terms; ``theta`` is the secrecy threshold.
    """

    eps: float
    eps_prime: float = 0.1
    delta: float = 0.01
    delta_prime: float = 0.2
    theta: float = math.inf
    big_o_constant: float = 0.0

    def __post_init__(self):
        for name, value in vars(self).items():
            if math.isnan(value) or (math.isinf(value) and name != "theta"):
                raise ValueError(f"non-finite {name}: {value}")
        if not 0.0 < self.eps < 1.0:
            raise ValueError(f"eps must lie in (0, 1), got {self.eps}")
        if not 0.0 < self.eps_prime < self.delta_prime:
            raise ValueError(
                f"eps_prime must lie in (0, delta_prime), got {self.eps_prime} vs {self.delta_prime}"
            )
        if self.delta <= 0.0:
            raise ValueError(f"delta must be positive, got {self.delta}")
        if self.theta < 0.0:
            raise ValueError(f"theta must be nonnegative, got {self.theta}")

    @property
    def eta(self) -> float:
        return self.delta_prime - self.eps_prime


# ---------------------------------------------------------------------------
# entropies and classical oracles
# ---------------------------------------------------------------------------


def binary_entropy(eps: float) -> float:
    if not 0.0 < eps < 1.0:
        raise ValueError(f"binary entropy needs an argument in (0, 1), got {eps}")
    return float(-eps * math.log2(eps) - (1.0 - eps) * math.log2(1.0 - eps))


def _weights(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Real diagonal of v^dagger m v: the weight of ``m`` on each column of ``v``.

    Works blockwise on ``(..., d, d)`` stacks as well.
    """
    return np.real((v.conj() * (m @ v)).sum(axis=-2))


def _kernel_mass(ws: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Support condition: the weight each row's state puts on sigma's kernel.

    ``ws`` are sigma's eigenvalues and ``weights`` the state's weight on the
    matching eigenvectors, one row per leading index; eigenvalues at most
    ``EIG_CLAMP`` span the kernel.
    """
    return np.where(ws <= EIG_CLAMP, weights, 0.0).reshape(len(ws), -1).sum(axis=1)


def _clamped_spectrum(m) -> np.ndarray:
    w = np.linalg.eigvalsh(_as_matrix(m))
    w = w.copy()
    w[np.abs(w) <= EIG_CLAMP] = 0.0
    return w


def von_neumann_entropy(rho) -> float:
    w = _clamped_spectrum(_checked_matrix(rho))
    w = w[w > 0.0]
    return float(-np.sum(w * np.log2(w)))


def relative_entropy(rho, sigma) -> float:
    """Umegaki relative entropy; ``+inf`` when the support condition fails."""
    a, b = _checked_pair(rho, sigma)
    ws, vs = np.linalg.eigh(b)
    weights = _weights(a, vs)
    if float(weights[ws <= EIG_CLAMP].sum()) >= EIG_CLAMP:
        return math.inf
    wa = _clamped_spectrum(a)
    wa_pos = wa[wa > 0.0]
    tr_rho_log_rho = float(np.sum(wa_pos * np.log2(wa_pos)))
    supp = ws > EIG_CLAMP
    tr_rho_log_sigma = float(np.sum(np.maximum(weights[supp], 0.0) * np.log2(ws[supp])))
    return tr_rho_log_rho - tr_rho_log_sigma


def classical_np_oracle(
    p: Sequence[float], q: Sequence[float], eps: float
) -> tuple[float, float]:
    """Exact classical Neyman-Pearson optimum for two finite distributions.

    Atoms are admitted in decreasing likelihood-ratio order (zero-denominator
    atoms first, ties by index), skipping atoms with ``p <= 0``, until the
    accepted ``p`` mass reaches ``1 - eps``; the boundary atom is admitted
    fractionally.  Returns ``(beta, -log2 beta)``.  The admission loop is the
    reference that :func:`_np_betas` reproduces bit for bit.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape or p.ndim != 1:
        raise ValueError("p and q must be 1-d arrays of equal length")
    for name, vec in (("p", p), ("q", q)):
        validate_pmf(vec, name)
    target = 1.0 - eps
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(q > 0.0, p / np.maximum(q, DIV_FLOOR), math.inf)
    cum_p = 0.0
    beta = 0.0
    for i in np.argsort(-ratio, kind="stable"):
        if cum_p >= target - NP_MASS_SLACK:
            break
        if p[i] <= 0.0:
            continue
        frac = min(1.0, (target - cum_p) / p[i])
        cum_p += frac * p[i]
        beta += frac * q[i]
    if beta <= 0.0:
        return 0.0, math.inf
    return float(beta), float(-math.log2(beta))


# ---------------------------------------------------------------------------
# hypothesis testing divergence (quantum Neyman-Pearson threshold tests)
# ---------------------------------------------------------------------------


def _is_diagonal(m: np.ndarray) -> bool:
    """No nonzero entry off the diagonal of a matrix (exactly; no tolerance)."""
    return np.count_nonzero(m) == np.count_nonzero(m.diagonal())


def _block_stack(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both operators as ``(K, d, d)`` stacks of their finest common blocks.

    The blocks are the finest equal, contiguous partition of the diagonal
    that no nonzero entry of either operator crosses (exact, no tolerance),
    so ``K == 1`` is the dense case and ``d == 1`` an exactly diagonal pair.
    """
    nonzero = np.logical_or(a, b)
    # exactly diagonal pairs (every classical one) need no scan
    if np.count_nonzero(nonzero) == np.count_nonzero(nonzero.diagonal()):
        return a.diagonal()[:, None, None], b.diagonal()[:, None, None]
    n = a.shape[0]
    pos = np.arange(n)
    nonzero |= nonzero.T
    # a cut after position i is free when no row up to i reaches past i
    free = np.maximum.accumulate((nonzero * pos).max(axis=1)) <= pos
    cuts = (np.flatnonzero(free) + 1).tolist()
    # the block size is itself a cut, and so is each of its multiples
    d = next(d for d in cuts if n % d == 0 and free[d - 1::d].all())
    k = n // d
    idx = np.arange(k)
    return a.reshape(k, d, k, d)[idx, :, idx, :], b.reshape(k, d, k, d)[idx, :, idx, :]


def _classical_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Rows of two ``(R, K, d, d)`` stacks with no nonzero entry off any block's diagonal.

    This is :func:`_block_stack`'s first test: such a row, made dense, is an
    exactly diagonal pair.
    """
    nonzero = np.logical_or(a, b)
    diagonal = np.arange(a.shape[-1])
    nonzero[..., diagonal, diagonal] = False
    return ~nonzero.reshape(len(a), -1).any(axis=1)


def _diagonals(m: np.ndarray) -> np.ndarray:
    """The ``(R, K·d)`` real diagonals of an ``(R, K, d, d)`` stack, block after block."""
    return m.diagonal(axis1=-2, axis2=-1).real.reshape(len(m), -1)


def _eigh(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``eigh`` of every block of a ``(..., d, d)`` stack in one ``(N, d, d)`` call."""
    w, v = np.linalg.eigh(m.reshape(-1, *m.shape[-2:]))
    return w.reshape(m.shape[:-1]), v.reshape(m.shape)


def _support_inv_sqrt(ws: np.ndarray) -> np.ndarray:
    """``ws ** -0.5`` on sigma's support (``ws > EIG_CLAMP``) and 0 on its kernel."""
    scale = np.zeros_like(ws)
    supp = ws > EIG_CLAMP
    scale[supp] = np.power(ws[supp], -0.5)
    return scale


def _support_spectrum(a: np.ndarray, ws: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """Blockwise eigenvalues of sigma^{-1/2} rho sigma^{-1/2} on sigma's support.

    ``a`` is rho's block stack and ``ws``, ``vs`` sigma's blockwise
    eigendecomposition.  Eigenvectors off the support are zeroed rather than
    dropped, so every block keeps its size: a block with a kernel adds zeros
    to its spectrum, and an empty support gives all zeros.
    """
    inv_half = vs * _support_inv_sqrt(ws)[..., None, :]
    return np.linalg.eigvalsh(inv_half.conj().swapaxes(-1, -2) @ a @ inv_half)


def _np_betas(p: np.ndarray, q: np.ndarray, target: float) -> np.ndarray:
    """Neyman-Pearson type-II error of every row of two ``(R, n)`` arrays.

    Each row is :func:`classical_np_oracle`'s admission towards ``target``,
    bit for bit: atoms admitted whole add ``p`` and ``q`` exactly, and
    ``np.cumsum`` adds in sequence, so the running sums before each atom are
    the loop's.  The loop stops before the first atom whose running ``p``
    reaches the target within ``NP_MASS_SLACK``, or after the first atom it
    admits fractionally: that lands within a few ulps of the target, far
    inside the slack.  No validation: traces need not be one and tiny
    negative entries are tolerated.
    """
    n_rows, n = p.shape
    rows = np.arange(n_rows)
    ratio = np.full(p.shape, math.inf)
    np.divide(p, np.maximum(q, DIV_FLOOR), out=ratio, where=q > 0.0)
    order = np.argsort(-ratio, axis=1, kind="stable")
    p, q = p[rows[:, None], order], q[rows[:, None], order]
    # the sorted atoms, skipped ones zeroed, then an atom of infinite p that no row passes
    pq = np.zeros((2, n_rows, n + 1))
    pq[:, :, :n] = np.where(p > 0.0, [p, q], 0.0)
    pq[0, :, n] = math.inf
    # the running sums before each atom
    cum = np.zeros((2, n_rows, n + 1))
    np.cumsum(pq[:, :, :n], axis=2, out=cum[:, :, 1:])
    reached = cum[0] >= target - NP_MASS_SLACK
    gap = target - cum[0]
    # for floats, fl(gap / p) >= 1 exactly when gap >= p: the loop's whole admissions
    stop = (reached | (gap < pq[0])).argmax(axis=1)
    reached, gap, (p, q), before = reached[rows, stop], gap[rows, stop], pq[:, rows, stop], cum[1, rows, stop]
    frac = np.divide(gap, p, out=np.zeros(n_rows), where=~reached)
    return np.where(reached, before, before + frac * q)


def _threshold_search(target: float, eps: float, breaks: list[float], f_lo: float, sig_norm: float):
    """One row's threshold search, as a generator.

    It yields each probe ``(t, band)`` and is sent back that probe's weights
    ``(a_pos, a_zer, b_pos, b_zer)``: rho's and sigma's weights on the
    positive and on the zero eigenspace of rho - t sigma.  It returns beta.
    ``breaks`` are the row's sorted distinct positive breakpoints and
    ``f_lo`` is Tr rho - target.
    """

    def finish(a_pos, a_zer, b_pos, b_zer):
        c = 0.0 if a_zer <= 0.0 else min(1.0, max(0.0, (target - a_pos) / a_zer))
        return b_pos + c * b_zer

    # f(t) = Tr(P_+(t) rho) - target falls in t; f_lo is its limit from the
    # right at lo and f_hi its limit from the left at hi.  They only choose
    # secant points: the bracket alone decides the answer.  With sigma's
    # support empty the constraint is out of reach; the bracket then starts
    # at t = 1 and the search reports the failure.
    lo, hi = 0.0, (breaks[-1] if breaks else 0.0) + 1.0
    iters = 0
    while iters < _MAX_ITER:
        iters += 1
        a_pos, a_zer, b_pos, b_zer = yield hi, PROBE_BAND * (1.0 + hi)
        if a_pos + a_zer < target:
            f_hi = a_pos + a_zer - target
            break
        if a_pos <= target:
            return finish(a_pos, a_zer, b_pos, b_zer)
        lo, f_lo = hi, a_pos - target
        hi *= 2.0
    else:
        raise ConvergenceError(f"could not bracket the threshold test (t up to {hi:.6g}, eps={eps})")

    width_goal = BISECT_WIDTH * max(1.0, hi)
    side = 0  # the end the previous secant step moved: -1 lo, +1 hi
    while iters < _MAX_ITER and hi - lo > width_goal:
        iters += 1
        first, stop = bisect.bisect_right(breaks, lo), bisect.bisect_left(breaks, hi)
        secant = first == stop
        if not secant:
            # binary search of the breakpoints: a jump that straddles the
            # target ends the search exactly
            t = breaks[(first + stop) // 2]
        else:
            # one smooth piece is left: an Illinois step, or a bisection
            # step when the secant falls outside the bracket
            t = 0.5 * (lo + hi)
            if f_lo > 0.0:
                step = lo + (hi - lo) * (f_lo / (f_lo - f_hi))
                t = step if lo < step < hi else t
        a_pos, a_zer, b_pos, b_zer = yield t, PROBE_BAND * (1.0 + t)
        if a_pos > target:
            lo, f_lo = t, a_pos - target
            if side < 0:
                f_hi *= 0.5
            side = -1 if secant else 0
        elif a_pos + a_zer < target:
            hi, f_hi = t, a_pos + a_zer - target
            if side > 0:
                f_lo *= 0.5
            side = 1 if secant else 0
        else:
            return finish(a_pos, a_zer, b_pos, b_zer)
    if hi - lo > width_goal:
        raise ConvergenceError(
            f"no convergence after {_MAX_ITER} iterations "
            f"(t in [{lo:.6g}, {hi:.6g}], eps={eps}); degenerate spectrum suspected"
        )
    # final interval is tiny: a band wider than the eigenvalue drift across it
    # is guaranteed to capture the crossing eigenspace
    mid = 0.5 * (lo + hi)
    a_pos, a_zer, b_pos, b_zer = yield mid, 2.0 * (hi - lo) * (sig_norm + 1.0) + BAND_FLOOR
    while a_pos > target + TYPE_I_TOL or a_pos + a_zer < target - TYPE_I_TOL:
        # a smooth piece (rho on sigma's kernel) can outrun TYPE_I_TOL: bisect on, to adjacent floats
        lo, hi = (mid, hi) if a_pos > target else (lo, mid)
        if iters >= _MAX_ITER or not lo < 0.5 * (lo + hi) < hi:
            raise ConvergenceError(
                f"straddle detection failed at t={mid:.6g}, eps={eps} "
                f"(type-I window [{a_pos:.12g}, {a_pos + a_zer:.12g}], target {target:.12g})"
            )
        iters += 1
        mid = 0.5 * (lo + hi)
        a_pos, a_zer, b_pos, b_zer = yield mid, 2.0 * (hi - lo) * (sig_norm + 1.0) + BAND_FLOOR
    return finish(a_pos, a_zer, b_pos, b_zer)


def _live_blocks(a: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """The ``(R, K)`` blocks of two ``(R, K, d, d)`` stacks where rho or sigma has a nonzero entry.

    ``None`` when every block is live.  A dead block (both operators zero, as
    a zero-probability value gives) has eigenvalues 0 and weights 0, so the
    solvers skip it and read zeros in its place.
    """
    live = np.logical_or(a, b).any(axis=(-2, -1))
    return None if live.all() else live


def _gather(stack: np.ndarray, live: np.ndarray | None) -> np.ndarray:
    """The live blocks of an ``(R, K, ...)`` stack, as ``(N, ...)``: a view when every block is live."""
    return stack.reshape(-1, *stack.shape[2:]) if live is None else stack[live]


def _scatter(values: np.ndarray, live: np.ndarray | None, shape: tuple[int, int]) -> np.ndarray:
    """:func:`_gather`'s inverse: ``(N, ...)`` block values in the ``(R, K, ...)`` layout, zeros on dead blocks."""
    if live is None:
        return values.reshape(shape + values.shape[1:])
    out = np.zeros(shape + values.shape[1:], values.dtype)
    out[live] = values
    return out


def _keep_rows(keep: np.ndarray, at: np.ndarray, live: np.ndarray | None, *blocks: np.ndarray):
    """The live blocks of the rows ``keep`` marks, each one's row among them, and their live mask.

    ``at`` is each block's row and ``blocks`` are per-block arrays.
    """
    kept = keep[at]
    return [x[kept] for x in blocks], (np.cumsum(keep) - 1)[at[kept]], None if live is None else live[keep]


def _threshold_betas(a: np.ndarray, b: np.ndarray, target: float, eps: float, rows: np.ndarray) -> np.ndarray:
    """beta*(eps) of every row of two ``(R, K, d, d)`` stacks by threshold tests, in lockstep.

    The optimum has the threshold form L = P_+(t) + c P_0(t), with P_+/P_0
    the projectors onto the strictly positive / zero eigenspaces of
    rho - t sigma; on the zero eigenspace Tr(X rho) = t Tr(X sigma), which
    makes the interpolation in c in [0, 1] exact.  Tr(P_+(t) rho) is
    nonincreasing in t.  When rho lives on sigma's support it jumps only at
    the eigenvalues of sigma^{-1/2} rho sigma^{-1/2} (Sylvester's law of
    inertia) and is continuous between them.  So t is found by a binary
    search of these breakpoints, which ends exactly when a jump straddles the
    target, and then by Illinois regula falsi steps on the one smooth piece
    left.  A bracket, grown by doubling from the largest breakpoint plus one,
    is narrowed by every probe as by a bisection step: the breakpoints and
    the secant only choose where to probe, so the answer also holds when rho
    weighs on sigma's kernel.  The type-I constraint is met to
    ``TYPE_I_TOL`` by construction.

    Sigma's eigendecomposition, the kernel mass and the breakpoints are
    computed for all rows at once.  Each row then runs its own search
    (:func:`_threshold_search`), and every step makes one ``eigh`` of
    rho - t sigma over the rows still searching; a row leaves the batch when
    it finishes.  Every ``eigh`` sees live blocks only (:func:`_live_blocks`);
    the per-row sums read the dead ones as zeros in place, so they add in the
    same order and keep their bits.  ``rows`` labels the rows in a
    ``ConvergenceError``.
    """
    n_rows, k = a.shape[:2]
    live = _live_blocks(a, b)
    ab = np.stack([_gather(a, live), _gather(b, live)], axis=1)
    # each live block's row
    at = np.repeat(np.arange(n_rows), k) if live is None else np.nonzero(live)[0]
    ws, vs = _eigh(ab[:, 1])
    betas = np.zeros(n_rows)
    # rows whose weight on sigma's kernel already meets the constraint keep 0
    mass = _kernel_mass(_scatter(ws, live, (n_rows, k)), _scatter(_weights(ab[:, 0], vs), live, (n_rows, k)))
    searching = mass < target - KERNEL_MASS_SLACK
    if not searching.any():
        return betas
    if not searching.all():
        (ab, ws, vs), at, live = _keep_rows(searching, at, live, ab, ws, vs)
    searching = np.flatnonzero(searching)
    n_rows = len(searching)
    # where the inertia of rho - t sigma changes when rho lives on sigma's
    # support; with weight on the kernel they only steer the probes
    lam = _scatter(_support_spectrum(ab[:, 0], ws, vs), live, (n_rows, k)).reshape(n_rows, -1)
    lam = np.sort(np.where(lam > 0.0, lam, math.inf), axis=1)
    lam[:, 1:][lam[:, 1:] == lam[:, :-1]] = math.inf
    lam = np.sort(lam, axis=1)
    f_lo = np.trace(a, axis1=-2, axis2=-1)[searching].real.sum(axis=1) - target
    sig_norm = np.maximum(_scatter(ws, live, (n_rows, k)).reshape(n_rows, -1).max(axis=1), 0.0)
    searches = [
        _threshold_search(target, eps, breaks[:count], f, norm)
        for breaks, count, f, norm in zip(lam.tolist(), np.isfinite(lam).sum(axis=1).tolist(),
                                          f_lo.tolist(), sig_norm.tolist())
    ]
    probes = [next(search) for search in searches]
    # the searching rows still open; blocks, their rows and the live mask follow them
    open_rows = np.arange(n_rows)
    while open_rows.size:
        shape = (len(open_rows), k)
        t, band = np.array([probes[i] for i in open_rows.tolist()]).T
        w, v = _eigh(ab[:, 0] - t[at, None, None] * ab[:, 1])
        w = _scatter(w, live, shape)
        band = band[:, None, None]
        masks = np.stack([w > band, np.abs(w) <= band], axis=-1).reshape(len(open_rows), -1, 2)
        # per row [[a_pos, a_zer], [b_pos, b_zer]]
        weights = _scatter(_weights(ab, v[:, None]), live, shape)
        sums = weights.transpose(0, 2, 1, 3).reshape(len(open_rows), 2, -1) @ masks
        still = np.ones(len(open_rows), dtype=bool)
        for place, (i, row_sums) in enumerate(zip(open_rows.tolist(), sums.reshape(len(open_rows), 4).tolist())):
            try:
                probes[i] = searches[i].send(row_sums)
            except StopIteration as done:
                betas[searching[i]] = done.value
                still[place] = False
            except ConvergenceError as exc:
                raise ConvergenceError(str(exc), int(rows[searching[i]])) from None
        if not still.all():
            (ab,), at, live = _keep_rows(still, at, live, ab)
            open_rows = open_rows[still]
    return betas


def _dh_betas(a: np.ndarray, b: np.ndarray, eps: float) -> np.ndarray:
    """beta*(eps) of every row of two ``(R, K, d, d)`` block stacks of (rho, sigma).

    Classical rows (:func:`_classical_rows`) are solved together and exactly
    by the Neyman-Pearson construction on their diagonals (:func:`_np_betas`),
    the others by threshold tests (:func:`_threshold_betas`).  A row is 0
    when rho's weight on the kernel of sigma already meets the constraint.
    A row that fails raises ``ConvergenceError`` with its index as ``row``.
    """
    target = 1.0 - eps
    betas = np.zeros(len(a))
    classical = _classical_rows(a, b)
    if classical.any():
        p, q = _diagonals(a[classical]), _diagonals(b[classical])
        zero = _kernel_mass(q, p) >= target - KERNEL_MASS_SLACK
        reachable = np.maximum(p, 0.0).sum(axis=1)
        short = ~zero & (reachable < target - TYPE_I_TOL)
        if short.any():
            i = int(np.argmax(short))
            raise ConvergenceError(
                f"type-I constraint unreachable: rho has mass {reachable[i]:.12g} "
                f"below target {target:.12g} (eps={eps}, dim={p.shape[1]})", int(np.flatnonzero(classical)[i])
            )
        betas[classical] = np.where(zero, 0.0, _np_betas(p, q, target))
    if not classical.all():
        rows = np.flatnonzero(~classical)
        betas[rows] = _threshold_betas(a[rows], b[rows], target, eps, rows)
    return betas


def hypothesis_testing_beta(rho, sigma, eps: float) -> float:
    """Minimal type-II error beta*(eps) over tests 0 <= L <= I with Tr(L rho) >= 1-eps.

    Both operators are solved on their finest common diagonal blocks (see
    :func:`_block_stack`) as the one row of :func:`_dh_betas`: exactly by the
    Neyman-Pearson construction when the blocks are 1x1, by a threshold-test
    search (:func:`_threshold_betas`) otherwise.
    """
    a, b = _checked_pair(rho, sigma)
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    a, b = _block_stack(a, b)
    return float(_dh_betas(a[None], b[None], eps)[0])


def hypothesis_testing_divergence(rho, sigma, eps: float) -> float:
    beta = hypothesis_testing_beta(rho, sigma, eps)
    if beta <= 0.0:
        return math.inf
    return float(-math.log2(beta))


# ---------------------------------------------------------------------------
# max-relative entropy and smoothing
# ---------------------------------------------------------------------------


def _dmax_values(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """D_max of every row of two ``(R, K, d, d)`` block stacks of (rho, sigma).

    Classical rows read the ratios off their diagonals; the others take the
    largest eigenvalue of sigma^{-1/2} rho sigma^{-1/2}, blockwise, on their
    live blocks (:func:`_live_blocks`), with a dead block's eigenvalues read
    as zeros.
    """
    lam = np.zeros(len(a))
    off_support = np.zeros(len(a), dtype=bool)
    classical = _classical_rows(a, b)
    rows = np.flatnonzero(classical)
    if rows.size:
        p, q = _diagonals(a[rows]), _diagonals(b[rows])
        off_support[rows] = _kernel_mass(q, p) >= EIG_CLAMP
        scale = _support_inv_sqrt(q)
        # the order of the block path's 1x1 product, so the value is bit-identical
        lam[rows] = ((scale * p) * scale).max(axis=1)
    rows = np.flatnonzero(~classical)
    if rows.size:
        a, b = a[rows], b[rows]
        shape = a.shape[:2]
        live = _live_blocks(a, b)
        a = _gather(a, live)
        ws, vs = _eigh(_gather(b, live))
        off_support[rows] = _kernel_mass(_scatter(ws, live, shape), _scatter(_weights(a, vs), live, shape)) >= EIG_CLAMP
        lam[rows] = _scatter(_support_spectrum(a, ws, vs), live, shape).reshape(len(rows), -1).max(axis=1)
    return np.array([math.inf if off else (math.log2(x) if x > 0.0 else -math.inf)
                     for off, x in zip(off_support.tolist(), lam.tolist())])


def max_relative_entropy(rho, sigma) -> float:
    """Smallest gamma with rho <= 2^gamma sigma; ``+inf`` off sigma's support.

    Solved on the operators' common diagonal blocks (see :func:`_block_stack`)
    as the one row of :func:`_dmax_values`.
    """
    a, b = _block_stack(*_checked_pair(rho, sigma))
    return float(_dmax_values(a[None], b[None])[0])


def _codiagonalize(rho: np.ndarray, sigma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Common eigenbasis values (p, q) for commuting Hermitian rho, sigma.

    Exactly diagonal pairs are read off their diagonals.
    """
    if _is_diagonal(rho) and _is_diagonal(sigma):
        p, q = rho.diagonal().real.copy(), sigma.diagonal().real.copy()
    else:
        comm = rho @ sigma - sigma @ rho
        if float(np.max(np.abs(comm))) > COMMUTE_TOL:
            raise OperatorError("inputs do not commute; diagonal-scan smoothing unavailable")
        ws, vs = np.linalg.eigh(sigma)
        r = vs.conj().T @ rho @ vs
        d = len(ws)
        p = np.zeros(d)
        q = ws.copy()
        start = 0
        while start < d:
            stop = start + 1
            while stop < d and ws[stop] - ws[stop - 1] <= DEGEN_TOL * (1.0 + abs(ws[stop])):
                stop += 1
            block = r[start:stop, start:stop]
            p[start:stop] = np.linalg.eigvalsh((block + block.conj().T) / 2.0)
            start = stop
    p[np.abs(p) <= EIG_CLAMP] = 0.0
    q[np.abs(q) <= EIG_CLAMP] = 0.0
    return p, q


def _diagonal_scan(p: np.ndarray, q: np.ndarray, eps: float) -> float:
    """Best single donor-recipient mass shift within the purified-distance ball.

    Scans, for every ordered atom pair, transfers m in a grid of step
    ``_SCAN_STEP``, keeping p' a distribution; fidelity against the
    unshifted p is monotone in m, so only grid points inside the ball count.
    All recipients of one donor are scanned at once on the donor's grid.
    """
    p = np.maximum(p, 0.0)
    d = len(p)
    with np.errstate(divide="ignore"):
        base = np.where(q > 0.0, p / np.maximum(q, DIV_FLOOR), math.inf)
        base = np.where((q <= 0.0) & (p <= EIG_CLAMP), 0.0, base)
    # the unshifted ratio max_i p_i / q_i (inf if p sits off supp q)
    best = float(base.max(initial=0.0))
    # the largest base ratio outside {i, j} is the first of the top three
    # atoms that is neither donor nor recipient
    top = np.argsort(-base, kind="stable")[:3]
    q_safe = np.where(q > 0.0, q, 1.0)
    for i in range(d):
        if p[i] <= 0.0:
            continue
        ms = np.arange(_SCAN_STEP, p[i], _SCAN_STEP)
        ms = np.append(ms, p[i])
        js = np.delete(np.arange(d), i)
        pj, qj = p[js][:, None], q[js][:, None]
        rest = 1.0 - p[i] - pj
        f_root = rest + np.sqrt((p[i] - ms).clip(min=0.0) * p[i]) + np.sqrt((pj + ms) * pj)
        # fidelity is the square of the trace-norm overlap f_root
        dist = np.sqrt(np.maximum(0.0, 1.0 - f_root * f_root))
        ok = dist <= eps + BALL_SLACK
        if not np.any(ok):
            continue
        if d > 2:
            others = top[top != i]
            rest_max = np.where(js == others[0], base[others[1]], base[others[0]])[:, None]
        else:
            rest_max = 0.0
        pi_new = (p[i] - ms).clip(min=0.0)
        pj_new = pj + ms
        ri = pi_new / q[i] if q[i] > 0.0 else np.where(pi_new > EIG_CLAMP, math.inf, 0.0)
        rj = np.where(qj > 0.0, pj_new / q_safe[js][:, None],
                      np.where(pj_new > EIG_CLAMP, math.inf, 0.0))
        cand = np.maximum(np.maximum(ri, rj), rest_max)
        best = min(best, float(np.min(cand[ok])))
    if best <= 0.0:
        return -math.inf
    return math.log2(best) if best != math.inf else math.inf


def smooth_max_relative_entropy(rho, sigma, eps: float, strategy: str = "none") -> float:
    """Upper bound on the eps-smoothed max-relative entropy.

    ``none`` returns the unsmoothed value (the state itself lies in the ball).
    ``diagonal-scan`` minimizes over diagonal perturbations of commuting
    inputs via dense single-pair mass shifts, exact up to the scan resolution
    within that family.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    if strategy not in SMOOTHING_STRATEGIES:
        raise ValueError(f"unknown smoothing strategy {strategy!r}")
    if strategy == "none":
        return max_relative_entropy(rho, sigma)
    a, b = _checked_pair(rho, sigma)
    return min(_diagonal_scan(*_codiagonalize(a, b), eps), max_relative_entropy(a, b))


# ---------------------------------------------------------------------------
# mutual informations over classical-quantum states
# ---------------------------------------------------------------------------


def _parts(part) -> list[str]:
    return [part] if isinstance(part, str) else list(part)


def _max_min(masses: np.ndarray, values: np.ndarray, support: np.ndarray, eps: float) -> np.ndarray:
    """The conditional max-min of each row's atoms ``support[g]``: the best value left after dropping some.

    Keep the largest-value atoms whose total mass stays feasible: dropping a
    support set S is allowed iff the kept mass is at least 1 - eps^2, the
    exact purified-distance ball condition for diagonal perturbations.  Rows
    with the same number of atoms are solved together, so each starting mass
    is numpy's sum of exactly its row's atoms.
    """
    threshold = 1.0 - eps * eps
    best = np.empty(len(masses))
    counts = support.sum(axis=1)
    for n in sorted(set(counts.tolist())):
        rows = np.flatnonzero(counts == n)
        m = masses[rows][support[rows]].reshape(len(rows), n)
        v = values[rows][support[rows]].reshape(len(rows), n)
        order = np.argsort(v, axis=1, kind="stable")
        # the kept mass before each drop: the total, then less each atom in value order
        kept = np.subtract.accumulate(
            np.concatenate([m.sum(axis=1)[:, None], np.take_along_axis(m, order[:, :-1], axis=1)], axis=1), axis=1)
        feasible = np.logical_and.accumulate(kept >= threshold - KEPT_MASS_SLACK, axis=1)
        last = np.maximum(feasible.sum(axis=1) - 1, 0)
        best[rows] = v[np.arange(len(rows)), order[np.arange(len(rows)), last]]
    return best


def _cond_support(conds: CQConditionals, probs, part_a, part_b, cond):
    """The rows of the conditional max-min form: each point and value ``z`` of ``cond`` with support.

    Returns each row's point and ``z``, and the ``(G, |cond|)`` masses ``pz``.
    """
    if not conds.is_classical(cond):
        raise OperatorError(f"conditioning register {cond!r} must be classical")
    if cond in part_a + part_b:
        raise OperatorError(f"conditioning register {cond!r} also appears in a part")
    ax = conds.axis(cond)
    size = conds.alphabet_sizes[ax]
    if size > 20:
        raise OperatorError(f"conditioning alphabet of size {size} exceeds the brute-force bound 20")
    others = tuple(1 + i for i in range(len(conds.classical_names)) if i != ax)
    pz = probs.sum(axis=others) if others else probs
    points, zs = np.nonzero(pz > COND_SUPPORT_TOL)
    return points, zs, pz


def _cond_rows(conds: CQConditionals, probs, part_a, part_b, cond):
    """The rows of the conditional max-min form (:func:`_cond_support`); conditioning on ``cond`` only reweights.

    Each row is over the grid's own conditionals, zero off its ``z`` and
    divided by its mass.  Returns the rows, each row's point and ``z``, and
    the ``(G, |cond|)`` masses ``pz``.
    """
    points, zs, pz = _cond_support(conds, probs, part_a, part_b, cond)
    ax = conds.axis(cond)
    given = np.moveaxis(probs, 1 + ax, 1)[points, zs]
    mass = given.reshape(len(zs), -1).sum(axis=1).reshape((-1,) + (1,) * (given.ndim - 1))
    rows = np.zeros((len(zs),) + probs.shape[1:])
    np.moveaxis(rows, 1 + ax, 1)[np.arange(len(zs)), zs] = given / mass
    return rows, points, zs, pz


@dataclass(frozen=True)
class _GridTerm:
    """One checked information term of a grid, before its pairs are built.

    Its pairs have ``rows`` rows, the grid's points or with ``cond`` one per
    point and supported value of ``cond`` (:func:`_cond_support`), of
    ``shape`` ``(K, d)``.
    """

    kind: str
    part_a: list
    part_b: list
    cond: str | None
    eps: float
    rows: int
    shape: tuple[int, int]

    @property
    def nbytes(self) -> int:
        """Bytes of the term's joint stack."""
        k, d = self.shape
        return self.rows * k * d * d * np.dtype(complex).itemsize


def _grid_term(conds: CQConditionals, probs, kind, part_a, part_b, cond, eps, strategy) -> _GridTerm:
    part_a, part_b = _parts(part_a), _parts(part_b)
    rows = len(probs) if cond is None else len(_cond_support(conds, probs, part_a, part_b, cond)[0])
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    if kind != "ht" and strategy not in SMOOTHING_STRATEGIES:
        raise ValueError(f"unknown smoothing strategy {strategy!r}")
    return _GridTerm(kind, part_a, part_b, cond, eps, rows, pair_shape(conds, part_a, part_b))


def _solve_terms(conds: CQConditionals, probs, terms: Sequence[_GridTerm], strategy: str) -> list[np.ndarray]:
    """Terms of one kind, eps and block shape: their pairs' rows in one stack solve, split back per term.

    The stacks go to :func:`_dh_betas` or :func:`_dmax_values` as they are;
    only the diagonal-scan smoothing makes each pair dense and scans it
    alone.  A conditional term then takes the max-min over its rows.
    """
    pairs, supports = [], []
    for term in terms:
        if term.cond is None:
            rows = probs
        else:
            rows, *support = _cond_rows(conds, probs, term.part_a, term.part_b, term.cond)
            supports.append(support)
        joint, product = block_pairs(conds, rows, term.part_a, term.part_b)
        if not (np.isfinite(joint).all() and np.isfinite(product).all()):
            raise OperatorError("non-finite entries in rho or sigma")
        pairs.append((joint, product))
    joint, product = pairs[0] if len(pairs) == 1 else (np.concatenate(side) for side in zip(*pairs))
    del pairs, rows
    kind, eps = terms[0].kind, terms[0].eps
    if kind == "ht":
        betas = _dh_betas(joint, product, eps).tolist()
        values = np.array([math.inf if beta <= 0.0 else -math.log2(beta) for beta in betas])
    else:
        values = _dmax_values(joint, product)
        if strategy != "none":
            values = np.array([
                min(_diagonal_scan(*_codiagonalize(_block_diag(j), _block_diag(p)), eps), value)
                for j, p, value in zip(joint, product, values.tolist())
            ])
    out = []
    supports = iter(supports)
    for term, part in zip(terms, np.split(values, np.cumsum([term.rows for term in terms])[:-1])):
        if term.cond is None:
            out.append(part)
            continue
        points, zs, pz = next(supports)
        by_point = np.zeros(pz.shape)
        by_point[points, zs] = part
        out.append(_max_min(pz, by_point, pz > COND_SUPPORT_TOL, eps))
    return out


def grid_values(
    kind: str,
    conds: CQConditionals,
    probs: np.ndarray,
    part_a,
    part_b,
    cond: str | None,
    eps: float,
    strategy: str = "none",
    first: int | None = None,
) -> np.ndarray:
    """One information term at every point of a grid of CQ states.

    The grid is ``conds`` with the ``(G, *alphabet_sizes)`` stack ``probs``.
    ``kind`` ``"ht"`` is the hypothesis-testing mutual information and
    ``"max"`` the smoothed max mutual information; with ``cond`` it is the
    conditional max-min form, one row per point and supported value of
    ``cond``.  Every row's pair is built in one contraction (see
    :func:`block_pairs`), and all rows are solved together by one stack
    solver (:func:`_dh_betas` or :func:`_dmax_values`).  A
    ``ConvergenceError`` names the term and the failing row's value of
    ``cond``; given ``first``, the index of the grid's first point in a
    larger grid, it names the failing point as well.
    """
    term = _grid_term(conds, probs, kind, part_a, part_b, cond, eps, strategy)
    try:
        return _solve_terms(conds, probs, [term], strategy)[0]
    except ConvergenceError as exc:
        # each row's point and value of cond
        points, zs = ((np.arange(len(probs)), None) if cond is None
                      else _cond_support(conds, probs, term.part_a, term.part_b, cond)[:2])
        where = []
        if exc.row is not None and first is not None:
            where.append(f"grid point {first + int(points[exc.row])}")
        if exc.row is not None and zs is not None:
            where.append(f"{cond}={int(zs[exc.row])}")
        given = f" | {cond}" if cond is not None else ""
        at = f" ({', '.join(where)})" if where else ""
        raise ConvergenceError(
            f"D_H({','.join(term.part_a)} : {','.join(term.part_b)}{given}): {exc}{at}") from None


def grid_terms(
    conds: CQConditionals,
    probs: np.ndarray,
    terms: Sequence[tuple],
    strategy: str = "none",
    first: int | None = None,
) -> list[np.ndarray]:
    """Several information terms of one grid, each as :func:`grid_values` gives it, bit for bit.

    ``terms`` are ``(kind, part_a, part_b, cond, eps)``.  Terms of one kind,
    eps and block shape ``(K, d)`` are solved together: their rows go into
    one stack solve, in batches whose joint stack stays within
    ``_BATCH_BYTES`` (a larger term is a batch of its own).  A row's value
    does not depend on its batch.  When a batch raises
    ``ConvergenceError`` the unsolved terms are solved one at a time in
    order, so the error names the term, point and value of ``cond`` that a
    term-by-term evaluation would.
    """
    planned = [_grid_term(conds, probs, kind, part_a, part_b, cond, eps, strategy)
               for kind, part_a, part_b, cond, eps in terms]
    # each key's batch still filling, and its joint stack bytes so far
    batches: list[list[int]] = []
    filling: dict[tuple, tuple[list[int], int]] = {}
    for i, term in enumerate(planned):
        key = (term.kind, term.eps, term.shape)
        batch, size = filling.get(key, (None, 0))
        if batch is None or size + term.nbytes > _BATCH_BYTES:
            batch, size = [], 0
            batches.append(batch)
        batch.append(i)
        filling[key] = (batch, size + term.nbytes)
    values: list = [None] * len(planned)
    try:
        for batch in batches:
            for i, value in zip(batch, _solve_terms(conds, probs, [planned[i] for i in batch], strategy)):
                values[i] = value
    except ConvergenceError:
        for i, term in enumerate(terms):
            if values[i] is None:
                values[i] = grid_values(term[0], conds, probs, *term[1:], strategy, first)
    return values


def _one_point(kind: str, state: CQState, part_a, part_b, cond, eps: float, strategy: str = "none") -> float:
    return float(grid_values(kind, state.conds, state.probs[None], part_a, part_b, cond, eps, strategy)[0])


def ht_mutual_info(state: CQState, part_a, part_b, eps: float) -> float:
    """Hypothesis-testing mutual information between two register groups."""
    return _one_point("ht", state, part_a, part_b, None, eps)


def max_mutual_info(state: CQState, part_a, part_b) -> float:
    part_a, part_b = _parts(part_a), _parts(part_b)
    joint, product = joint_and_product(state, part_a, part_b)
    return max_relative_entropy(joint, product)


def smooth_max_mutual_info(
    state: CQState, part_a, part_b, eps: float, strategy: str = "none"
) -> float:
    """Smoothed max mutual information; the marginals of the product side stay fixed."""
    return _one_point("max", state, part_a, part_b, None, eps, strategy)


def cond_smooth_ht_mi(state: CQState, part_a, part_b, cond: str, eps: float) -> float:
    """Conditional smooth hypothesis-testing mutual information (max-min form)."""
    return _one_point("ht", state, part_a, part_b, cond, eps)


def cond_smooth_max_mi(
    state: CQState, part_a, part_b, cond: str, eps: float, strategy: str = "none"
) -> float:
    """Conditional smooth max mutual information (max-min form)."""
    return _one_point("max", state, part_a, part_b, cond, eps, strategy)


def fact_bound(rho, sigma, eps: float) -> float:
    """Relative-entropy upper bound on the hypothesis-testing divergence."""
    d = relative_entropy(rho, sigma)
    if math.isinf(d):
        return math.inf
    return (d + binary_entropy(eps)) / (1.0 - eps)
