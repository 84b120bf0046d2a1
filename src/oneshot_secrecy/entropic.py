"""One-shot divergences and mutual informations for finite-dimensional states.

All quantities are reported in bits (base-2 logarithms).  ``+inf`` is a legal
return value wherever a support condition fails; it is never raised as an
error.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .operators import (
    BALL_SLACK,
    BAND_FLOOR,
    BISECT_WIDTH,
    BRACKET_MARGIN,
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
# threshold-test probes, bracketing included, before ConvergenceError; a
# certified first probe (see _threshold_betas) counts though it is never run,
# and the first probe of the final band does not count
_MAX_ITER = 200
# transfer grid of the diagonal-scan smoothing: a donor's transfers are
# np.arange(_SCAN_STEP, p_i, _SCAN_STEP) and then p_i, searched by index
_SCAN_STEP = 1e-4
# bytes one batched stack solve in grid_terms builds at most.  A row costs the
# larger of its weighted conditionals and 8 times its joint blocks: at its peak
# the D_H solver holds about 8 times its joint stack in temporaries
# (tracemalloc on the bench sweep's batches; up to 22 times on stacks of a few
# KiB), beside the joint and product stacks.  A term over the budget is cut into
# row ranges that fit it (see _pack).  This budget lets a region's one-point
# terms share a solve, and the bench sweep's 41 KiB (81, 8, 2, 2) joint stacks
# of one kind and eps go up to six a solve.  Against a quarter of it, the bench
# sweep's peak RSS rose 3.9% with it, 4.9% at seven terms a solve and 13.5% at
# four times it.  It bounds each batch of a register's terms in one max-min too.
_BATCH_BYTES = 1 << 21


class _RowError(Exception):
    """An error whose ``row`` is the index of the failing row of a stack solve, when known."""

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message)
        self.row = row


class ConvergenceError(_RowError, RuntimeError):
    """The threshold-test search failed to pin down the optimal test."""


class CommutationError(_RowError, OperatorError):
    """Diagonal-scan smoothing met a pair of operators that do not commute."""


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
    if float(_kernel_mass(ws[None], weights[None])[0]) >= EIG_CLAMP:
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


def _block_stack(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both operators as ``(K, d, d)`` stacks of their finest common blocks.

    The blocks are the finest equal, contiguous partition of the diagonal
    that no nonzero entry of either operator crosses (exact, no tolerance),
    so ``K == 1`` is the dense case and ``d == 1`` an exactly diagonal pair.
    The public 2-D divergences solve a pair as the one row of this stack.
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


def _take(mask: np.ndarray, *stacks: np.ndarray) -> tuple[np.ndarray, ...]:
    """The rows ``mask`` marks of each stack; the stacks themselves, uncopied, when it marks every row."""
    return stacks if mask.all() else tuple(x[mask] for x in stacks)


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
    weighs on sigma's kernel.  A final probe at the midpoint of a bracket
    narrower than ``BISECT_WIDTH``·max(1, hi) has a band wider than the
    eigenvalue drift across it; where a smooth piece (rho on sigma's kernel)
    outruns ``TYPE_I_TOL`` there, the final band bisects on.  With sigma's
    support empty the bracket starts at t = 1 and the search fails.

    Sigma's eigendecomposition, the kernel mass and the breakpoints are
    computed for all rows at once.  Each row's search state is a column of
    one float and one int array of fields, and each step updates all open
    rows elementwise, by one row's IEEE operations in its order, and makes
    one ``eigh`` of rho - t sigma over them; the updates only growing or
    final-band rows need run when some row is in that phase.  A row leaves
    the batch when it finishes or fails, the fields by two fancy-index
    operations.  Every ``eigh`` sees live blocks only (:func:`_live_blocks`);
    the per-row sums read the dead ones as zeros in place, so they add in
    the same order and keep their bits.  ``rows`` labels the rows in a
    ``ConvergenceError``.

    A probe's outcome reads rho's weights on the eigenvectors of
    rho - t sigma only, so each step forms rho's weights on the open blocks,
    and a row's sigma weights are formed once, when it finishes, on its live
    blocks and from its last probe's eigenvectors.  Both go through the same
    per-row ``(2, K·d) @ (K·d, 2)`` product of weights and masks, the sigma
    half zero until the row finishes, so the rho sums do not change with it.

    A row whose first probe's outcome is certified skips that probe.  The
    probe is at hi = lam + 1, lam the row's largest breakpoint (0 with none),
    with band PROBE_BAND·(1 + hi); it is certified when sigma's least
    eigenvalue s over the row's live blocks exceeds ``BRACKET_MARGIN`` bands.
    The proof: s is then far above ``EIG_CLAMP``, so sigma is full rank on
    every live block, the breakpoints are all the positive eigenvalues of
    sigma^{-1/2} rho sigma^{-1/2}, and rho <= lam·sigma blockwise; hence
    rho - hi·sigma <= -sigma <= -s, below -BRACKET_MARGIN·band.  For
    operators of norm about one, as states are, rounding moves lam by about
    d·u·lam / s < d·1.2e-7 (u the unit roundoff; lam < 1 + hi <
    s / (BRACKET_MARGIN·PROBE_BAND)), which keeps nearly all of that gap,
    and ``eigh`` of rho - hi·sigma errs by about d·u·(1 + hi), under a
    hundredth of the band for d < 90.  So every live eigenvalue the probe
    would compute lies below -band: no mask is set, the dead blocks' zeros
    carry zero weight, and all four sums are exact zeros (a row with no live
    block, s = inf, reads only such zeros).  The row starts narrowing from
    that outcome, f_hi = (0 + 0) - target, with the probe counted, one probe
    ahead of the others.  So a failure is raised only once no row can fail
    after fewer probes, the first by (probes made, row): the error names the
    same row, with the same text, as when every row probes.
    """
    n_rows, k, d = a.shape[:3]
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
    sig_least = np.full(n_rows, math.inf)
    np.minimum.at(sig_least, at, ws.min(axis=1))
    hi = np.where(np.isfinite(lam), lam, 0.0).max(axis=1) + 1.0
    certified = sig_least > BRACKET_MARGIN * PROBE_BAND * (1.0 + hi)
    # each open row's fields, one row of a float and of an int array each, so
    # a compaction is two fancy-index operations.  Floats: bracket [lo, hi],
    # f = Tr(P_+ rho) - target at its ends (they only choose secant points),
    # width goal, probe (t, band), sigma's largest eigenvalue, then the
    # breakpoints and an inf one past the last, so an index one past a row's
    # last reads inf.  Ints: index among the searching rows, 1 if certified,
    # phase (0 growing the bracket, 1 narrowing it, 2 the final band), probes
    # counted, the end the last secant step moved (-1 lo, +1 hi), and whether
    # its probe is a secant step.  A certified row starts narrowing from its
    # first probe's outcome, counted: f_hi = (0 + 0) - target.
    floats = np.zeros((9 + lam.shape[1], n_rows))
    floats[[1, 2, 3, 4, 7]] = hi, f_lo, np.where(certified, -target, 0.0), BISECT_WIDTH * np.maximum(1.0, hi), sig_norm
    floats[8:-1], floats[-1] = lam.T, math.inf
    ints = np.zeros((6, n_rows), dtype=np.int64)
    ints[0], ints[1:4] = np.arange(n_rows), certified
    done = np.zeros(n_rows, dtype=bool)
    # the first failure by (probes made, row), with its message
    failed = None
    for step in itertools.count():
        (lo, hi, f_lo, f_hi, goal, t, band, sig_norm), lam = floats[:8], floats[8:]
        idx, ahead, phase, iters, side, secant = ints
        grow, final = phase == 0, phase == 2
        # most steps hold narrowing rows only: the other phases' updates wait behind these
        growing, closing = grow.any(), final.any()
        if step:
            # the last probe's outcome; growing tests "below" first, narrowing "above"
            a_pos = sums[:, 0]
            reach = a_pos + sums[:, 1]
            above, below = a_pos > target, reach < target
            up = above & ~(grow & below) if growing else above
            down = below & ~up
            # lower and upper: the rows whose probe becomes their bracket's lo or hi
            if closing:
                up, down = up & ~final, down & ~final
                # the final band bisects on while its probe misses the type-I window
                miss = final & ((a_pos > target + TYPE_I_TOL) | (reach < target - TYPE_I_TOL))
                done = ~(up | down | miss)
                lower, upper = up | miss & above, down | miss & ~above
            else:
                done = ~(up | down)
                lower, upper = up, down
            if done.any():
                # sigma's weights on the finished rows' live blocks, then their
                # sums [[a_pos, a_zer], [b_pos, b_zer]] and P_+ plus the share
                # c of P_0 that meets the target
                mine = done[at]
                s = weights[done]
                s[:, 1] = _scatter(_weights(ab[mine, 1], v[mine]), None if live is None else live[done],
                                   (len(s), k)).reshape(len(s), -1)
                s = (s @ masks[done]).reshape(-1, 4)
                c = np.divide(target - s[:, 0], s[:, 1], out=np.zeros(len(s)), where=s[:, 1] > 0.0)
                c = np.where(c > 0.0, c, 0.0)
                betas[searching[idx[done]]] = s[:, 2] + np.where(c < 1.0, c, 1.0) * s[:, 3]
            f_lo[:] = np.where(up, a_pos - target, np.where(down & (side > 0), 0.5 * f_lo, f_lo))
            f_hi[:] = np.where(down, reach - target, np.where(up & (side < 0), 0.5 * f_hi, f_hi))
            side[:] = np.where(up, -secant, np.where(down, secant, side))
            lo[:] = np.where(lower, t, lo)
            hi[:] = np.where(upper, t, np.where(grow & up, 2.0 * hi, hi) if growing else hi)
            if growing:
                found = grow & down
                goal[:] = np.where(found, BISECT_WIDTH * np.maximum(1.0, hi), goal)
                phase += found
                grow &= ~found
        # the next probe: hi while growing; while narrowing, the middle
        # breakpoint in (lo, hi) or, with none left, an Illinois step (a
        # bisection step when it leaves the bracket); the midpoint in the
        # final band, whose first probe is not counted
        capped = iters >= _MAX_ITER
        mid = 0.5 * (lo + hi)
        # with no growing or final-band row, every row narrows
        narrow = ~(grow | final) if growing or closing else True
        probing = narrow & (hi - lo > goal)
        settle = narrow & ~probing
        fail = capped & (grow | probing if growing else probing)
        if closing:
            fail |= final & (capped | ~((lo < mid) & (mid < hi)))
        fail &= ~done
        if fail.any():
            j = np.flatnonzero(fail)
            j = int(j[np.lexsort((idx[j], ahead[j]))[0]])
            if phase[j] == 0:
                message = f"could not bracket the threshold test (t up to {hi[j]:.6g}, eps={eps})"
            elif phase[j] == 1:
                message = (f"no convergence after {_MAX_ITER} iterations "
                           f"(t in [{lo[j]:.6g}, {hi[j]:.6g}], eps={eps}); degenerate spectrum suspected")
            else:
                message = (f"straddle detection failed at t={t[j]:.6g}, eps={eps} "
                           f"(type-I window [{a_pos[j]:.12g}, {reach[j]:.12g}], target {target:.12g})")
            key = (step + int(ahead[j]), int(idx[j]), message)
            failed = key if failed is None else min(failed, key)
        first, stop = (lam <= lo).sum(axis=0), (lam < hi).sum(axis=0)
        jump = first != stop
        secant[:] = ~jump & probing
        illinois = lo + (hi - lo) * np.divide(f_lo, f_lo - f_hi, out=np.zeros(len(lo)), where=f_lo > 0.0)
        t[:] = np.where(jump, lam[(first + stop) // 2, np.arange(len(lo))],
                        np.where((lo < illinois) & (illinois < hi), illinois, mid))
        if growing:
            t[:] = np.where(grow, hi, t)
        band[:] = PROBE_BAND * (1.0 + t)
        # rows in or entering the final band probe its midpoint, that first probe uncounted
        if closing or settle.any():
            banded = ~(grow | probing)
            t[:] = np.where(banded, mid, t)
            band[:] = np.where(banded, 2.0 * (hi - lo) * (sig_norm + 1.0) + BAND_FLOOR, band)
            phase += settle
        iters += ~settle
        keep = ~(done | fail)
        if not keep.all():
            (ab,), at, live = _keep_rows(keep, at, live, ab)
            floats, ints = floats[:, keep], ints[:, keep]
        n_open = ints.shape[1]
        if failed is not None and (failed[0] <= step or not n_open):
            raise ConvergenceError(failed[2], int(rows[searching[failed[1]]]))
        if not n_open:
            return betas
        t, band = floats[5:7]
        shape = (n_open, k)
        w, v = _eigh(ab[:, 0] - t[at, None, None] * ab[:, 1])
        w, cut = _scatter(w, live, shape), band[:, None, None]
        masks = np.empty(shape + (d, 2))
        np.greater(w, cut, out=masks[..., 0])
        np.less_equal(np.abs(w), cut, out=masks[..., 1])
        masks = masks.reshape(n_open, -1, 2)
        # per row [[a_pos, a_zer], [0, 0]]: sigma's weights wait for the row to finish
        weights = np.zeros((n_open, 2, k, d))
        weights[:, 0] = _scatter(_weights(ab[:, 0], v), live, shape)
        weights = weights.reshape(n_open, 2, -1)
        sums = (weights @ masks).reshape(-1, 4)


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
        p, q = map(_diagonals, _take(classical, a, b))
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
        betas[rows] = _threshold_betas(*_take(~classical, a, b), target, eps, rows)
    return betas


def _check_term(kind: str, eps: float, strategy: str) -> None:
    """The settings gate of a divergence value: eps in (0, 1), and a known smoothing for ``"max"``."""
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    if kind != "ht" and strategy not in SMOOTHING_STRATEGIES:
        raise ValueError(f"unknown smoothing strategy {strategy!r}")


def _dense_row(rho, sigma) -> tuple[np.ndarray, np.ndarray]:
    """A checked dense pair as the ``(1, K, d, d)`` stacks of its finest common blocks (:func:`_block_stack`)."""
    a, b = _block_stack(*_checked_pair(rho, sigma))
    return a[None], b[None]


def hypothesis_testing_beta(rho, sigma, eps: float) -> float:
    """Minimal type-II error beta*(eps) over tests 0 <= L <= I with Tr(L rho) >= 1-eps.

    Both operators are solved on their finest common diagonal blocks (see
    :func:`_block_stack`) as the one row of :func:`_dh_betas`: exactly by the
    Neyman-Pearson construction when the blocks are 1x1, by a threshold-test
    search (:func:`_threshold_betas`) otherwise.
    """
    a, b = _dense_row(rho, sigma)
    _check_term("ht", eps, "none")
    return float(_dh_betas(a, b, eps)[0])


def hypothesis_testing_divergence(rho, sigma, eps: float) -> float:
    """-log2 of :func:`hypothesis_testing_beta`, as the one row of :func:`_pair_values`; ``+inf`` when beta is 0."""
    a, b = _dense_row(rho, sigma)
    _check_term("ht", eps, "none")
    return float(_pair_values("ht", a, b, eps, "none")[0])


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
        p, q = map(_diagonals, _take(classical, a, b))
        off_support[rows] = _kernel_mass(q, p) >= EIG_CLAMP
        scale = _support_inv_sqrt(q)
        # the order of the block path's 1x1 product, so the value is bit-identical
        lam[rows] = ((scale * p) * scale).max(axis=1)
    rows = np.flatnonzero(~classical)
    if rows.size:
        a, b = _take(~classical, a, b)
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
    return float(_dmax_values(*_dense_row(rho, sigma))[0])


def _codiagonalize(rho: np.ndarray, sigma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Common eigenbasis values (p, q) for commuting Hermitian rho, sigma.

    The stack route reads exactly diagonal pairs off their diagonals
    instead (:func:`_scanned`).
    """
    comm = rho @ sigma - sigma @ rho
    if float(np.max(np.abs(comm))) > COMMUTE_TOL:
        raise CommutationError("inputs do not commute; diagonal-scan smoothing unavailable")
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
        block = (block + block.conj().T) / 2.0
        if (ws[start:stop] == ws[start]).all():
            p[start:stop] = np.linalg.eigvalsh(block)
        else:
            # unequal sigma values: each rho eigenvalue takes sigma's value along its eigenvector
            p[start:stop], u = np.linalg.eigh(block)
            q[start:stop] = (np.abs(u) ** 2 * ws[start:stop, None]).sum(axis=0)
        start = stop
    p[np.abs(p) <= EIG_CLAMP] = 0.0
    q[np.abs(q) <= EIG_CLAMP] = 0.0
    return p, q


def _first_true(pred, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Per entry, the first index in ``[lo, hi)`` where ``pred`` holds, else ``hi``: a binary search.

    ``pred`` maps an index array to a mask and must not fall back to False
    along an entry's range.  Every step probes every entry; one whose range
    is already closed (``lo == hi``) is probed at ``lo`` and the result
    ignored.
    """
    while (open_ := lo < hi).any():
        mid = (lo + hi) // 2
        found = pred(mid)
        lo, hi = np.where(open_ & ~found, mid + 1, lo), np.where(open_ & found, mid, hi)
    return lo


def _diagonal_scan(p: np.ndarray, q: np.ndarray, eps: float) -> np.ndarray:
    """Best single donor-recipient mass shift within the purified-distance ball, for each row of two ``(R, n)`` arrays.

    For every ordered atom pair (i, j) a transfer m moves from donor i to
    recipient j, m on the grid ``np.arange(_SCAN_STEP, p_i, _SCAN_STEP)``
    followed by p_i itself, keeping p' a distribution.  A row's value is the
    least max(p'_i / q_i, p'_j / q_j, largest other ratio) over the grid
    points inside the ball, or the unshifted max ratio if smaller, in bits.

    Two binary searches on the grid's indices stand in for trying every
    transfer.  Numpy fills the arange as ``step + k·((step + step) - step)``,
    which is ``step + k·step``, so any point is formed without the array.  The
    overlap f_root with the unshifted p falls strictly in m, so the ball is a
    prefix of the grid, and the first search finds its end.  Rounding is
    monotone, so p'_i / q_i cannot rise and p'_j / q_j cannot fall as m
    grows: over the prefix, the least of their maximum lies at the first
    point where the recipient's ratio reaches the donor's, or just before it,
    and the second search finds that point.  The expressions of the full scan
    (``tests/util.diagonal_scan_pairwise``) are evaluated at those points, so
    every value keeps its bits.  All pairs of all rows search together.
    """
    p = np.maximum(p, 0.0)
    d = p.shape[1]
    with np.errstate(divide="ignore"):
        base = np.where(q > 0.0, p / np.maximum(q, DIV_FLOOR), math.inf)
        base = np.where((q <= 0.0) & (p <= EIG_CLAMP), 0.0, base)
    # the unshifted ratio max_i p_i / q_i (inf if p sits off supp q)
    best = base.max(axis=1, initial=0.0)
    # every ordered (row, donor, recipient) pair whose donor has mass
    r, i, j = np.nonzero((p > 0.0)[:, :, None] & ~np.eye(d, dtype=bool))
    if d > 2:
        # the largest base ratio outside {i, j} is the first of the row's top
        # three atoms that is neither donor nor recipient
        top = np.argsort(-base, axis=1, kind="stable")[r, :3]
        rest_max = base[r, top[np.arange(len(r)), ((top != i[:, None]) & (top != j[:, None])).argmax(axis=1)]]
    else:
        rest_max = 0.0
    pi, pj, qi, qj = p[r, i], p[r, j], q[r, i], q[r, j]
    rest = 1.0 - pi - pj
    # numpy's length of the arange; index `last` is p_i itself
    last = np.maximum(np.ceil((pi - _SCAN_STEP) / _SCAN_STEP), 0.0).astype(np.int64)

    def shifted(k):
        m = np.where(k < last, _SCAN_STEP + k * _SCAN_STEP, pi)
        return (pi - m).clip(min=0.0), pj + m

    def outside(k):
        pi_new, pj_new = shifted(k)
        # fidelity is the square of the trace-norm overlap f_root
        f_root = rest + np.sqrt(pi_new * pi) + np.sqrt(pj_new * pj)
        return ~(np.sqrt(np.maximum(0.0, 1.0 - f_root * f_root)) <= eps + BALL_SLACK)

    def ratios(k):
        """The donor's and the recipient's shifted ratio; off q's support, inf unless the mass is clamped."""
        return [np.where(qx > 0.0, x / np.where(qx > 0.0, qx, 1.0), np.where(x > EIG_CLAMP, math.inf, 0.0))
                for x, qx in zip(shifted(k), (qi, qj))]

    def crossed(k):
        ri, rj = ratios(k)
        return rj >= ri

    def cand(k):
        return np.maximum(np.maximum(*ratios(k)), rest_max)

    # the ball is the grid points [0, end); the recipient's ratio reaches the donor's from cross on
    end = _first_true(outside, np.zeros_like(last), last + 1)
    cross = _first_true(crossed, np.zeros_like(last), end)
    np.minimum.at(best, r, np.minimum(np.where(cross < end, cand(cross), math.inf),
                                      np.where(cross > 0, cand(cross - 1), math.inf)))
    return np.array([-math.inf if b <= 0.0 else (math.log2(b) if b != math.inf else math.inf)
                     for b in best.tolist()])


def _scanned(joint: np.ndarray, product: np.ndarray, eps: float) -> np.ndarray:
    """:func:`_diagonal_scan` of every row of two ``(R, K, d, d)`` block stacks, in one call.

    Classical rows (:func:`_classical_rows`) read their diagonals off the
    stack; only the others are made dense and take their common eigenbasis
    (:func:`_codiagonalize`), whose ``CommutationError`` then carries the
    row.  Atoms within ``EIG_CLAMP`` of zero are zeroed, as
    :func:`_codiagonalize` zeroes them.
    """
    p, q = _diagonals(joint).copy(), _diagonals(product).copy()
    for row in np.flatnonzero(~_classical_rows(joint, product)).tolist():
        try:
            p[row], q[row] = _codiagonalize(_block_diag(joint[row]), _block_diag(product[row]))
        except CommutationError as exc:
            raise CommutationError(str(exc), row) from None
    p[np.abs(p) <= EIG_CLAMP] = 0.0
    q[np.abs(q) <= EIG_CLAMP] = 0.0
    return _diagonal_scan(p, q, eps)


def _pair_values(kind: str, joint: np.ndarray, product: np.ndarray, eps: float, strategy: str) -> np.ndarray:
    """The divergence value of every row of two ``(R, K, d, d)`` block stacks, in bits.

    ``"ht"`` is ``-log2`` of :func:`_dh_betas` (``+inf`` where beta is 0);
    ``"max"`` is :func:`_dmax_values`, and with ``diagonal-scan`` smoothing
    the smaller of it and :func:`_scanned`, the scan's on a tie.
    """
    if kind == "ht":
        betas = _dh_betas(joint, product, eps).tolist()
        return np.array([math.inf if beta <= 0.0 else -math.log2(beta) for beta in betas])
    values = _dmax_values(joint, product)
    if strategy == "none":
        return values
    scanned = _scanned(joint, product, eps)
    return np.where(values < scanned, values, scanned)


def smooth_max_relative_entropy(rho, sigma, eps: float, strategy: str = "none") -> float:
    """Upper bound on the eps-smoothed max-relative entropy.

    ``none`` returns the unsmoothed value (the state itself lies in the ball).
    ``diagonal-scan`` minimizes over diagonal perturbations of commuting
    inputs: single donor-recipient mass shifts on a transfer grid of step
    ``_SCAN_STEP``, exact up to that resolution within the family.  Two
    binary searches per pair on the grid's indices, one for the end of the
    purified-distance ball and one for where the two shifted ratios cross,
    give the value a try of every grid point would (:func:`_diagonal_scan`).
    The pair is the one row of :func:`_pair_values`.
    """
    a, b = _dense_row(rho, sigma)
    _check_term("max", eps, strategy)
    return float(_pair_values("max", a, b, eps, strategy)[0])


# ---------------------------------------------------------------------------
# mutual informations over classical-quantum states
# ---------------------------------------------------------------------------


def _parts(part) -> list[str]:
    return [part] if isinstance(part, str) else list(part)


def term_name(kind: str, part_a, part_b, cond: str | None = None) -> str:
    """How an error names an information term: ``D_H(A,B : C | Q)`` for kind ``"ht"``, ``D_max(...)`` for ``"max"``."""
    given = f" | {cond}" if cond is not None else ""
    return f"{'D_H' if kind == 'ht' else 'D_max'}({','.join(_parts(part_a))} : {','.join(_parts(part_b))}{given})"


def _max_min(masses: np.ndarray, values: np.ndarray, support: np.ndarray, eps: Sequence[float]) -> np.ndarray:
    """The conditional max-min of each term's row ``values[t, g]`` over atoms ``support[g]``, ``(T, G)``.

    Keep the largest-value atoms whose total mass stays feasible: dropping a
    support set S is allowed iff the kept mass is at least 1 - eps[t]^2, the
    exact purified-distance ball condition for diagonal perturbations.  The
    ``(G, Z)`` masses and support are shared by the ``T`` terms of the
    ``(T, G, Z)`` values.  Rows with the same number of atoms are solved
    together, so each starting mass is numpy's sum of exactly its row's
    atoms, and a term's values do not depend on the others'.
    """
    eps = np.asarray(eps, dtype=float)[:, None, None]
    threshold = 1.0 - eps * eps - KEPT_MASS_SLACK
    best = np.empty(values.shape[:2])
    counts = support.sum(axis=1)
    for n in sorted(set(counts.tolist())):
        rows = np.flatnonzero(counts == n)
        at = support[rows]
        m = masses[rows][at].reshape(len(rows), n)
        v = values[:, rows][:, at].reshape(len(values), len(rows), n)
        order = np.argsort(v, axis=2, kind="stable")
        # the kept mass before each drop: the total, then less each atom in value order
        kept = np.subtract.accumulate(np.concatenate([
            np.broadcast_to(m.sum(axis=1)[:, None], (len(v), len(rows), 1)),
            np.take_along_axis(m[None], order[..., :-1], axis=2)], axis=2), axis=2)
        feasible = np.logical_and.accumulate(kept >= threshold, axis=2)
        last = np.maximum(feasible.sum(axis=2) - 1, 0)
        best[:, rows] = np.take_along_axis(v, np.take_along_axis(order, last[..., None], axis=2), axis=2)[..., 0]
    return best


@dataclass(frozen=True)
class _Rows:
    """The rows a grid's terms are solved on: the grid's points, or its distinct conditional states.

    :func:`block_pairs` builds them from ``probs`` and ``given``; ``points``
    is each row's first point.  Given a register (:func:`_cond_rows`),
    ``row_of`` is the row of every point and supported value in
    ``np.nonzero`` order, and ``pz`` the ``(G, |cond|)`` masses.
    """

    probs: np.ndarray
    points: np.ndarray
    given: tuple[int, np.ndarray] | None = None
    row_of: np.ndarray | None = None
    pz: np.ndarray | None = None


def _cond_rows(conds: CQConditionals, probs, cond) -> _Rows:
    """The rows of the conditional max-min form given ``cond``: the distinct conditional states of the grid.

    A point with mass at value ``z`` of ``cond`` is in the state of its
    probabilities at ``z``, divided by their mass; two such states are one
    row when their ``z`` and the bits of those renormalised probabilities
    agree, so ``-0.0`` and ``0.0`` stay apart.  Rows are in order of first
    appearance, each its renormalised probabilities over the conditionals at
    its ``z`` (``block_pairs``' ``given``), so no row holds the rest of
    ``cond``'s alphabet.
    """
    ax = conds.axis(cond)
    others = tuple(1 + i for i in range(len(conds.classical_names)) if i != ax)
    pz = probs.sum(axis=others) if others else probs
    points, zs = np.nonzero(pz > COND_SUPPORT_TOL)
    given = np.moveaxis(probs, 1 + ax, 1)[points, zs]
    flat = (len(zs), math.prod(given.shape[1:]))
    mass = given.reshape(flat).sum(axis=1).reshape((-1,) + (1,) * (given.ndim - 1))
    given = given / mass
    # each row's key: the bytes of its z and of its renormalised probabilities
    keys = np.concatenate([zs[:, None].astype(np.uint64), given.reshape(flat).view(np.uint64)], axis=1)
    keys = keys.view(np.dtype((np.void, keys.shape[1] * keys.itemsize))).ravel().tolist()
    index: dict[bytes, int] = {}
    row_of = np.array([index.setdefault(key, len(index)) for key in keys], dtype=np.intp)
    first = np.unique(row_of, return_index=True)[1]
    return _Rows(np.expand_dims(given[first], 1 + ax), points[first], (ax, zs[first]), row_of, pz)


@dataclass(frozen=True)
class _GridTerm:
    """One checked information term of a grid, before its pairs are built.

    Its ``rows`` are shared by every term of the grid with its ``cond``.
    Its pairs' blocks have ``shape`` ``(K, d)``.
    """

    kind: str
    part_a: list
    part_b: list
    cond: str | None
    eps: float
    shape: tuple[int, int]
    rows: _Rows

    @property
    def row_bytes(self) -> int:
        """Bytes one row builds at most: its weighted conditionals, or 8 times its joint blocks."""
        k, d = self.shape
        return np.dtype(complex).itemsize * d * d * max(math.prod(self.rows.probs.shape[1:]), 8 * k)

    def ranges(self) -> list[slice]:
        """The term's rows: one range when they fit in ``_BATCH_BYTES``, else ranges that do (a row at least)."""
        rows = len(self.rows.points)
        step = max(1, rows if rows * self.row_bytes <= _BATCH_BYTES else _BATCH_BYTES // self.row_bytes)
        return [slice(lo, min(lo + step, rows)) for lo in range(0, rows, step)]


def _pack(items) -> list[list]:
    """Greedy batches of ``(item, key, nbytes)``: each key's open batch takes items while it stays within
    ``_BATCH_BYTES``, else a new one opens; an item over it is a batch of its own."""
    batches: list[list] = []
    filling: dict[object, tuple[list, int]] = {}
    for item, key, nbytes in items:
        batch, size = filling.get(key, (None, 0))
        if batch is None or size + nbytes > _BATCH_BYTES:
            batch, size = [], 0
            batches.append(batch)
        batch.append(item)
        filling[key] = (batch, size + nbytes)
    return batches


def _solve_terms(conds: CQConditionals, pieces: Sequence[tuple[_GridTerm, slice]], strategy: str) -> list[np.ndarray]:
    """Row ranges of terms of one kind, eps and block shape: their rows in one stack solve, split back per range."""
    pairs = []
    for term, rows in pieces:
        given = None if term.rows.given is None else (term.rows.given[0], term.rows.given[1][rows])
        joint, product = block_pairs(conds, term.rows.probs[rows], term.part_a, term.part_b, given)
        if not (np.isfinite(joint).all() and np.isfinite(product).all()):
            raise OperatorError("non-finite entries in rho or sigma")
        pairs.append((joint, product))
    ends = np.cumsum([len(joint) for joint, _ in pairs])[:-1]
    joint, product = pairs[0] if len(pairs) == 1 else (np.concatenate(side) for side in zip(*pairs))
    del pairs
    term = pieces[0][0]
    return np.split(_pair_values(term.kind, joint, product, term.eps, strategy), ends)


def _solve_alone(conds: CQConditionals, term: _GridTerm, strategy: str, name_point: bool) -> np.ndarray:
    """One planned term's rows solved alone, range by range; an error named as in :func:`grid_terms`."""
    values = np.empty(len(term.rows.points))
    for rows in term.ranges():
        try:
            values[rows] = _solve_terms(conds, [(term, rows)], strategy)[0]
        except (ConvergenceError, CommutationError) as exc:
            where = []
            if exc.row is not None and name_point:
                where.append(f"grid point {int(term.rows.points[rows.start + exc.row])}")
            if exc.row is not None and term.rows.given is not None:
                where.append(f"{term.cond}={int(term.rows.given[1][rows.start + exc.row])}")
            at = f" ({', '.join(where)})" if where else ""
            raise type(exc)(f"{term_name(term.kind, term.part_a, term.part_b, term.cond)}: {exc}{at}") from None
    return values


def grid_terms(
    conds: CQConditionals,
    probs: np.ndarray,
    terms: Sequence[tuple],
    strategy: str = "none",
) -> list[np.ndarray]:
    """Information terms at every point of a grid of CQ states, one array per term.

    The grid is ``conds`` with the ``(G, *alphabet_sizes)`` stack ``probs``.
    ``terms`` are ``(kind, part_a, part_b, cond, eps)``: kind ``"ht"`` is the
    hypothesis-testing mutual information and ``"max"`` the smoothed max
    mutual information; with ``cond`` it is the conditional max-min form,
    one row per distinct conditional state of the grid (:func:`_cond_rows`),
    whose value every point and supported value of ``cond`` in it reads.
    Each register's rows are planned once and shared by its terms.
    Every row's pair is built in one contraction (see :func:`block_pairs`).
    Every batch is packed by :func:`_pack` within ``_BATCH_BYTES``.  Row
    ranges of terms of one kind, eps and block shape ``(K, d)`` share a stack
    solve (:func:`_pair_values`), counted per row (``_GridTerm.row_bytes``);
    a term over the budget is cut into ranges that fit it
    (``_GridTerm.ranges``).  Once every row is solved, each register's terms
    share one max-min (:func:`_max_min`), a term counted at 8 floats per
    point and value of ``cond``.  A row's value does not depend on its batch.
    When a batch raises ``ConvergenceError`` or ``CommutationError`` the
    unsolved terms are solved one at a time in order, so the error names the
    first failing term and its row's value of ``cond``; on a grid of more
    than one point it names the row's first point too.
    """
    # the rows of each conditioning register, planned where a term first names it
    plans = {None: _Rows(probs, np.arange(len(probs)))}
    planned = []
    for kind, part_a, part_b, cond, eps in terms:
        part_a, part_b = _parts(part_a), _parts(part_b)
        if cond is not None and not conds.is_classical(cond):
            raise OperatorError(f"conditioning register {cond!r} must be classical")
        if cond is not None and cond in part_a + part_b:
            raise OperatorError(f"conditioning register {cond!r} also appears in a part")
        if cond not in plans:
            plans[cond] = _cond_rows(conds, probs, cond)
        _check_term(kind, eps, strategy)
        planned.append(_GridTerm(kind, part_a, part_b, cond, eps, pair_shape(conds, part_a, part_b), plans[cond]))
    # (term, row range) batches of one kind, eps and block shape
    batches = _pack(((i, rows), (term.kind, term.eps, term.shape), (rows.stop - rows.start) * term.row_bytes)
                    for i, term in enumerate(planned) for rows in term.ranges())
    values = [np.empty(len(term.rows.points)) for term in planned]
    for b, batch in enumerate(batches):
        try:
            solved = _solve_terms(conds, [(planned[i], rows) for i, rows in batch], strategy)
        except (ConvergenceError, CommutationError):
            # every term of this batch or a later one, whole and in order
            for i in sorted({i for later in batches[b:] for i, _ in later}):
                values[i] = _solve_alone(conds, planned[i], strategy, len(probs) > 1)
            break
        for (i, rows), part in zip(batch, solved):
            values[i][rows] = part
    # max-min batches of one register's terms; a term's 8 floats per point and
    # value of cond are its (G, |cond|) values and _max_min's working arrays
    # (tracemalloc: 6 to 8 of them on 16807 points of a two-valued cond)
    for batch in _pack((i, term.cond, 8 * term.rows.pz.nbytes) for i, term in enumerate(planned)
                       if term.cond is not None):
        rows = planned[batch[0]].rows
        support = rows.pz > COND_SUPPORT_TOL
        by_point = np.zeros((len(batch),) + rows.pz.shape)
        for t, i in enumerate(batch):
            by_point[t][support] = values[i][rows.row_of]
        for i, best in zip(batch, _max_min(rows.pz, by_point, support, [planned[i].eps for i in batch])):
            values[i] = best
    return values


def _one_point(kind: str, state: CQState, part_a, part_b, cond, eps: float, strategy: str = "none") -> float:
    return float(grid_terms(state.conds, state.probs[None], [(kind, part_a, part_b, cond, eps)], strategy)[0][0])


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
