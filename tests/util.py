"""Shared independent oracles for the test suite.

Everything here deliberately avoids the production code paths it is used to
check: vertex enumeration goes through exhaustive basis solves or one solve
per row pair, minimal row sets through one re-enumeration per candidate row
(rebuilt, or masked out of one table and merged by a Python loop),
Fourier-Motzkin through one row object per combination and a dict keyed on
rounded directions, hulls through a monotone chain, the qubit test search
through a refined dense grid, the diagonal-scan smoothing through one
donor-recipient pair at a time, the joint/product pair through a dense
embedding with Kronecker products, the quantum threshold test through a
plain bisection on the whole matrix and through its dual, the stack
threshold search through one generator per row on the solver's own set-up
(the per-row search the array search replaced), a sweep's grid
through one nested product of input distributions per point, the
conditional max-min through one loop per point, and a region's row bounds
through one term at a time of the public one-point helpers, summed row by
row in Python floats, and density checks through one operator at a time.
Drawn channels for region-level properties are built here too, with the
maps on one output register that degrade them.
"""
import bisect
import itertools
import math
from typing import Sequence

import numpy as np
from hypothesis import strategies as st

from oneshot_secrecy import entropic, regions
from oneshot_secrecy.channel import HK_REGISTERS, OUTPUT_NAMES, ChannelSpec, InputDistribution, SplitSpec
from oneshot_secrecy.entropic import (
    _MAX_ITER,
    ConvergenceError,
    cond_smooth_ht_mi,
    cond_smooth_max_mi,
    ht_mutual_info,
    smooth_max_mutual_info,
)
from oneshot_secrecy.operators import (
    BAND_FLOOR,
    BISECT_WIDTH,
    COEF_TOL,
    DET_TOL,
    EIG_CLAMP,
    FEAS_TOL,
    HERM_TOL,
    KEPT_MASS_SLACK,
    KERNEL_MASS_SLACK,
    PROB_TOL,
    PROBE_BAND,
    PSD_TOL,
    TRACE_TOL,
    TYPE_I_TOL,
    OperatorError,
    RegisterLayout,
    partial_trace_matrix,
    permute_registers_matrix,
)
from oneshot_secrecy.regions import (
    PolyRow,
    RatePolytope,
    VertexEnumeration,
    _has_recession_ray,
    _simplex_grid,
)
from oneshot_secrecy.states import CQConditionals, CQState
from conftest import rand_density


def polytope_from_arrays(variables, rows):
    out = [PolyRow(tuple(float(c) for c in coeffs), float(b), f"r{i}")
           for i, (coeffs, b) in enumerate(rows)]
    return RatePolytope(tuple(variables), out)


def enumerate_vertices_nd(a, b, tol=1e-9):
    """All vertices of {x : a x <= b, x >= 0} by exhaustive basis solves."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    n = a.shape[1]
    a_full = np.vstack([a, -np.eye(n)])
    b_full = np.concatenate([b, np.zeros(n)])
    vertices = []
    for rows in itertools.combinations(range(len(b_full)), n):
        mat = a_full[list(rows)]
        if abs(np.linalg.det(mat)) < 1e-10:
            continue
        x = np.linalg.solve(mat, b_full[list(rows)])
        if np.all(a_full @ x <= b_full + tol):
            vertices.append(x)
    if not vertices:
        return np.zeros((0, n))
    vs = np.array(vertices)
    order = np.lexsort(vs.T[::-1])
    vs = vs[order]
    keep = [vs[0]]
    for v in vs[1:]:
        if np.max(np.abs(v - keep[-1])) > tol:
            keep.append(v)
    return np.array(keep)


def _rows_with_nonneg(poly: RatePolytope) -> tuple[np.ndarray, np.ndarray]:
    a, b = poly.coeff_matrix()
    eye = -np.eye(len(poly.variables))
    a = np.vstack([a, eye]) if a.size else eye
    b = np.concatenate([b, np.zeros(len(poly.variables))]) if b.size else np.zeros(2)
    return a, b


def vertices_2d_pairwise(poly: RatePolytope) -> VertexEnumeration:
    """``regions.vertices_2d`` with one solve and one feasibility test per row pair."""
    if len(poly.variables) != 2:
        raise OperatorError("vertices_2d needs exactly two variables")
    a, b = _rows_with_nonneg(poly)
    m = len(b)
    points = []
    for i in range(m):
        for j in range(i + 1, m):
            mat = np.array([a[i], a[j]])
            det = mat[0, 0] * mat[1, 1] - mat[0, 1] * mat[1, 0]
            if abs(det) < DET_TOL:
                continue
            x = np.linalg.solve(mat, np.array([b[i], b[j]]))
            if np.all(a @ x <= b + FEAS_TOL):
                points.append(np.maximum(x, 0.0))
    unbounded = _has_recession_ray(poly.coeff_matrix()[0])
    if not points:
        return VertexEnumeration([(0.0, 0.0)], True, unbounded)
    pts = np.array(points)
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    pts = pts[order]
    uniq: list = []
    for p in pts:
        if all(np.max(np.abs(p - q)) > FEAS_TOL for q in uniq):
            uniq.append(p)
    pts = np.array(uniq)
    if len(pts) == 1 and np.max(np.abs(pts[0])) <= FEAS_TOL:
        return VertexEnumeration([(0.0, 0.0)], not unbounded, unbounded)
    center = pts.mean(axis=0)
    angles = np.arctan2(pts[:, 1] - center[1], pts[:, 0] - center[0])
    order = np.argsort(angles, kind="stable")
    pts = pts[order]
    start = int(np.lexsort((pts[:, 1], pts[:, 0]))[0])
    pts = np.roll(pts, -start, axis=0)
    return VertexEnumeration([(float(x), float(y)) for x, y in pts], False, unbounded)


def minimal_2d_rebuild(poly: RatePolytope) -> RatePolytope:
    """``regions.minimal_2d`` that rebuilds the polytope without each candidate row.

    Like the routine it checks, it drops the ``0 <= -1`` marker of an empty
    system, so it answers only for systems without one.
    """
    if len(poly.variables) != 2:
        raise OperatorError("minimal_2d needs exactly two variables")
    rows = _prune_rows(list(poly.rows), poly.variables)
    rows = [r for r in rows if np.max(np.abs(r.coeffs)) > COEF_TOL]
    keep = list(rows)
    order = sorted(range(len(keep)), key=lambda i: (_normalize_key(np.asarray(keep[i].coeffs)), keep[i].bound))
    removed = set()
    for i in order:
        trial = [keep[j] for j in range(len(keep)) if j != i and j not in removed]
        sub = RatePolytope(poly.variables, trial)
        enum = vertices_2d_pairwise(sub)
        if enum.unbounded:
            continue
        row = keep[i]
        a = np.asarray(row.coeffs)
        if all(float(a @ np.asarray(v)) <= row.bound + FEAS_TOL for v in enum.vertices):
            removed.add(i)
    out = [keep[i] for i in range(len(keep)) if i not in removed]
    return RatePolytope(poly.variables, out, dict(poly.meta))


def _enumerate_masked(table, active: np.ndarray) -> VertexEnumeration:
    """``regions.vertices_2d`` on the table's rows marked ``active`` (the last two always are), with its
    merge as a Python loop over the sorted points."""
    a, i, j, x, sat = table
    feasible = active[i] & active[j] & np.all(sat[active], axis=0)
    unbounded = _has_recession_ray(a[:-2][active[:-2]])
    if not feasible.any():
        return VertexEnumeration([(0.0, 0.0)], True, unbounded)
    pts = np.maximum(x[feasible], 0.0)
    pts = pts[np.lexsort((pts[:, 1], pts[:, 0]))]
    uniq: list = []
    for p in pts:
        if all(np.max(np.abs(p - q)) > FEAS_TOL for q in uniq):
            uniq.append(p)
    pts = np.array(uniq)
    if len(pts) == 1 and np.max(np.abs(pts[0])) <= FEAS_TOL:
        return VertexEnumeration([(0.0, 0.0)], not unbounded, unbounded)
    center = pts.mean(axis=0)
    angles = np.arctan2(pts[:, 1] - center[1], pts[:, 0] - center[0])
    order = np.argsort(angles, kind="stable")
    pts = pts[order]
    start = int(np.lexsort((pts[:, 1], pts[:, 0]))[0])
    pts = np.roll(pts, -start, axis=0)
    return VertexEnumeration([(float(x), float(y)) for x, y in pts], False, unbounded)


def minimal_2d_masked(poly: RatePolytope) -> RatePolytope:
    """``regions.minimal_2d`` as one full enumeration per candidate row (``_enumerate_masked``), with the
    candidate and the rows already dropped masked out of one intersection table."""
    if len(poly.variables) != 2:
        raise OperatorError("minimal_2d needs exactly two variables")
    a, b = poly.coeff_matrix()
    kept, empty = regions._prune(a, b)
    if empty:
        return RatePolytope(poly.variables, [PolyRow((0.0, 0.0), -1.0, "infeasible")], dict(poly.meta))
    keep = [poly.rows[k] for k in kept]
    table = regions._intersection_table(RatePolytope(poly.variables, keep))
    a, b = a[kept], b[kept]
    active = np.ones(len(keep) + 2, dtype=bool)
    for i in range(len(keep)):
        active[i] = False
        enum = _enumerate_masked(table, active)
        active[i] = enum.unbounded or not all(float(a[i] @ np.asarray(v)) <= b[i] + FEAS_TOL for v in enum.vertices)
    return RatePolytope(poly.variables, [r for r, on in zip(keep, active) if on], dict(poly.meta))


def _normalize_key(coeffs: np.ndarray) -> tuple:
    scale = np.max(np.abs(coeffs))
    if scale <= COEF_TOL:
        return ()
    return tuple(np.round(coeffs / scale, 9))


def _prune_rows(rows: list[PolyRow], variables: tuple[str, ...]) -> list[PolyRow]:
    """Drop duplicate directions (keep the tightest) and trivial rows.

    An all-zero row with a negative bound marks an empty system and is kept.
    """
    best: dict[tuple, PolyRow] = {}
    infeasible: PolyRow | None = None
    for row in rows:
        coeffs = np.asarray(row.coeffs, dtype=float)
        scale = float(np.max(np.abs(coeffs))) if coeffs.size else 0.0
        if scale <= COEF_TOL:
            if row.bound < -FEAS_TOL and infeasible is None:
                infeasible = PolyRow(tuple(0.0 for _ in variables), -1.0, "infeasible")
            continue
        if np.all(coeffs <= COEF_TOL) and row.bound >= -FEAS_TOL:
            continue  # implied by the implicit nonnegativity rows
        key = _normalize_key(coeffs)
        norm_bound = row.bound / scale
        prev = best.get(key)
        if prev is None or norm_bound < prev.bound / float(np.max(np.abs(prev.coeffs))):
            best[key] = row
    pruned = [best[k] for k in sorted(best.keys())]
    if infeasible is not None:
        pruned.insert(0, infeasible)
    return pruned


def fourier_motzkin_rowwise(poly: RatePolytope, eliminate: Sequence[str]) -> RatePolytope:
    """``regions.fourier_motzkin`` with one ``PolyRow`` per combination, pruned row by row.

    Exact projection of the feasible set onto the non-eliminated variables.
    Nonnegativity rows of eliminated variables join the combination step;
    nonnegativity of kept variables stays implicit.  Redundant duplicates are
    pruned after each elimination; empty systems propagate as an explicit
    ``0 <= -1`` row.
    """
    eliminate = list(eliminate)
    for v in eliminate:
        if v not in poly.variables:
            raise OperatorError(f"cannot eliminate unknown variable {v!r}")
    variables = poly.variables
    rows = [PolyRow(tuple(r.coeffs), r.bound, r.tag) for r in poly.rows]
    for v in eliminate:
        idx = variables.index(v)
        nonneg = [0.0] * len(variables)
        nonneg[idx] = -1.0
        work = rows + [PolyRow(tuple(nonneg), 0.0, f"nonneg:{v}")]
        pos, neg, zero = [], [], []
        for row in work:
            c = row.coeffs[idx]
            if c > COEF_TOL:
                pos.append(row)
            elif c < -COEF_TOL:
                neg.append(row)
            else:
                zero.append(row)
        combined = list(zero)
        for rp in pos:
            cp = rp.coeffs[idx]
            ap = np.asarray(rp.coeffs) / cp
            bp = rp.bound / cp
            for rn in neg:
                cn = -rn.coeffs[idx]
                an = np.asarray(rn.coeffs) / cn
                bn = rn.bound / cn
                coeffs = ap + an
                coeffs[idx] = 0.0
                combined.append(PolyRow(tuple(coeffs), bp + bn, "fm"))
        rows = _prune_rows(combined, variables)
    kept = [v for v in variables if v not in eliminate]
    kept_idx = [variables.index(v) for v in kept]
    out_rows = [
        PolyRow(tuple(np.asarray(r.coeffs)[kept_idx]), r.bound, r.tag) for r in rows
    ]
    out_rows = _prune_rows(out_rows, tuple(kept)) if out_rows else out_rows
    return RatePolytope(tuple(kept), out_rows, {"eliminated": tuple(eliminate)})


def convex_hull_2d(points):
    """Monotone-chain hull, counterclockwise, without the closing repeat."""
    pts = sorted(set((round(float(x), 12), round(float(y), 12)) for x, y in points))
    if len(pts) <= 2:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower, upper = [], []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def point_in_hull_2d(point, hull, tol=1e-9):
    """Membership in the convex polygon given as a counterclockwise hull."""
    if len(hull) == 0:
        return False
    if len(hull) == 1:
        return abs(point[0] - hull[0][0]) <= tol and abs(point[1] - hull[0][1]) <= tol
    if len(hull) == 2:
        (x1, y1), (x2, y2) = hull
        cross = (x2 - x1) * (point[1] - y1) - (y2 - y1) * (point[0] - x1)
        if abs(cross) > tol * (1 + abs(x2 - x1) + abs(y2 - y1)):
            return False
        dot = (point[0] - x1) * (x2 - x1) + (point[1] - y1) * (y2 - y1)
        return -tol <= dot <= (x2 - x1) ** 2 + (y2 - y1) ** 2 + tol
    for i in range(len(hull)):
        ax, ay = hull[i]
        bx, by = hull[(i + 1) % len(hull)]
        cross = (bx - ax) * (point[1] - ay) - (by - ay) * (point[0] - ax)
        if cross < -tol * (1 + abs(bx - ax) + abs(by - ay)):
            return False
    return True


def qubit_grid_beta(rho, sigma, eps, n_theta=1000, n_phi=1000):
    """Brute force over qubit tests L = V diag(l1, l2) V^dagger on a dense grid.

    For each of ~10^6 Bloch orientations the admissible (l1, l2) box cut by
    the type-I constraint is a polygon; its corners are enumerated directly
    and the cheapest feasible corner test is kept.  Independent of the
    production solver: no spectral threshold construction is used.
    """
    target = 1.0 - eps
    thetas = np.linspace(0.0, math.pi, n_theta)
    phis = np.linspace(0.0, 2.0 * math.pi, n_phi, endpoint=False)
    tt, pp = np.meshgrid(thetas, phis, indexing="ij")
    c, s = np.cos(tt / 2), np.sin(tt / 2)
    e = np.exp(1j * pp)
    v1 = np.stack([c, e * s], axis=-1)
    v2 = np.stack([-np.conj(e) * s, c], axis=-1)

    def weight(v, m):
        return np.real(np.einsum("...i,ij,...j->...", v.conj(), m, v))

    a1, a2 = weight(v1, rho), weight(v2, rho)
    b1, b2 = weight(v1, sigma), weight(v2, sigma)
    best = np.full(a1.shape, np.inf)
    tiny = 1e-15

    def consider(l1, l2):
        nonlocal best
        ok = (
            (l1 >= -tiny) & (l1 <= 1 + tiny) & (l2 >= -tiny) & (l2 <= 1 + tiny)
            & (l1 * a1 + l2 * a2 >= target - 1e-12)
        )
        cost = l1 * b1 + l2 * b2
        best = np.where(ok, np.minimum(best, cost), best)

    ones = np.ones_like(a1)
    consider(ones, ones)
    with np.errstate(divide="ignore", invalid="ignore"):
        consider(ones, np.clip((target - a1) / np.where(a2 > tiny, a2, np.nan), 0.0, 1.0))
        consider(np.clip((target - a2) / np.where(a1 > tiny, a1, np.nan), 0.0, 1.0), ones)
        consider(np.clip(target / np.where(a1 > tiny, a1, np.nan), 0.0, 1.0), 0.0 * ones)
        consider(0.0 * ones, np.clip(target / np.where(a2 > tiny, a2, np.nan), 0.0, 1.0))
    return float(np.min(best))


def dh_dual(rho, sigma, eps, steps=120):
    """Maximum of the dual ``g(mu) = mu (1 - eps) - Tr(mu rho - sigma)_+`` over ``mu >= 0``.

    Returns ``(max g, probes)`` with every ``(mu, g(mu))`` evaluated.  Each
    ``g(mu)`` is a lower bound on the type-II error beta (weak duality), and
    the maximum equals beta.  ``g`` is concave: ``mu`` doubles from 1 while
    ``g`` grows, then a golden-section search narrows the last bracket.
    Only dense ``eigvalsh`` of ``mu rho - sigma`` is used.
    """
    rho, sigma = np.asarray(rho, dtype=complex), np.asarray(sigma, dtype=complex)
    probes = []

    def g(mu):
        w = np.linalg.eigvalsh(mu * rho - sigma)
        value = mu * (1.0 - eps) - float(w[w > 0.0].sum())
        probes.append((mu, value))
        return value

    lo, mid, g_mid = 0.0, 1.0, g(1.0)
    if g_mid <= g(0.0):
        lo, hi = 0.0, 1.0
    else:
        hi, g_hi = 2.0, g(2.0)
        while g_hi > g_mid and hi < 2.0**200:
            lo, mid, g_mid = mid, hi, g_hi
            hi, g_hi = 2.0 * hi, g(2.0 * hi)
    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    x1, x2 = hi - ratio * (hi - lo), lo + ratio * (hi - lo)
    g1, g2 = g(x1), g(x2)
    for _ in range(steps):
        if g1 < g2:
            lo, x1, g1 = x1, x2, g2
            x2 = lo + ratio * (hi - lo)
            g2 = g(x2)
        else:
            hi, x2, g2 = x2, x1, g1
            x1 = hi - ratio * (hi - lo)
            g1 = g(x1)
    return max(value for _, value in probes), probes


def bisection_beta(rho, sigma, eps):
    """Type-II error of the optimal threshold test by fixed-width bisection.

    The threshold test L = P_+(t) + c P_0(t) of ``rho - t sigma`` on the whole
    matrix, with t found by bisecting [0, t_hi] down to ``BISECT_WIDTH``: no
    block stacks and no breakpoints.  Returns 0 when rho's weight on sigma's
    kernel meets the constraint; raises ``ConvergenceError`` as the solver does.
    """
    a, b = np.asarray(rho, dtype=complex), np.asarray(sigma, dtype=complex)
    target = 1.0 - eps

    def weights(m, v):
        return np.real((v.conj() * (m @ v)).sum(axis=-2))

    ws, vs = np.linalg.eigh(b)
    sig_norm = float(max(ws.max(), 0.0))
    if float(weights(a, vs)[ws <= EIG_CLAMP].sum()) >= target - KERNEL_MASS_SLACK:
        return 0.0
    scale = np.where(ws > EIG_CLAMP, np.maximum(ws, EIG_CLAMP) ** -0.5, 0.0)
    inv_half = vs * scale
    lam_max = float(np.linalg.eigvalsh(inv_half.conj().T @ a @ inv_half).max())

    ab = np.stack([a, b])

    def probe(t, band):
        w, v = np.linalg.eigh(a - t * b)
        masks = np.stack([w > band, np.abs(w) <= band], axis=-1)
        (a_pos, a_zer), (b_pos, b_zer) = weights(ab, v) @ masks
        return float(a_pos), float(a_zer), float(b_pos), float(b_zer)

    def finish(a_pos, a_zer, b_pos, b_zer):
        c = 0.0 if a_zer <= 0.0 else min(1.0, max(0.0, (target - a_pos) / a_zer))
        return b_pos + c * b_zer

    iters = 0
    hi = max(lam_max, 0.0) + 1.0
    while iters < _MAX_ITER:
        iters += 1
        a_pos, a_zer, *_ = probe(hi, PROBE_BAND * (1.0 + hi))
        if a_pos < target:
            break
        hi *= 2.0
    else:
        raise ConvergenceError(f"could not bracket the threshold test (t up to {hi:.6g}, eps={eps})")

    lo = 0.0
    width_goal = BISECT_WIDTH * max(1.0, hi)
    while iters < _MAX_ITER and hi - lo > width_goal:
        iters += 1
        mid = 0.5 * (lo + hi)
        a_pos, a_zer, b_pos, b_zer = probe(mid, PROBE_BAND * (1.0 + mid))
        if a_pos > target:
            lo = mid
        elif a_pos + a_zer < target:
            hi = mid
        else:
            return finish(a_pos, a_zer, b_pos, b_zer)
    if hi - lo > width_goal:
        raise ConvergenceError(
            f"no convergence after {_MAX_ITER} iterations "
            f"(t in [{lo:.6g}, {hi:.6g}], eps={eps}); degenerate spectrum suspected"
        )
    mid = 0.5 * (lo + hi)
    band = 2.0 * (hi - lo) * (sig_norm + 1.0) + BAND_FLOOR
    a_pos, a_zer, b_pos, b_zer = probe(mid, band)
    if a_pos > target + TYPE_I_TOL or a_pos + a_zer < target - TYPE_I_TOL:
        raise ConvergenceError(
            f"straddle detection failed at t={mid:.6g}, eps={eps} "
            f"(type-I window [{a_pos:.12g}, {a_pos + a_zer:.12g}], target {target:.12g})"
        )
    return finish(a_pos, a_zer, b_pos, b_zer)


def threshold_search_generator(target, eps, breaks, f_lo, sig_norm, certified):
    """One row's threshold search as a generator: the per-row reference for ``entropic._threshold_betas``.

    It yields each probe ``(t, band)`` and is sent back that probe's weights
    ``(a_pos, a_zer, b_pos, b_zer)``; it returns how it ended and beta.
    ``breaks`` are the row's sorted distinct positive breakpoints, ``f_lo``
    is Tr rho - target and ``sig_norm`` is sigma's largest eigenvalue.  A
    ``certified`` row's first probe is taken to leave all four weights exact
    zeros: it is not yielded but counts against ``_MAX_ITER``.  The ends are
    ``"bracket"`` (while growing the bracket), ``"jump"`` (on a breakpoint
    probe), ``"secant"`` (on an Illinois or bisection probe), ``"band"`` (on
    the first final-band probe) and ``"bisect"`` (after the final band
    bisected on).  ``_MAX_ITER`` and the tolerances are read at each call.
    """
    max_iter = entropic._MAX_ITER

    def finish(a_pos, a_zer, b_pos, b_zer):
        c = 0.0 if a_zer <= 0.0 else min(1.0, max(0.0, (target - a_pos) / a_zer))
        return b_pos + c * b_zer

    lo, hi = 0.0, (breaks[-1] if breaks else 0.0) + 1.0
    iters = 0
    while iters < max_iter:
        iters += 1
        a_pos, a_zer, b_pos, b_zer = (0.0, 0.0, 0.0, 0.0) if certified else (yield hi, PROBE_BAND * (1.0 + hi))
        if a_pos + a_zer < target:
            f_hi = a_pos + a_zer - target
            break
        if a_pos <= target:
            return "bracket", finish(a_pos, a_zer, b_pos, b_zer)
        lo, f_lo = hi, a_pos - target
        hi *= 2.0
    else:
        raise ConvergenceError(f"could not bracket the threshold test (t up to {hi:.6g}, eps={eps})")

    width_goal = BISECT_WIDTH * max(1.0, hi)
    side = 0  # the end the previous secant step moved: -1 lo, +1 hi
    while iters < max_iter and hi - lo > width_goal:
        iters += 1
        first, stop = bisect.bisect_right(breaks, lo), bisect.bisect_left(breaks, hi)
        secant = first == stop
        if not secant:
            t = breaks[(first + stop) // 2]
        else:
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
            return "secant" if secant else "jump", finish(a_pos, a_zer, b_pos, b_zer)
    if hi - lo > width_goal:
        raise ConvergenceError(
            f"no convergence after {max_iter} iterations "
            f"(t in [{lo:.6g}, {hi:.6g}], eps={eps}); degenerate spectrum suspected"
        )
    mid, end = 0.5 * (lo + hi), "band"
    a_pos, a_zer, b_pos, b_zer = yield mid, 2.0 * (hi - lo) * (sig_norm + 1.0) + BAND_FLOOR
    while a_pos > target + TYPE_I_TOL or a_pos + a_zer < target - TYPE_I_TOL:
        lo, hi = (mid, hi) if a_pos > target else (lo, mid)
        if iters >= max_iter or not lo < 0.5 * (lo + hi) < hi:
            raise ConvergenceError(
                f"straddle detection failed at t={mid:.6g}, eps={eps} "
                f"(type-I window [{a_pos:.12g}, {a_pos + a_zer:.12g}], target {target:.12g})"
            )
        iters += 1
        mid, end = 0.5 * (lo + hi), "bisect"
        a_pos, a_zer, b_pos, b_zer = yield mid, 2.0 * (hi - lo) * (sig_norm + 1.0) + BAND_FLOOR
    return end, finish(a_pos, a_zer, b_pos, b_zer)


def threshold_betas_generators(a, b, target, eps, rows, ends=None):
    """``entropic._threshold_betas`` with one generator per row (:func:`threshold_search_generator`).

    The set-up is the solver's, through its own helpers; a loop then
    ``send``s each open row its probe sums and gathers the next probes one
    by one, and makes one ``eigh`` per step over the open rows.  The first
    failure by (probes made, row) is raised, a certified row counting one
    probe more.  Given ``ends``, each row's ``(certified, end)`` goes into
    it under its index, ``end`` ``"kernel"`` for a row that sigma's kernel
    settles before any search.
    """
    n_rows, k = a.shape[:2]
    live = entropic._live_blocks(a, b)
    ab = np.stack([entropic._gather(a, live), entropic._gather(b, live)], axis=1)
    at = np.repeat(np.arange(n_rows), k) if live is None else np.nonzero(live)[0]
    ws, vs = entropic._eigh(ab[:, 1])
    betas = np.zeros(n_rows)
    mass = entropic._kernel_mass(entropic._scatter(ws, live, (n_rows, k)),
                                 entropic._scatter(entropic._weights(ab[:, 0], vs), live, (n_rows, k)))
    searching = mass < target - KERNEL_MASS_SLACK
    if ends is not None:
        ends.update((int(i), (False, "kernel")) for i in np.flatnonzero(~searching))
    if not searching.any():
        return betas
    if not searching.all():
        (ab, ws, vs), at, live = entropic._keep_rows(searching, at, live, ab, ws, vs)
    searching = np.flatnonzero(searching)
    n_rows = len(searching)
    lam = entropic._scatter(entropic._support_spectrum(ab[:, 0], ws, vs), live, (n_rows, k)).reshape(n_rows, -1)
    lam = np.sort(np.where(lam > 0.0, lam, math.inf), axis=1)
    lam[:, 1:][lam[:, 1:] == lam[:, :-1]] = math.inf
    lam = np.sort(lam, axis=1)
    f_lo = np.trace(a, axis1=-2, axis2=-1)[searching].real.sum(axis=1) - target
    sig_norm = np.maximum(entropic._scatter(ws, live, (n_rows, k)).reshape(n_rows, -1).max(axis=1), 0.0)
    sig_least = np.full(n_rows, math.inf)
    np.minimum.at(sig_least, at, ws.min(axis=1))
    hi = np.where(np.isfinite(lam), lam, 0.0).max(axis=1) + 1.0
    certified = (sig_least > entropic.BRACKET_MARGIN * PROBE_BAND * (1.0 + hi)).tolist()
    searches = [
        threshold_search_generator(target, eps, breaks[:count], f, norm, skip)
        for breaks, count, f, norm, skip in zip(lam.tolist(), np.isfinite(lam).sum(axis=1).tolist(),
                                                f_lo.tolist(), sig_norm.tolist(), certified)
    ]
    probes = [None] * n_rows
    open_rows = np.arange(n_rows)
    sent = [None] * n_rows
    failed = None
    for step in itertools.count():
        still = np.ones(len(open_rows), dtype=bool)
        for place, (i, row_sums) in enumerate(zip(open_rows.tolist(), sent)):
            try:
                probes[i] = searches[i].send(row_sums)
            except StopIteration as done:
                end, betas[searching[i]] = done.value
                if ends is not None:
                    ends[int(searching[i])] = (certified[i], end)
                still[place] = False
            except ConvergenceError as exc:
                key = (step + certified[i], i, str(exc))
                failed = key if failed is None else min(failed, key)
                still[place] = False
        if not still.all():
            (ab,), at, live = entropic._keep_rows(still, at, live, ab)
            open_rows = open_rows[still]
        if failed is not None and (failed[0] <= step or not open_rows.size):
            raise ConvergenceError(failed[2], int(rows[searching[failed[1]]]))
        if not open_rows.size:
            return betas
        shape = (len(open_rows), k)
        t, band = np.array([probes[i] for i in open_rows.tolist()]).T
        w, v = entropic._eigh(ab[:, 0] - t[at, None, None] * ab[:, 1])
        w = entropic._scatter(w, live, shape)
        band = band[:, None, None]
        masks = np.stack([w > band, np.abs(w) <= band], axis=-1).reshape(len(open_rows), -1, 2)
        weights = entropic._scatter(entropic._weights(ab, v[:, None]), live, shape)
        sent = (weights.transpose(0, 2, 1, 3).reshape(len(open_rows), 2, -1) @ masks).reshape(-1, 4).tolist()


def diagonal_scan_pairwise(p, q, eps, step=1e-4):
    """Diagonal-scan smoothing, one ordered (donor, recipient) pair at a time.

    The same grid and arithmetic as ``entropic._diagonal_scan``, so the two
    must agree exactly; the largest ratio outside the pair is taken over an
    explicit deletion of both atoms.
    """
    p = np.maximum(p, 0.0)
    best = 0.0
    for pi, qi in zip(p, q):
        if qi > 0.0:
            best = max(best, pi / qi)
        elif pi > EIG_CLAMP:
            best = math.inf
            break
    d = len(p)
    with np.errstate(divide="ignore"):
        base = np.where(q > 0.0, p / np.maximum(q, 1e-300), math.inf)
        base = np.where((q <= 0.0) & (p <= EIG_CLAMP), 0.0, base)
    for i in range(d):
        if p[i] <= 0.0:
            continue
        ms = np.append(np.arange(step, p[i], step), p[i])
        for j in range(d):
            if j == i:
                continue
            rest = 1.0 - p[i] - p[j]
            f_root = rest + np.sqrt((p[i] - ms).clip(min=0.0) * p[i]) + np.sqrt((p[j] + ms) * p[j])
            dist = np.sqrt(np.maximum(0.0, 1.0 - f_root * f_root))
            ok = dist <= eps + 1e-12
            if not np.any(ok):
                continue
            m_ok = ms[ok]
            rest_max = float(np.max(np.delete(base, [i, j]))) if d > 2 else 0.0
            pi_new = (p[i] - m_ok).clip(min=0.0)
            pj_new = p[j] + m_ok
            ri = pi_new / q[i] if q[i] > 0.0 else np.where(pi_new > EIG_CLAMP, math.inf, 0.0)
            rj = pj_new / q[j] if q[j] > 0.0 else np.where(pj_new > EIG_CLAMP, math.inf, 0.0)
            cand = np.maximum(np.maximum(ri, rj), rest_max)
            best = min(best, float(np.min(cand)))
    if best <= 0.0:
        return -math.inf
    return math.log2(best) if best != math.inf else math.inf


def density_check_one(m, label=None):
    """The density-operator checks on one matrix, in order: finite, Hermitian, PSD, unit trace."""
    m = np.asarray(m, dtype=complex)
    who = f"state {label!r}: " if label else ""
    if not np.all(np.isfinite(m)):
        raise OperatorError(f"{who}non-finite entries")
    herm = float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0
    if herm > HERM_TOL:
        raise OperatorError(f"{who}hermiticity residual {herm:.1e}")
    w = np.linalg.eigvalsh(m)
    if w.size and w[0] < -PSD_TOL:
        raise OperatorError(f"{who}negative eigenvalue {w[0]:.1e}")
    tr_dev = abs(float(np.trace(m).real) - 1.0)
    if tr_dev > TRACE_TOL:
        raise OperatorError(f"{who}trace deviation {tr_dev:.1e}")


def channel_states_check(inputs, outputs, states):
    """A channel's states one pair at a time: presence, dimension, then the density checks."""
    d = math.prod(outputs[name] for name in ("Y1", "Y2", "Z"))
    for x1 in inputs["X1"]:
        for x2 in inputs["X2"]:
            if (x1, x2) not in states:
                raise OperatorError(f"state for input pair {x1!r},{x2!r} missing")
            m = states[(x1, x2)]
            if m.shape != (d, d):
                raise OperatorError(f"state {x1!r},{x2!r}: dimension {m.shape[0]} != expected {d}")
            density_check_one(m, f"{x1},{x2}")


def cq_points_check(conditionals, probs):
    """A grid's ``(G, *alphabet_sizes)`` points one at a time, then each live conditional in turn."""
    for point in probs:
        if np.any(point < -PROB_TOL):
            raise OperatorError(f"negative probability {point.min():.1e}")
        total = float(point.sum())
        if abs(total - 1.0) > PROB_TOL:
            raise OperatorError(f"probabilities sum to {total!r}, not 1")
    live = np.any(probs > PROB_TOL, axis=0)
    flat_c = conditionals.reshape(-1, *conditionals.shape[-2:])
    for k in np.flatnonzero(live):
        density_check_one(flat_c[k], f"conditional {k}")


def embed_cq(state):
    """Dense density matrix of a whole CQState, classical registers as diagonal factors.

    The layout lists the classical registers, then the quantum ones, each in
    the state's own order.
    """
    conds = state.conds
    dq = conds.quantum_layout.total_dim
    flat_p = state.probs.reshape(-1)
    flat_c = conds.conditionals.reshape(-1, dq, dq)
    out = np.zeros((flat_p.size * dq, flat_p.size * dq), dtype=complex)
    for k in range(flat_p.size):
        if flat_p[k] > 0.0:
            out[k * dq:(k + 1) * dq, k * dq:(k + 1) * dq] = flat_p[k] * flat_c[k]
    layout = RegisterLayout(conds.classical_names + conds.quantum_layout.names,
                            conds.alphabet_sizes + conds.quantum_layout.dims)
    return out, layout


def condition_state(state, register, value):
    """The state of the other registers given ``register == value``, renormalized."""
    conds = state.conds
    ax = conds.classical_names.index(register)
    probs = np.take(state.probs, value, axis=ax)
    names = tuple(n for n in conds.classical_names if n != register)
    sizes = tuple(s for n, s in zip(conds.classical_names, conds.alphabet_sizes) if n != register)
    return CQState(CQConditionals(names, sizes, conds.quantum_layout, np.take(conds.conditionals, value, axis=ax)),
                   probs / probs.sum())


def dense_joint_and_product(state, part_a, part_b):
    """Joint and product operators in the register order ``(*part_a, *part_b)``.

    Embeds the whole state densely, moves the named registers to the front,
    traces the rest out and takes the Kronecker product of the two sides'
    marginals.
    """
    part_a, part_b = list(part_a), list(part_b)
    op, layout = embed_cq(state)
    dropped = [r for r in layout.names if r not in part_a + part_b]
    op, layout = permute_registers_matrix(op, layout, part_a + part_b + dropped)
    op = partial_trace_matrix(op, layout, part_a + part_b)
    layout = layout.subset(part_a + part_b)
    op_a = partial_trace_matrix(op, layout, part_a)
    op_b = partial_trace_matrix(op, layout, part_b)
    return op, np.kron(op_a, op_b)


def t1_distributions(channel, resolution, q_size):
    """The time-shared sweep grid, one distribution per point, in sweep order."""
    n1, n2 = len(channel.inputs["X1"]), len(channel.inputs["X2"])
    q_grid = _simplex_grid(q_size, resolution) if q_size > 1 else [np.array([1.0])]
    c1_grid = _simplex_grid(n1, resolution)
    c2_grid = _simplex_grid(n2, resolution)
    per_q = list(itertools.product(c1_grid, c2_grid))
    for pq in q_grid:
        for combo in itertools.product(per_q, repeat=q_size):
            yield InputDistribution(
                kind="t1",
                q=pq,
                x1_given_q=np.stack([c[0] for c in combo]),
                x2_given_q=np.stack([c[1] for c in combo]),
            )


def hk_distributions(channel, resolution):
    """The split-message sweep grid, one distribution per point, in sweep order."""
    grids = [
        _simplex_grid(len(channel.part_alphabet(reg)), resolution)
        for reg in ("X10", "X11", "X20", "X22")
    ]
    for combo in itertools.product(*grids):
        yield InputDistribution(
            kind="hk",
            marginals={reg: vec for reg, vec in zip(("X10", "X11", "X20", "X22"), combo)},
        )


def max_min(masses, values, eps):
    """The conditional max-min of one point, dropping one atom at a time.

    Atoms go in stable value order while the kept mass, starting from
    ``masses.sum()``, stays at least ``1 - eps^2`` within ``KEPT_MASS_SLACK``;
    the value of the last atom reached is the answer.
    """
    threshold = 1.0 - eps * eps
    order = np.argsort(values, kind="stable")
    masses_sorted = masses[order]
    values_sorted = values[order]
    kept = float(masses.sum())
    best = values_sorted[0]
    for k in range(len(values_sorted)):
        if kept >= threshold - KEPT_MASS_SLACK:
            best = values_sorted[k]
        else:
            break
        kept -= masses_sorted[k]
    return float(best)


def one_point_terms(state, params, smoothing="none"):
    """``term(kind, part_a, part_b, cond)`` of one control state, read through the public helpers."""
    cache = {}

    def term(kind, part_a, part_b, cond):
        key = (kind, tuple(part_a), tuple(part_b), cond)
        if key not in cache:
            a, b = list(part_a), list(part_b)
            if kind == "ht":
                cache[key] = (cond_smooth_ht_mi(state, a, b, cond, params.eps) if cond
                              else ht_mutual_info(state, a, b, params.eps))
            else:
                cache[key] = (cond_smooth_max_mi(state, a, b, cond, params.eta, smoothing) if cond
                              else smooth_max_mutual_info(state, a, b, params.eta, smoothing))
        return cache[key]

    return term


def _assembled_bounds(term, table, leaks, roles, penalty, cond=None, receivers=()):
    """Bounds of one region table's rows, one row and one term at a time.

    A leaked role's ``D_max`` term enters with minus its weight; with
    ``receivers`` a row binds ``y`` to the receiver of the smaller first term.
    """

    def value(kind, grouping, row_roles):
        part_a, part_b = grouping.split(":")
        return term(kind, [row_roles[x] for x in part_a], [row_roles[x] for x in part_b], cond)

    leaked = {x: value("max", g, roles) for x, g in (leaks or {}).items()}
    bounds = []
    for _, _, groupings, leakage in table:
        row_roles = roles
        if receivers:
            firsts = [value("ht", groupings[0], dict(roles, y=y)) for y in receivers]
            row_roles = dict(roles, y=receivers[int(np.argmin(firsts))])
        terms = [(1.0, value("ht", g, row_roles)) for g in groupings]
        n_l = 0
        for token in (leakage.split() if leaks is not None else ()):
            weight = int(token[:-1] or 1)
            terms.append((-float(weight), leaked[token[-1]]))
            n_l += weight
        bounds.append(float(sum(c * v for c, v in terms) + penalty(n_l, len(groupings))))
    return bounds


def region_bounds(term, theorem, params, penalties):
    """Row bounds of ``theorem``'s region at one point, whose terms ``term`` reads (:func:`one_point_terms`).

    The tables and their row constants are ``regions``'; the assembly is row
    by row, in the order each row lists its terms, with Python floats.
    """
    if theorem == "t1":
        return _assembled_bounds(term, regions._TIME_SHARED, regions._TIME_SHARED_LEAKS, regions._TIME_SHARED_ROLES,
                                 regions._secrecy_penalties(params, penalties), "Q", ("Y1", "Y2"))
    if theorem == "t2":
        penalty = regions._split_penalties(params, penalties)
        return [bound for roles in (dict(regions._SPLIT_ROLES, y="Y1"), dict(regions._MIRRORED_ROLES, y="Y2"))
                for bound in _assembled_bounds(term, regions._SIDE_INFORMATION, regions._SIDE_INFORMATION_LEAKS,
                                               roles, penalty)]
    if theorem == "conjecture":
        return _assembled_bounds(term, regions._SPLIT_MESSAGE, regions._SPLIT_MESSAGE_LEAKS, regions._BOTH_RECEIVERS,
                                 regions._split_penalties(params, penalties))
    return _assembled_bounds(term, regions._SPLIT_MESSAGE, None, regions._BOTH_RECEIVERS,
                             regions._hk_penalties(params, penalties))


def nc_small_unsplit() -> ChannelSpec:
    """The channel of ``tests/data/nc_small_unsplit.json``: binary inputs onto qubit triples (Y1, Y2, Z).

    Its four output states, in input order ``00, 01, 10, 11``, are
    ``rand_density(rng, 8, full_rank=False)`` from ``np.random.default_rng(5)``:
    ``G G^dagger``, normalized, with no shift towards full rank; no two of them commute.
    """
    rng = np.random.default_rng(5)
    states = {(x1, x2): rand_density(rng, 8, full_rank=False) for x1 in "01" for x2 in "01"}
    return ChannelSpec("nc-small-unsplit", {"X1": ("0", "1"), "X2": ("0", "1")}, {"Y1": 2, "Y2": 2, "Z": 2}, states)


def _random_density(rng, d, rank):
    """A random density operator of ``rank`` on ``C^d``: ``G G^dagger``, normalized, for a complex Gaussian ``G``."""
    g = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
    m = g @ g.conj().T
    return m / np.trace(m).real


@st.composite
def drawn_channels(draw, split: bool):
    """Channels onto qubit triples (Y1, Y2, Z) whose output states, one of a drawn rank per input pair, do
    not commute; a split channel has binary common and personal parts per sender, an unsplit one binary
    inputs."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rank = draw(st.sampled_from([1, 2, 8]))
    symbols = ("00", "01", "10", "11") if split else ("0", "1")
    states = {(x1, x2): _random_density(rng, 8, rank) for x1 in symbols for x2 in symbols}
    splits = None
    if split:
        part = SplitSpec((("0", "1"), ("0", "1")), {(c, p): c + p for c in "01" for p in "01"})
        splits = {"X1": part, "X2": part}
    return ChannelSpec(f"drawn-rank-{rank}", {"X1": symbols, "X2": symbols}, {"Y1": 2, "Y2": 2, "Z": 2}, states,
                       splits)


@st.composite
def drawn_distributions(draw, channel):
    """An input distribution of ``channel``'s form, every probability at least 0.05: split marginals, or a
    time-shared one over one or two values of Q."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def pmf(*shape):
        return 0.05 + (1 - 0.05 * shape[-1]) * rng.dirichlet(np.ones(shape[-1]), size=shape[:-1])

    if channel.has_splits():
        return InputDistribution("hk", marginals={reg: pmf(2) for reg in HK_REGISTERS})
    q_size = draw(st.sampled_from([1, 2]))
    return InputDistribution("t1", q=pmf(q_size), x1_given_q=pmf(q_size, 2), x2_given_q=pmf(q_size, 2))


_PAULIS = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


@st.composite
def qubit_maps(draw):
    """Kraus operators of a CPTP map on one qubit: a depolarizing map of drawn strength, or a random one of
    one to four Kraus operators cut from a random isometry ``C^2 -> C^2k``."""
    if draw(st.booleans()):
        p = draw(st.floats(0.1, 0.9))
        return np.concatenate([[np.sqrt(1 - 0.75 * p) * np.eye(2)], np.sqrt(p / 4) * _PAULIS])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = draw(st.integers(1, 4))
    isometry, _ = np.linalg.qr(rng.normal(size=(2 * k, 2)) + 1j * rng.normal(size=(2 * k, 2)))
    return isometry.reshape(k, 2, 2)


def degraded(channel, register: str, kraus) -> ChannelSpec:
    """``channel`` followed by the map with Kraus operators ``kraus`` on output ``register``."""
    dims = [channel.outputs[name] for name in OUTPUT_NAMES]
    where = OUTPUT_NAMES.index(register)
    states = {}
    for pair, rho in channel.states.items():
        out = np.zeros_like(rho)
        for k in kraus:
            full = np.kron(np.kron(np.eye(math.prod(dims[:where])), k), np.eye(math.prod(dims[where + 1:])))
            out += full @ rho @ full.conj().T
        states[pair] = (out + out.conj().T) / 2
    return ChannelSpec(channel.name, channel.inputs, channel.outputs, states, channel.splits)
