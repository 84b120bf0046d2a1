"""Acceptance suite: one test per criterion, each printing a PASS line.

Run as ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary lines.  All random instances are generated from fixed, printed seeds.
"""
import itertools
import math
import subprocess
import sys
import time

import numpy as np

from oneshot_secrecy.channel import (
    bundled_path,
    control_state_hk,
    load_channel,
    uniform_hk,
    uniform_t1,
)
from oneshot_secrecy.entropic import (
    ToleranceParams,
    classical_np_oracle,
    cond_smooth_ht_mi,
    cond_smooth_max_mi,
    fact_bound,
    ht_mutual_info,
    hypothesis_testing_beta,
    hypothesis_testing_divergence,
    max_relative_entropy,
    smooth_max_mutual_info,
    smooth_max_relative_entropy,
)
from oneshot_secrecy.operators import RegisterLayout, partial_trace_matrix
from oneshot_secrecy.regions import (
    PenaltyMode,
    fourier_motzkin,
    hk_nosecrecy_region,
    hk_region_via_projection,
    minimal_2d,
    theorem1_region,
    vertices_2d,
)
from oneshot_secrecy.secrecy import VACUITY_THRESHOLD, leakage_bound, randomizer_plan
from oneshot_secrecy.states import CQConditionals, CQState
from conftest import rand_density, rand_unitary
from util import (
    condition_state,
    convex_hull_2d,
    enumerate_vertices_nd,
    point_in_hull_2d,
    polytope_from_arrays,
    qubit_grid_beta,
)

SEED = 20250810
OFF = PenaltyMode("off")
PAPER = PenaltyMode("paper")


def test_criterion_01_oracle_equivalence():
    rng = np.random.default_rng(SEED)
    start = time.perf_counter()
    worst = 0.0
    cases = list(itertools.product((2, 4, 8), (0.1, 0.25, 0.5)))
    for k in range(100):
        d, eps = cases[k % len(cases)]
        p, q = rng.dirichlet(np.ones(d)), rng.dirichlet(np.ones(d))
        u = rand_unitary(rng, d)
        rho = u @ np.diag(p) @ u.conj().T
        sig = u @ np.diag(q) @ u.conj().T
        dh = hypothesis_testing_divergence(rho, sig, eps)
        _, oracle = classical_np_oracle(p, q, eps)
        worst = max(worst, abs(dh - oracle))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-6
    assert elapsed < 10.0
    print(f"\n[criterion 1] oracle equivalence on 100 commuting pairs (seed {SEED}): "
          f"PASS (max |diff| = {worst:.2e}, {elapsed:.2f} s)")


def test_criterion_02_noncommuting_brute_force():
    rng = np.random.default_rng(SEED + 1)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(10):
        rho = rand_density(rng, 2, full_rank=False)
        sig = rand_density(rng, 2, full_rank=False)
        beta = hypothesis_testing_beta(rho, sig, 0.3)
        grid = qubit_grid_beta(rho, sig, 0.3)
        assert grid >= beta - 1e-9  # grid tests are feasible, never better
        worst = max(worst, abs(grid - beta))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-3
    assert elapsed < 60.0
    print(f"[criterion 2] qubit solver vs ~10^6-test grid (seed {SEED + 1}): "
          f"PASS (max |beta diff| = {worst:.2e}, {elapsed:.1f} s)")


def test_criterion_03_fact_inequality():
    rng = np.random.default_rng(SEED + 2)
    worst = math.inf
    for _ in range(100):
        d = int(rng.choice([2, 3, 4, 6]))
        rho = rand_density(rng, d)
        sig = rand_density(rng, d)  # full rank: support condition holds
        eps = float(rng.uniform(0.05, 0.95))
        slack = fact_bound(rho, sig, eps) - hypothesis_testing_divergence(rho, sig, eps)
        worst = min(worst, slack)
    assert worst >= -1e-9
    print(f"[criterion 3] fact inequality on 100 instances (seed {SEED + 2}): "
          f"PASS (min slack = {worst:.3e})")


def test_criterion_04_data_processing():
    rng = np.random.default_rng(SEED + 3)
    worst_ht, worst_max = math.inf, math.inf
    for _ in range(100):
        da = int(rng.choice([2, 3]))
        db = int(rng.choice([2, 3]))
        layout = RegisterLayout(("A", "B"), (da, db))
        rho = rand_density(rng, da * db)
        sig = rand_density(rng, da * db)
        eps = float(rng.uniform(0.05, 0.95))
        r_a = partial_trace_matrix(rho, layout, ["A"])
        s_a = partial_trace_matrix(sig, layout, ["A"])
        worst_ht = min(
            worst_ht,
            hypothesis_testing_divergence(rho, sig, eps)
            - hypothesis_testing_divergence(r_a, s_a, eps),
        )
        worst_max = min(
            worst_max, max_relative_entropy(rho, sig) - max_relative_entropy(r_a, s_a)
        )
    assert worst_ht >= -1e-6
    assert worst_max >= -1e-9
    print(f"[criterion 4] data processing on 100 bipartite instances (seed {SEED + 3}): "
          f"PASS (min slack ht = {worst_ht:.3e}, max-div = {worst_max:.3e})")


def _diag_channel_oracle_rows():
    """Independent classical derivation of the diagonal-channel row values."""
    # joint over (x1; x2, y) for receiver Y1 (y = x1) and Y2 (y = x2)
    def divergence(receiver, part):
        joint = {}
        for x1 in (0, 1):
            for x2 in (0, 1):
                y = x1 if receiver == 1 else x2
                atom = (x1, x2, y)
                joint[atom] = joint.get(atom, 0.0) + 0.25
        atoms = [(x1, x2, y) for x1 in (0, 1) for x2 in (0, 1) for y in (0, 1)]
        p = np.array([joint.get(a, 0.0) for a in atoms])
        if part == "r1":
            pa = lambda a: a[0]
            pb = lambda a: (a[1], a[2])
        elif part == "r2":
            pa = lambda a: a[1]
            pb = lambda a: (a[0], a[2])
        else:
            pa = lambda a: (a[0], a[1])
            pb = lambda a: a[2]
        ma, mb = {}, {}
        for a, w in zip(atoms, p):
            ma[pa(a)] = ma.get(pa(a), 0.0) + w
            mb[pb(a)] = mb.get(pb(a), 0.0) + w
        q = np.array([ma[pa(a)] * mb[pb(a)] for a in atoms])
        return classical_np_oracle(p, q, 0.25)[1]

    r1 = min(divergence(1, "r1"), divergence(2, "r1"))
    rsum = min(divergence(1, "sum"), divergence(2, "sum"))
    return r1, rsum


def test_criterion_05_region_reproduction():
    channel = load_channel(bundled_path("diag_deterministic.json"))
    dist = uniform_t1(channel)
    params = ToleranceParams(eps=0.25, eps_prime=0.1, delta=0.01, delta_prime=0.2)
    poly = theorem1_region(channel, dist, params, OFF)
    oracle_r1, oracle_sum = _diag_channel_oracle_rows()
    assert abs(oracle_r1 - 0.415037) <= 1e-6
    assert abs(oracle_sum - 1.415037) <= 1e-6
    assert abs(poly.row("t1:r1").bound - oracle_r1) <= 1e-6
    assert abs(poly.row("t1:sum").bound - oracle_sum) <= 1e-6
    papered = theorem1_region(channel, dist, params, PAPER)
    enum = vertices_2d(papered)
    assert enum.degenerate and enum.vertices == [(0.0, 0.0)]
    print("[criterion 5] diagonal-channel region reproduction: PASS "
          f"(R1 {poly.row('t1:r1').bound:.6f}, sum {poly.row('t1:sum').bound:.6f}, "
          "paper-penalty region degenerate at origin)")


def test_criterion_06_fourier_motzkin():
    rng = np.random.default_rng(SEED + 4)
    variables = ("R1", "R2", "W1", "W2")
    for trial in range(50):
        a = rng.integers(-3, 4, size=(10, 4)).astype(float)
        b = rng.integers(0, 6, size=10).astype(float)
        a = np.vstack([a, np.eye(4)])
        b = np.concatenate([b, np.full(4, 5.0)])
        poly = polytope_from_arrays(variables, list(zip(a.tolist(), b.tolist())))
        projected = fourier_motzkin(poly, ["W1", "W2"])
        verts = enumerate_vertices_nd(a, b)
        pts = verts[:, :2]
        for pt in pts:
            assert projected.feasible(pt, tol=1e-9), (trial, pt)
        hull = convex_hull_2d(pts)
        for v in vertices_2d(projected).vertices:
            assert point_in_hull_2d(v, hull, tol=1e-9), (trial, v)
    xor = load_channel(bundled_path("xor_split.json"))
    dist = uniform_hk(xor)
    printed = minimal_2d(hk_nosecrecy_region(xor, dist, 0.25, OFF))
    projected = minimal_2d(hk_region_via_projection(xor, dist, 0.25, OFF))

    def canon(poly):
        rows = []
        for r in poly.rows:
            scale = max(abs(c) for c in r.coeffs)
            rows.append((tuple(round(c / scale, 9) for c in r.coeffs), round(r.bound / scale, 6)))
        return sorted(rows)

    assert canon(printed) == canon(projected)
    v1 = np.array(vertices_2d(printed).vertices)
    v2 = np.array(vertices_2d(projected).vertices)
    assert v1.shape == v2.shape and np.max(np.abs(v1 - v2)) <= 1e-9
    print(f"[criterion 6] projection vs vertex oracle on 50 systems (seed {SEED + 4}) and "
          f"split-region row-set reproduction: PASS ({len(canon(printed))} irredundant rows)")


def test_criterion_07_trivial_eavesdropper_collapse():
    from oneshot_secrecy.regions import conjecture_region, theorem2_region

    params = ToleranceParams(eps=0.25, eps_prime=0.1, delta=0.01, delta_prime=0.2)
    worst = 0.0
    for name, dist_name in (
        ("xor_split.json", "uniform_hk.json"),
        ("diag_deterministic_split.json", "uniform_hk_degenerate.json"),
    ):
        channel = load_channel(bundled_path(name))
        dist = uniform_hk(channel)
        conj = conjecture_region(channel, dist, params, OFF)
        hk = hk_nosecrecy_region(channel, dist, 0.25, OFF)
        for rc, rh in zip(conj.rows, hk.rows):
            mi = sum(t.coefficient * t.value for t in rc.terms if t.kind == "ht")
            worst = max(worst, abs(mi - rh.mi_part()))
            leak = sum(abs(t.value) for t in rc.terms if t.kind == "max")
            worst = max(worst, leak)
        t2 = theorem2_region(channel, dist, params, OFF)
        state = control_state_hk(channel, dist)
        for row in t2.rows:
            redo = sum(
                t.coefficient * ht_mutual_info(state, list(t.part_a), list(t.part_b), 0.25)
                for t in row.terms if t.kind == "ht"
            )
            worst = max(worst, abs(row.bound - redo))
    assert worst <= 1e-6
    print(f"[criterion 7] trivial-eavesdropper collapse on bundled channels: PASS "
          f"(max deviation {worst:.2e})")


def test_criterion_08_randomizer_closed_form():
    xor = load_channel(bundled_path("xor_split.json"))
    state = control_state_hk(xor, uniform_hk(xor))
    params = ToleranceParams(eps=0.25, eps_prime=0.1, delta_prime=0.2)
    plan = randomizer_plan(state, params)
    for value in (plan.log_k10, plan.log_k20, plan.log_k11, plan.log_k22):
        assert abs(value - 12.1312) <= 1e-4
    lb = leakage_bound(0.2)
    assert abs(lb.value - 49.07) <= 0.01 and lb.vacuous
    assert not leakage_bound(VACUITY_THRESHOLD * (1 - 1e-9)).vacuous
    assert leakage_bound(VACUITY_THRESHOLD * (1 + 1e-9)).vacuous
    print(f"[criterion 8] randomizer closed form: PASS (block size {plan.log_k10:.6f} bits, "
          f"leakage bound {lb.value:.4f}, vacuity threshold (1/30)^8)")


def _subset_search(masses, values, eps):
    """Exhaustive max-min over support subsets with kept mass >= 1 - eps^2."""
    n = len(masses)
    best = None
    for mask in range(1, 1 << n):
        subset = [i for i in range(n) if mask >> i & 1]
        if sum(masses[i] for i in subset) >= 1.0 - eps * eps - 1e-9:
            value = min(values[i] for i in subset)
            best = value if best is None else max(best, value)
    return best


def test_criterion_09_smoothing():
    rng = np.random.default_rng(SEED + 5)
    layout = RegisterLayout(("Y",), (1,))
    checked = 0
    for size in (2, 3, 5, 8):
        for _ in range(3):
            pz = rng.dirichlet(np.ones(size))
            probs = np.zeros((size, 2, 2))
            for z in range(size):
                inner = rng.dirichlet(np.ones(4)).reshape(2, 2)
                probs[z] = pz[z] * inner
            conds = np.ones(probs.shape + (1, 1), dtype=complex)
            state = CQState(CQConditionals(("Z", "A", "B"), probs.shape, layout, conds), probs)
            eps = float(rng.uniform(0.1, 0.6))
            for fn, per in (
                (cond_smooth_ht_mi, lambda s: ht_mutual_info(s, ["A"], ["B"], eps)),
                (cond_smooth_max_mi, lambda s: smooth_max_mutual_info(s, ["A"], ["B"], eps)),
            ):
                support = [z for z in range(size) if pz[z] > 1e-12]
                values = [per(condition_state(state, "Z", z)) for z in support]
                masses = [pz[z] for z in support]
                expected = _subset_search(masses, values, eps)
                got = fn(state, ["A"], ["B"], "Z", eps)
                assert got == expected, (size, eps, got, expected)
                checked += 1
    rho = np.diag([0.7, 0.2, 0.1]).astype(complex)
    sig = np.diag([0.5, 0.25, 0.25]).astype(complex)
    for strategy in ("none", "diagonal-scan"):
        tiny = smooth_max_relative_entropy(rho, sig, 1e-9, strategy)
        assert abs(tiny - max_relative_entropy(rho, sig)) <= 1e-9
    print(f"[criterion 9] conditional smoothing vs exhaustive subsets "
          f"({checked} exact matches, seed {SEED + 5}) and vanishing-ball limit: PASS")


def test_criterion_10_sweep_determinism(tmp_path):
    outputs = []
    for run in ("first", "second"):
        csv = tmp_path / f"frontier_{run}.csv"
        res = subprocess.run(
            [sys.executable, "-m", "oneshot_secrecy", "sweep",
             "--channel", str(bundled_path("diag_deterministic.json")),
             "--theorem", "t1", "--grid", "3", "--eps", "0.25",
             "--penalties", "off", "--csv", str(csv)],
            capture_output=True, text=True,
        )
        assert res.returncode == 0, res.stderr
        outputs.append(csv.read_bytes())
    assert outputs[0] == outputs[1]
    print("[criterion 10] sweep determinism across two runs: PASS "
          f"({len(outputs[0])} identical bytes)")
