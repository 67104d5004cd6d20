"""Acceptance suite: twelve headline guarantees, one pass/fail line each.

Each test prints ``[criterion NN] PASS/FAIL`` with the measured numbers so a
plain ``pytest -s tests/test_acceptance.py`` reads as a checklist.  Tolerances
and workloads are fixed; seeds are frozen so every run sees the same draws.
"""

import itertools
import math
import time

import numpy as np
import pytest

from covkern import align as al
from covkern import data as dt
from covkern import featuremap as fm
from covkern import kernel as kn
from covkern import simcore as sc
from covkern import svc
from covkern import theory as th


def report(number, ok, detail):
    print(f"\n[criterion {number:02d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


# ---------------------------------------------------------------------------
# 1. the 0/1 and shifted class targets induce the same alignment
# ---------------------------------------------------------------------------

def test_criterion_01_target_equivalence():
    rng = np.random.default_rng(101)
    started = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        n_classes = int(rng.integers(2, 6))
        m = int(rng.integers(4, 31))
        labels = rng.integers(0, n_classes, m)
        while np.unique(labels).shape[0] < 2:
            labels = rng.integers(0, n_classes, m)
        raw = rng.normal(size=(m, m))
        kernel = (raw + raw.T) / 2
        a0 = al.centered_alignment(al.target_matrix(labels, "zero_one"), kernel)
        a1 = al.centered_alignment(al.target_matrix(labels, "shifted"), kernel)
        worst = max(worst, abs(a0 - a1))
    elapsed = time.perf_counter() - started
    ok = worst < 1e-10 and elapsed < 5.0
    report(1, ok, f"max |alignment gap| {worst:.2e} over 200 label vectors "
                  f"(< 1e-10), {elapsed:.2f}s (< 5s)")


# ---------------------------------------------------------------------------
# 2. sphere second moment equals 1/d
# ---------------------------------------------------------------------------

def test_criterion_02_sphere_moment():
    started = time.perf_counter()
    worst_sigma = 0.0
    for dim in range(2, 11):
        mean, se = th.sphere_inner_moment(dim, 1_000_000, seed=dim)
        worst_sigma = max(worst_sigma, abs(mean - 1.0 / dim) / se)
    elapsed = time.perf_counter() - started
    ok = worst_sigma <= 3.0 and elapsed < 30.0
    report(2, ok, f"worst |mean - 1/d| is {worst_sigma:.2f} standard errors "
                  f"(<= 3) for d in 2..10 at 1e6 trials, {elapsed:.1f}s (< 30s)")


# ---------------------------------------------------------------------------
# 3. product-cosine closed form vs direct statevector simulation
# ---------------------------------------------------------------------------

def test_criterion_03_closed_form():
    rng = np.random.default_rng(103)
    worst = 0.0
    for n in (2, 6, 12):
        for _ in range(100):
            x = rng.uniform(0.0, 1.0, n)
            y = rng.uniform(0.0, 1.0, n)
            closed = th.cosine_product_kernel(x[None, :], y[None, :])[0, 0]
            circ = th.product_rotation_circuit(2.0 * np.pi * x)
            circ.extend(th.product_rotation_circuit(2.0 * np.pi * y).inverse().gates)
            amps = sc.run_circuit(circ)
            direct = float(np.abs(amps[0]) ** 2)
            worst = max(worst, abs(closed - direct))
    ok = worst <= 1e-10
    report(3, ok, f"max |closed form - statevector| {worst:.2e} (<= 1e-10) "
                  f"over 100 pairs at n in {{2, 6, 12}}")


# ---------------------------------------------------------------------------
# 4. same-subspace kernel expectation dominates all cross layouts
# ---------------------------------------------------------------------------

def test_criterion_04_subspace_ordering():
    rows = th.subspace_kernel_expectations(range(1, 7), trials=100_000, seed=0)
    margins = th.expectation_ordering_margins(rows)
    worst = min(margins.values())
    ok = worst >= 3.0
    report(4, ok, f"same-subspace mean is >= {worst:.1f} sigma above every "
                  f"cross layout (>= 3) for dims 1..6 at 1e5 trials")


# ---------------------------------------------------------------------------
# 5. calibration equals the binomial oracle; recommended d trend
# ---------------------------------------------------------------------------

def binomial_cdf(d, n, p):
    return sum(math.comb(n, k) * p ** k * (1 - p) ** (n - k) for k in range(d + 1))


def test_criterion_05_binomial_calibration():
    noise = sc.NoiseModel(p01=0.02)
    exact = kn.calibrate([4, 8, 12], noise, thresholds=(0.9,))
    worst_exact = max(
        abs(exact.avg_diagonal(n, d) - binomial_cdf(d, n, 0.02))
        for n in (4, 8, 12) for d in range(n + 1))
    sampled = kn.calibrate([4, 8, 12], noise, shots=100_000, thresholds=(0.9,))
    worst_sampled = max(
        abs(sampled.avg_diagonal(n, d) - binomial_cdf(d, n, 0.02))
        for n in (4, 8, 12) for d in range(n + 1))
    analytic = {n: next(d for d in range(n + 1) if binomial_cdf(d, n, 0.02) >= 0.9)
                for n in (4, 8, 12)}
    picks_match = all(exact.recommended_tolerance(n, 0.9) == analytic[n]
                      for n in (4, 8, 12))

    sweep = kn.calibrate(range(4, 15), noise, thresholds=(0.9,))
    picks = [sweep.recommended_tolerance(n, 0.9) for n in range(4, 15)]
    nondecreasing = all(a <= b for a, b in zip(picks, picks[1:]))
    # the linear growth of the useful tolerance shows at strong readout noise,
    # where every extra qubit costs a fixed number of expected flips
    trend = kn.calibrate(range(4, 15), sc.NoiseModel(p01=0.2), thresholds=(0.9,))
    ns = np.arange(4, 15, dtype=float)
    ds = np.array([trend.recommended_tolerance(n, 0.9) for n in range(4, 15)],
                  dtype=float)
    slope, intercept = np.polyfit(ns, ds, 1)
    fitted = slope * ns + intercept
    r2 = 1.0 - np.sum((ds - fitted) ** 2) / np.sum((ds - ds.mean()) ** 2)

    ok = (worst_exact <= 1e-12 and worst_sampled <= 0.01 and picks_match
          and nondecreasing and r2 >= 0.9)
    report(5, ok, f"exact dev {worst_exact:.1e} (<= 1e-12), sampled dev "
                  f"{worst_sampled:.4f} (<= 0.01), recommended d analytic "
                  f"{'yes' if picks_match else 'NO'}, nondecreasing "
                  f"{'yes' if nondecreasing else 'NO'}, trend R^2 {r2:.3f} (>= 0.9)")


# ---------------------------------------------------------------------------
# 6. the two-qubit construction gives the exact class-indicator kernel
# ---------------------------------------------------------------------------

def test_criterion_06_class_indicator_kernel():
    structure = th.bell_structure()
    ds = dt.bell_pair_dataset(20, seed=106)
    dev, dev_ok = th.verify_delta_kernel(ds, structure.fiducial)
    train, test = dt.split_dataset(ds, 0.5, seed=0)
    psi = structure.fiducial
    k_train = kn.overlap_kernel_from_state(psi, train.features)
    k_test = kn.overlap_kernel_from_state(psi, test.features, train.features)
    model = svc.fit_multiclass(k_train, train.labels, c=1.0)
    acc_train = svc.accuracy(train.labels, svc.predict(model, k_train))
    acc_test = svc.accuracy(test.labels, svc.predict(model, k_test))
    ok = dev_ok and acc_train == 1.0 and acc_test == 1.0
    report(6, ok, f"kernel deviates from the class indicator by {dev:.1e} "
                  f"(<= 1e-9); SVC train {acc_train:.0%}, test {acc_test:.0%} (= 100%)")


# ---------------------------------------------------------------------------
# 7. alignment reaches the covariant optimum from random starts
# ---------------------------------------------------------------------------

def test_criterion_07_alignment_convergence():
    ds = dt.bell_pair_dataset(8, seed=11)
    spec = fm.make_feature_map(fm.line_coupling(2), 2)
    config = kn.KernelConfig()
    losses = []
    for seed in range(10):
        init = np.random.default_rng((seed, 5)).uniform(0.0, 2.0 * np.pi, 6)
        spsa = al.SPSAConfig(a=1.0, c=0.2, iterations=100, seed=seed)
        trace = al.align_kernel(ds.features, ds.labels, spec, init, spsa, config)
        losses.append(trace.best_loss)
    hits = sum(loss <= 0.05 for loss in losses)
    ok = hits >= 8
    report(7, ok, f"{hits}/10 seeds reach loss <= 0.05 within 100 iterations "
                  f"(need >= 8); losses {np.round(losses, 3).tolist()}")


# ---------------------------------------------------------------------------
# 8. union-of-subspaces pipeline end to end, plus classical baseline
# ---------------------------------------------------------------------------

def run_subspace_pipeline(class_dims, iterations):
    data_spec = dt.SubspaceSpec(ambient_dim=10, class_dims=class_dims,
                                samples_per_class=200, rotate=True, seed=0)
    train, test = dt.split_dataset(dt.gen_union_subspaces(data_spec), 0.5, seed=0)
    spec = fm.make_feature_map(fm.line_coupling(10), 10, angle_scale=2.0 * np.pi)
    config = kn.KernelConfig()
    init = np.random.default_rng((0, 5)).uniform(0.0, 2.0 * np.pi, spec.n_params)
    spsa = al.SPSAConfig(a=1.0, c=0.2, iterations=iterations, seed=0)
    trace = al.align_kernel(train.features, train.labels, spec, init, spsa, config)
    params = trace.best_params
    k_train = kn.repair_psd(kn.assemble_matrix(train.features, spec, params, config))
    model = svc.fit_multiclass(k_train.values, train.labels, c=1.0)
    k_cross = kn.assemble_cross(test.features, train.features, spec, params, config)
    quantum = svc.accuracy(test.labels, svc.predict(model, k_cross))

    candidates = []
    for sigma1 in (0.25, 0.5, 1.0, 2.0):
        for sigma2 in (0.05, 0.1, 0.25):
            for gamma2 in (0.5, 1.0, 2.0):
                params_b = {"gamma1": 1.0, "sigma1": sigma1,
                            "gamma2": gamma2, "sigma2": sigma2}
                candidates.append(
                    (params_b, svc.generalized_rbf_matrix(train.features, **params_b)))
    best, _ = svc.grid_search(candidates, train.labels, c=1.0, n_folds=5, seed=0)
    base_model = svc.fit_multiclass(
        svc.generalized_rbf_matrix(train.features, **best), train.labels, c=1.0)
    base_cross = svc.generalized_rbf_matrix(test.features, train.features, **best)
    baseline = svc.accuracy(test.labels, svc.predict(base_model, base_cross))
    return quantum, baseline


def test_criterion_08_subspace_end_to_end():
    started = time.perf_counter()
    q2, b2 = run_subspace_pipeline((2, 2, 2), iterations=5)
    q3, b3 = run_subspace_pipeline((3, 3, 3), iterations=55)
    elapsed = time.perf_counter() - started
    ok = (q2 == 1.0 and q3 >= 0.80
          and b2 >= q2 - 0.05 and b3 >= q3 - 0.05 and elapsed < 1800.0)
    report(8, ok, f"2d subspaces: quantum {q2:.0%} (= 100%), baseline {b2:.0%}; "
                  f"3d: quantum {q3:.0%} (>= 80%), baseline {b3:.0%} "
                  f"(each >= quantum - 5); {elapsed:.0f}s (< 30min)")


# ---------------------------------------------------------------------------
# 9. readout flips destroy the zero-tolerance kernel; calibrated d rescues it
# ---------------------------------------------------------------------------

def flip_lattice_dataset():
    # three classes on disjoint 4-coordinate blocks of 12 features; samples
    # are pi times the 4-bit words of Hamming weight 1 or 2
    words = [w for w in itertools.product((0, 1), repeat=4) if sum(w) in (1, 2)]
    feats, labels = [], []
    for c in range(3):
        for w in words:
            x = np.zeros(12)
            x[4 * c:4 * c + 4] = np.pi * np.array(w)
            feats.append(x)
            labels.append(c)
    return dt.Dataset(np.array(feats), np.array(labels, dtype=int))


def test_criterion_09_bft_rescue():
    noise = sc.NoiseModel(p01=0.03)
    ds = flip_lattice_dataset()
    spec = fm.make_feature_map(fm.line_coupling(12), 12, angle_scale=1.0)
    params = np.zeros(spec.n_params)
    train, test = dt.split_dataset(ds, 0.5, seed=0)

    calibration = kn.calibrate([12], noise, thresholds=(0.9,))
    d_cal = calibration.recommended_tolerance(12, 0.9)

    profiles = kn.assemble_profiles(train.features, spec, params,
                                    kn.KernelConfig(shots=10_000, master_seed=0),
                                    noise)
    accs = {}
    crosses = {}
    for d in (0, d_cal):
        config = kn.KernelConfig(tolerance=d, shots=10_000, master_seed=0)
        k_train = kn.repair_psd(kn.matrix_from_profiles(profiles, config))
        model = svc.fit_multiclass(k_train.values, train.labels, c=1.0)
        crosses[d] = kn.assemble_cross(test.features, train.features, spec,
                                       params, config, noise)
        accs[d] = svc.accuracy(test.labels, svc.predict(model, crosses[d]))

    # identical counts at both tolerances: the train matrices are two slices
    # of one profile array, and the cross draws are pair-seeded, so widening
    # d can only add mass entrywise
    same_counts = bool(np.all(crosses[d_cal] - crosses[0] >= -1e-15))
    ok = d_cal >= 1 and accs[0] <= 0.45 and accs[d_cal] >= 0.80 and same_counts
    report(9, ok, f"test accuracy {accs[0]:.0%} at d=0 (<= 45%), "
                  f"{accs[d_cal]:.0%} at calibrated d={d_cal} (>= 80%), "
                  f"same counts across d: {'yes' if same_counts else 'NO'}")


# ---------------------------------------------------------------------------
# 10. tolerance shrinks the PSD distance of the sampled calibration Gram
# ---------------------------------------------------------------------------

def test_criterion_10_psd_distance():
    noise = sc.NoiseModel(p01=0.03)
    spec = fm.make_feature_map(fm.line_coupling(12), 12, angle_scale=1.0)
    params = np.zeros(spec.n_params)
    d_cal = kn.calibrate([12], noise, thresholds=(0.9,)).recommended_tolerance(12, 0.9)

    # thirty copies of one sample: the ideal Gram is all ones, so every
    # deviation from PSD is sampling noise that tolerance should absorb
    xs = np.tile(np.linspace(0.1, 1.2, 12), (30, 1))
    profiles = kn.assemble_profiles(xs, spec, params,
                                    kn.KernelConfig(shots=10_000, master_seed=0),
                                    noise)
    dist0 = kn.psd_distance(
        kn.matrix_from_profiles(profiles, kn.KernelConfig(tolerance=0, shots=10_000)).values)
    est_cal = kn.matrix_from_profiles(
        profiles, kn.KernelConfig(tolerance=d_cal, shots=10_000))
    dist_cal = kn.psd_distance(est_cal.values)
    repaired = kn.repair_psd(est_cal)
    min_eig = float(np.linalg.eigvalsh(repaired.values).min())
    ok = dist_cal <= 0.5 * dist0 and min_eig >= -1e-9
    report(10, ok, f"psd distance {dist_cal:.4f} at d={d_cal} vs {dist0:.4f} at "
                   f"d=0 (ratio {dist_cal / dist0:.2f} <= 0.5); repaired min "
                   f"eigenvalue {min_eig:.1e} (>= -1e-9)")


# ---------------------------------------------------------------------------
# 11. entangler cost: exactly 2(n-1) CZ gates per kernel circuit
# ---------------------------------------------------------------------------

def cz_count(spec):
    circ = fm.build_kernel_circuit(spec, np.zeros(spec.n_params),
                                   np.zeros(spec.n_qubits), np.ones(spec.n_qubits))
    return sum(1 for g in circ.gates if g.name == "cz")


def test_criterion_11_cz_counts():
    heavy = fm.heavy_hex_coupling(3, 7)
    assert heavy.n_qubits >= 20
    ns = range(2, 21)
    counts_line = [cz_count(fm.make_feature_map(fm.line_coupling(n), n)) for n in ns]
    counts_hex = [cz_count(fm.make_feature_map(heavy, n)) for n in ns]
    exact = all(c == 2 * (n - 1) for n, c in zip(ns, counts_line)) and \
        all(c == 2 * (n - 1) for n, c in zip(ns, counts_hex))
    slope, intercept = np.polyfit(list(ns), counts_line, 1)
    at_100 = slope * 100 + intercept
    at_156 = slope * 156 + intercept
    extrapolates = abs(at_100 - 198.0) < 1e-6 and abs(at_156 - 310.0) < 1e-6
    ok = exact and extrapolates
    report(11, ok, f"CZ count is 2(n-1) for n in 2..20 on line and heavy-hex "
                   f"couplings: {'yes' if exact else 'NO'}; linear fit gives "
                   f"{at_100:.1f} at n=100 (198) and {at_156:.1f} at n=156 (310)")


# ---------------------------------------------------------------------------
# 12. SMO against brute-force dual enumeration
# ---------------------------------------------------------------------------

def brute_force_dual(kernel, y, c):
    """Max dual value over all active-set assignments (alpha in {0, c, free})."""
    m = y.shape[0]
    q = kernel * np.outer(y, y)
    best = -np.inf
    for assign in itertools.product((0, 1, 2), repeat=m):
        sel = np.array(assign)
        alpha = np.zeros(m)
        alpha[sel == 1] = c
        free = np.flatnonzero(sel == 2)
        if free.size:
            # KKT on the free set: q_FF a_F + b y_F = 1 - q_FU a_U
            rows = np.block([
                [q[np.ix_(free, free)], y[free, None]],
                [y[None, free], np.zeros((1, 1))],
            ])
            rhs = np.concatenate([
                1.0 - q[np.ix_(free, sel == 1)].sum(axis=1) * c,
                [-float(y[sel == 1].sum()) * c],
            ])
            sol, *_ = np.linalg.lstsq(rows, rhs, rcond=None)
            if not np.allclose(rows @ sol, rhs, atol=1e-8):
                continue
            alpha[free] = sol[:-1]
            if np.any(alpha[free] < -1e-9) or np.any(alpha[free] > c + 1e-9):
                continue
        elif abs(float(alpha @ y)) > 1e-9:
            continue
        best = max(best, svc.dual_objective(kernel, y, np.clip(alpha, 0.0, c)))
    return best


def test_criterion_12_smo_vs_brute_force():
    rng = np.random.default_rng(112)
    worst = 0.0
    for _ in range(50):
        m = int(rng.integers(3, 7))
        g = rng.normal(size=(m, m + 1))
        kernel = g @ g.T
        y = np.where(rng.random(m) < 0.5, 1.0, -1.0)
        if len(np.unique(y)) < 2:
            y[0] = -y[0]
        c = float(rng.choice([0.5, 1.0, 5.0]))
        model = svc.fit_binary(kernel, y, c=c, tol=1e-8)
        got = svc.dual_objective(kernel, y, model.coef * y)
        ref = brute_force_dual(kernel, y, c)
        worst = max(worst, abs(got - ref))
    ok = worst <= 1e-4
    report(12, ok, f"max |SMO dual - brute-force dual| {worst:.2e} (<= 1e-4) "
                   f"over 50 instances with m <= 6")
