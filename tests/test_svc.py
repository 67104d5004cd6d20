"""SMO solver against a scipy dual oracle, one-vs-one voting, grid search."""

import tracemalloc

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from covkern import data as dt
from covkern import featuremap as fm
from covkern import kernel as kn
from covkern import simcore as sc
from covkern import svc


def slsqp_dual(kernel, y, c):
    """Box-and-equality constrained dual optimum, solved generically."""
    m = y.shape[0]
    q = kernel * np.outer(y, y)

    def neg_dual(a):
        return 0.5 * a @ q @ a - a.sum()

    def grad(a):
        return q @ a - np.ones(m)

    res = scipy.optimize.minimize(
        neg_dual, np.full(m, 0.5 * c), jac=grad, method="SLSQP",
        bounds=[(0.0, c)] * m,
        constraints={"type": "eq", "fun": lambda a: a @ y, "jac": lambda a: y},
        options={"maxiter": 500, "ftol": 1e-12})
    assert res.success
    return res.x


def separable_problem(seed, m=14):
    rng = np.random.default_rng(seed)
    xs = rng.normal(size=(m, 2))
    y = np.where(xs[:, 0] + 0.3 * xs[:, 1] > 0, 1.0, -1.0)
    if len(np.unique(y)) < 2:  # reroll is overkill; shift one point
        y[0] = -y[0]
    kernel = svc.rbf_matrix(xs, None, 0.8)
    return xs, y, kernel


# ------------------------------------------------------- binary solver

def test_smo_matches_scipy_dual_optimum():
    for seed in (0, 1, 2, 3):
        _, y, kernel = separable_problem(seed)
        for c in (0.5, 10.0):
            model = svc.fit_binary(kernel, y, c=c, tol=1e-6)
            alpha_smo = model.coef * y
            alpha_ref = slsqp_dual(kernel, y, c)
            got = svc.dual_objective(kernel, y, alpha_smo)
            ref = svc.dual_objective(kernel, y, alpha_ref)
            assert got == pytest.approx(ref, abs=1e-5)
            assert abs(np.sum(model.coef)) < 1e-9  # equality constraint
            assert np.all(alpha_smo >= -1e-12)
            assert np.all(alpha_smo <= c + 1e-12)


def test_smo_satisfies_kkt_conditions():
    _, y, kernel = separable_problem(7)
    c = 2.0
    tol = 1e-6
    model = svc.fit_binary(kernel, y, c=c, tol=tol)
    alpha = model.coef * y
    margins = y * (kernel @ model.coef + model.bias)
    for a, margin in zip(alpha, margins):
        if a < 1e-8:
            assert margin >= 1.0 - 1e-4
        elif a > c - 1e-8:
            assert margin <= 1.0 + 1e-4
        else:
            assert margin == pytest.approx(1.0, abs=1e-4)
    assert model.kkt_gap <= tol


@st.composite
def binary_problems(draw):
    """A random PSD Gram or RBF matrix, labels with both classes, c and tol."""
    m = draw(st.integers(2, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        feats = rng.normal(size=(m, draw(st.integers(1, m))))
        kernel = feats @ feats.T
    else:
        kernel = svc.rbf_matrix(rng.normal(size=(m, 3)), None, draw(st.floats(0.05, 5.0)))
    y = rng.choice([-1.0, 1.0], size=m)
    y[:2] = 1.0, -1.0
    return kernel, y, draw(st.floats(0.05, 10.0)), draw(st.sampled_from([1e-3, 1e-6]))


@settings(max_examples=80, deadline=None)
@given(binary_problems())
def test_smo_meets_kkt_to_its_tolerance(case):
    kernel, y, c, tol = case
    model = svc.fit_binary(kernel, y, c=c, tol=tol)
    alpha = model.coef * y
    assert np.all(alpha >= 0.0) and np.all(alpha <= c)
    assert abs(np.sum(model.coef)) <= 1e-9
    # -y * gradient of the dual, recomputed from the coefficients
    neg_yg = y - kernel @ model.coef
    up = ((y > 0) & (alpha < c - 1e-12)) | ((y < 0) & (alpha > 1e-12))
    low = ((y > 0) & (alpha > 1e-12)) | ((y < 0) & (alpha < c - 1e-12))
    if up.any() and low.any():
        gap = neg_yg[up].max() - neg_yg[low].min()
        assert gap <= tol + 1e-9
        assert max(gap, 0.0) == pytest.approx(model.kkt_gap, abs=1e-9)


def reference_fit_binary(kernel, y, c, tol, max_iter=None):
    """WSS2 SMO written plainly: both working-set masks and every temporary
    rebuilt on each pass.  ``svc.fit_binary`` must take the same steps in the
    same floating-point operations."""
    m = y.shape[0]
    if max_iter is None:
        max_iter = 200 * m + 10_000

    def working_sets(alpha):
        pos, below_c, above_0 = y > 0, alpha < c - 1e-12, alpha > 1e-12
        return np.where(pos, below_c, above_0), np.where(pos, above_0, below_c)

    alpha = np.zeros(m)
    neg_yg = y.copy()
    diag = kernel.diagonal().copy()
    it = 0
    gap = np.inf
    while it < max_iter:
        up, low = working_sets(alpha)
        if not up.any() or not low.any():
            gap = 0.0
            break
        i = int(np.argmax(np.where(up, neg_yg, -np.inf)))
        b = neg_yg[i] - np.where(low, neg_yg, np.inf)
        gap = b.max()
        if gap <= tol:
            break
        k_i = kernel[i]
        quad = np.maximum(diag[i] + diag - 2.0 * k_i, 1e-12)
        gain = np.maximum(b, 0.0)
        j = int(np.argmax(gain * gain / quad))
        step = b[j] / quad[j]
        cap_i = (c - alpha[i]) if y[i] > 0 else alpha[i]
        cap_j = alpha[j] if y[j] > 0 else (c - alpha[j])
        step = min(step, cap_i, cap_j)
        alpha[i] = min(max(alpha[i] + y[i] * step, 0.0), c)
        alpha[j] = min(max(alpha[j] - y[j] * step, 0.0), c)
        neg_yg -= step * (k_i - kernel[j])
        it += 1
    if gap > tol:
        raise RuntimeError(f"SMO did not converge in {max_iter} iterations (gap {gap})")
    coef = alpha * y
    fitted = kernel @ coef
    free = (alpha > 1e-8 * c) & (alpha < c * (1 - 1e-8))
    if free.any():
        bias = float(np.mean(y[free] - fitted[free]))
    else:
        up, low = working_sets(alpha)
        hi = neg_yg[up].max() if up.any() else 0.0
        lo = neg_yg[low].min() if low.any() else 0.0
        bias = float((hi + lo) / 2.0)
    return svc.BinarySVC(coef, bias, it, float(max(gap, 0.0)))


def assert_same_iterates(kernel, y, c, tol):
    want = reference_fit_binary(kernel, y, c, tol)
    got = svc.fit_binary(kernel, y, c=c, tol=tol)
    assert got.iterations == want.iterations
    assert got.coef.tobytes() == want.coef.tobytes()
    assert np.float64(got.bias).tobytes() == np.float64(want.bias).tobytes()
    assert np.float64(got.kkt_gap).tobytes() == np.float64(want.kkt_gap).tobytes()


@settings(max_examples=80, deadline=None)
@given(binary_problems())
def test_smo_takes_the_reference_loops_steps_bit_for_bit(case):
    assert_same_iterates(*case)


@pytest.mark.parametrize("c", [0.05, 10.0])
@pytest.mark.parametrize("seed", range(6))
def test_smo_matches_the_reference_loop_on_tie_heavy_problems(seed, c):
    rng = np.random.default_rng(seed)
    m = 40
    # duplicated samples: equal rows, equal gradients, equal gains
    points = rng.normal(size=(8, 2))[rng.integers(0, 8, size=m)]
    y = rng.choice([-1.0, 1.0], size=m)
    y[:2] = 1.0, -1.0
    assert_same_iterates(svc.rbf_matrix(points, None, 0.7), y, c, 1e-3)
    # rank-1 kernels: every a_t is the same difference of two numbers
    v = rng.normal(size=m)
    assert_same_iterates(np.outer(v, v), y, c, 1e-6)
    assert_same_iterates(np.ones((m, m)), y, c, 1e-3)


def test_smo_exhausts_max_iter_like_the_reference_loop():
    _, y, kernel = separable_problem(3, m=30)
    with pytest.raises(RuntimeError) as want:
        reference_fit_binary(kernel, y, 10.0, 1e-9, max_iter=5)
    with pytest.raises(RuntimeError) as got:
        svc.fit_binary(kernel, y, c=10.0, tol=1e-9, max_iter=5)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("seed", [170, 607, 1303, 2463])
def test_smo_keeps_alpha_inside_the_box_exactly(seed):
    # problems on which alpha + (c - alpha) rounded past c before updates were clamped
    rng = np.random.default_rng(seed)
    m = int(rng.integers(6, 20))
    kernel = svc.rbf_matrix(rng.normal(size=(m, 3)), None, float(rng.uniform(0.05, 2.0)))
    y = rng.choice([-1.0, 1.0], size=m)
    y[:2] = 1.0, -1.0
    c = float(rng.uniform(0.5, 10.0))
    alpha = svc.fit_binary(kernel, y, c=c).coef * y
    assert alpha.min() >= 0.0 and alpha.max() <= c


def test_fit_binary_holds_one_curvature_table_and_one_transient():
    # the m x m table of a_t rows plus, while it is built, one operand of its
    # size: 16 m^2 bytes, and O(m) for the working rows
    _, y, kernel = separable_problem(4, m=300)
    m = y.shape[0]
    tracemalloc.start()
    try:
        svc.fit_binary(kernel, y, c=1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * m * m + 256 * m


def test_binary_separable_train_accuracy():
    _, y, kernel = separable_problem(11)
    model = svc.fit_binary(kernel, y, c=100.0, tol=1e-6)
    pred = np.sign(kernel @ model.coef + model.bias)
    assert np.all(pred == y)
    assert np.count_nonzero(np.abs(model.coef) > 1e-12) >= 2   # support vectors


def test_binary_input_validation():
    kernel = np.eye(4)
    with pytest.raises(ValueError):
        svc.fit_binary(np.eye(3), np.array([1.0, -1.0, 1.0, -1.0]))
    with pytest.raises(ValueError):
        svc.fit_binary(kernel, np.array([1.0, 2.0, -1.0, -1.0]))
    with pytest.raises(ValueError):
        svc.fit_binary(kernel, np.array([1.0, 1.0, 1.0, 1.0]))
    with pytest.raises(ValueError):
        svc.fit_binary(kernel, np.array([1.0, -1.0, 1.0, -1.0]), c=0.0)
    with pytest.raises(ValueError, match="tol"):
        svc.fit_binary(kernel, np.array([1.0, -1.0, 1.0, -1.0]), tol=0.0)


@pytest.mark.parametrize("where, value", [((0, 1), np.nan), ((2, 2), np.inf), ((1, 3), -np.inf)])
def test_non_finite_kernels_are_rejected(where, value):
    kernel = np.eye(4)
    kernel[where] = kernel[where[::-1]] = value
    with pytest.raises(ValueError, match="finite"):
        svc.fit_binary(kernel, np.array([1.0, -1.0, 1.0, -1.0]))
    with pytest.raises(ValueError, match="finite"):
        svc.fit_multiclass(kernel, [0, 1, 0, 1])


def test_dual_objective_formula():
    kernel = np.array([[2.0, 0.5], [0.5, 1.0]])
    y = np.array([1.0, -1.0])
    alpha = np.array([0.3, 0.3])
    q = alpha * y
    expected = alpha.sum() - 0.5 * q @ kernel @ q
    assert svc.dual_objective(kernel, y, alpha) == pytest.approx(expected, abs=1e-15)


# ------------------------------------------------------- multiclass

def three_class_problem(seed=0, per_class=10):
    rng = np.random.default_rng(seed)
    centers = np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0]])
    xs = np.vstack([c + 0.3 * rng.normal(size=(per_class, 2)) for c in centers])
    labels = np.repeat(np.arange(3), per_class)
    return xs, labels


def test_multiclass_fits_separated_clusters():
    xs, labels = three_class_problem()
    kernel = svc.rbf_matrix(xs, None, 0.5)
    model = svc.fit_multiclass(kernel, labels, c=10.0)
    assert model.pair_classes.shape == (3, 2)
    pred = svc.predict(model, kernel)
    assert svc.accuracy(labels, pred) == 1.0
    # each pair's coefficients live only on that pair's samples
    for p, (a, b) in enumerate(model.pair_classes):
        outside = ~np.isin(labels, [model.classes[a], model.classes[b]])
        assert np.all(model.coefs[p][outside] == 0.0)


def test_multiclass_records_each_pairs_smo_run(tmp_path):
    xs, labels = three_class_problem(seed=4, per_class=9)
    kernel = svc.rbf_matrix(xs, None, 0.5)
    model = svc.fit_multiclass(kernel, labels, c=2.0, tol=1e-4)
    assert len(model.iterations) == len(model.kkt_gaps) == len(model.pair_classes)
    for p, (a, b) in enumerate(model.pair_classes):
        idx = np.flatnonzero(np.isin(labels, [model.classes[a], model.classes[b]]))
        y = np.where(labels[idx] == model.classes[a], 1.0, -1.0)
        sub = svc.fit_binary(kernel[np.ix_(idx, idx)], y, c=2.0, tol=1e-4)
        assert model.iterations[p] == sub.iterations
        assert model.kkt_gaps[p] == sub.kkt_gap
    svc.save_model_csv(model, tmp_path / "model.csv")
    back = svc.load_model_csv(tmp_path / "model.csv")
    assert back.iterations is None and back.kkt_gaps is None


def test_second_order_working_sets_cut_iterations_on_a_noisy_bft_gram():
    """The README pipeline's regime: readout noise, shots, tolerance 1, PSD repair."""
    ds = dt.gen_union_subspaces(dt.SubspaceSpec(ambient_dim=8, class_dims=[2, 2, 2],
                                                samples_per_class=25, seed=0))
    spec = fm.make_feature_map(fm.line_coupling(8), 8, angle_scale=2.0 * np.pi)
    config = kn.KernelConfig(tolerance=1, shots=4000, master_seed=0)
    repaired = kn.repair_psd(kn.assemble_matrix(ds.features, spec, np.zeros(spec.n_params),
                                                config, noise=sc.NoiseModel(p01=0.03)))
    assert repaired.psd_projected
    model = svc.fit_multiclass(repaired.values, ds.labels)
    # maximal-violating-pair working sets took 839 iterations over the three pairs
    assert sum(model.iterations) <= 0.6 * 839
    assert max(model.kkt_gaps) <= 1e-3


def test_multiclass_validation():
    with pytest.raises(ValueError):
        svc.fit_multiclass(np.eye(3), [0, 0, 0])
    with pytest.raises(ValueError):
        svc.fit_multiclass(np.eye(3), [0, 1])


def test_predict_tie_breaks():
    # zero coefficients let the biases set every decision value directly
    def model_with_biases(biases):
        return svc.MulticlassSVC(
            classes=np.array([0, 1, 2]),
            pair_classes=np.array([(0, 1), (0, 2), (1, 2)]),
            coefs=np.zeros((3, 1)),
            biases=np.array(biases, dtype=float),
            c=1.0)

    cross = np.zeros((1, 1))
    # one vote each: pair wins 0, 2, 1; magnitudes 1, 2, 3 so class 1 leads
    pred = svc.predict(model_with_biases([1.0, -2.0, 3.0]), cross)
    assert pred[0] == 1
    # full tie in votes and magnitudes falls back to the lowest class index
    pred = svc.predict(model_with_biases([1.0, -1.0, 1.0]), cross)
    assert pred[0] == 0


def plain_vote(model, decisions):
    """One row at a time: most votes, then largest summed |decision|, then
    the lowest class index."""
    k = model.classes.shape[0]
    out = []
    for row in decisions:
        votes, mag = [0] * k, [0.0] * k
        for (a, b), d in zip(model.pair_classes, row):
            winner = a if d > 0 else b
            votes[winner] += 1
            mag[winner] += abs(d)
        tied = [cls for cls in range(k) if votes[cls] == max(votes)]
        best = max(mag[cls] for cls in tied)
        out.append(model.classes[next(cls for cls in tied if mag[cls] == best)])
    return np.array(out)


def test_predict_breaks_ties_per_row_like_a_plain_vote():
    # identity coefficients make each cross-kernel row the row's decisions
    classes = np.array([3, 5, 7, 9])
    pairs = np.array([(a, b) for a in range(4) for b in range(a + 1, 4)])
    model = svc.MulticlassSVC(classes, pairs, np.eye(len(pairs)), np.zeros(len(pairs)), 1.0)
    fixed = np.array([
        [1, 1, 1, 1, 1, 1],         # class 3 wins outright
        [-1, 1, -1, -3, 1, 1],      # 5 and 7 tie on votes, 7 has more magnitude
        [-1, -1, -1, 1, -1, 1],     # 5, 7, 9 tie on votes and on magnitude: 5
        [1, 2, -1, 1, -2, 1],       # 3 and 9 tie on votes and magnitude (3 each): 3
        [0, 0, 0, 0, 0, 0],         # zero votes for the second class of each pair
    ], dtype=float)
    random = np.random.default_rng(3).integers(-2, 3, size=(300, len(pairs))).astype(float)
    decisions = np.vstack([fixed, random])
    want = plain_vote(model, decisions)
    np.testing.assert_array_equal(want[:5], [3, 7, 5, 3, 9])
    np.testing.assert_array_equal(svc.predict(model, decisions), want)
    # the random rows include vote ties, and vote ties also tied on magnitude
    winners = np.where(decisions > 0, pairs[:, 0], pairs[:, 1])
    votes = np.stack([(winners == cls).sum(axis=1) for cls in range(4)], axis=1)
    assert np.sum((votes == votes.max(axis=1, keepdims=True)).sum(axis=1) > 1) > 20


def test_pairwise_decisions_shape_check():
    model = svc.MulticlassSVC(np.array([0, 1]), np.array([(0, 1)]),
                              np.zeros((1, 4)), np.zeros(1), 1.0)
    with pytest.raises(ValueError):
        svc.pairwise_decisions(model, np.zeros((2, 3)))


def test_accuracy_validation():
    assert svc.accuracy([1, 2, 3], [1, 2, 0]) == pytest.approx(2.0 / 3.0)
    with pytest.raises(ValueError):
        svc.accuracy([1, 2], [1, 2, 3])


# ------------------------------------------------------- baseline kernels

def test_rbf_matrix_matches_direct_formula():
    rng = np.random.default_rng(20)
    xs = rng.normal(size=(5, 3))
    ys = rng.normal(size=(4, 3))
    got = svc.rbf_matrix(xs, ys, gamma=0.9)
    for i in range(5):
        for j in range(4):
            d2 = np.sum((xs[i] - ys[j]) ** 2)
            assert got[i, j] == pytest.approx(np.exp(-0.9 * d2), abs=1e-12)
    with pytest.raises(ValueError):
        svc.rbf_matrix(xs, None, gamma=0.0)


def test_generalized_rbf_matches_direct_formula():
    rng = np.random.default_rng(21)
    xs = rng.normal(size=(4, 2))
    got = svc.generalized_rbf_matrix(xs, None, gamma1=0.7, sigma1=1.3,
                                     gamma2=0.2, sigma2=0.4)
    for i in range(4):
        for j in range(4):
            d2 = np.sum((xs[i] - xs[j]) ** 2)
            expected = (0.7 * np.exp(-d2 / (2 * 1.3 ** 2))
                        + 0.2 * np.exp(-d2 / (2 * 0.4 ** 2)))
            assert got[i, j] == pytest.approx(expected, abs=1e-12)
    with pytest.raises(ValueError):
        svc.generalized_rbf_matrix(xs, sigma1=0.0)
    # single-width reduction agrees with the plain RBF at gamma = 1/(2 s^2)
    one = svc.generalized_rbf_matrix(xs, gamma1=1.0, sigma1=0.5, gamma2=0.0)
    np.testing.assert_allclose(one, svc.rbf_matrix(xs, None, 2.0), atol=1e-12)


@pytest.mark.parametrize("weights", [{"gamma1": -1.0}, {"gamma2": -0.5}, {"gamma1": 0.0},
                                     {"gamma1": np.inf}, {"gamma2": np.nan}])
def test_generalized_rbf_rejects_a_negative_infinite_or_all_zero_weight(weights):
    # gamma1 = 0 with the default gamma2 = 0 leaves no mixture at all
    with pytest.raises(ValueError, match="weights must be finite, >= 0 and not both 0"):
        svc.generalized_rbf_matrix(np.zeros((2, 2)), **weights)
    np.testing.assert_array_equal(svc.generalized_rbf_matrix(np.zeros((2, 2)), gamma1=0.0,
                                                             gamma2=1.0), np.ones((2, 2)))


@pytest.mark.parametrize("width", ["sigma1", "sigma2"])
@pytest.mark.parametrize("value", [1e300, 1e-300, np.float64(1e300), np.float64(1e-300),
                                   -1.0, np.inf, np.nan])
def test_generalized_rbf_rejects_a_width_without_a_finite_positive_square(width, value):
    with pytest.raises(ValueError, match="widths must be positive"):
        svc.generalized_rbf_matrix(np.zeros((2, 2)), **{width: value})


# ------------------------------------------------------- CV grid search

def test_stratified_folds_balance_classes():
    labels = np.array([0] * 10 + [1] * 7 + [2] * 5)
    fold = svc.stratified_folds(labels, 5, seed=4)
    for cls, count in ((0, 10), (1, 7), (2, 5)):
        sizes = np.bincount(fold[labels == cls], minlength=5)
        assert sizes.max() - sizes.min() <= 1
        assert sizes.sum() == count
    with pytest.raises(ValueError):
        svc.stratified_folds(np.array([0, 0, 1]), 2)


@pytest.mark.parametrize("n_folds", [0, 1])
def test_grid_search_needs_two_folds(n_folds):
    xs, labels = three_class_problem(seed=5, per_class=4)
    with pytest.raises(ValueError, match="n_folds"):
        svc.grid_search([("rbf", svc.rbf_matrix(xs, None, 0.5))], labels, n_folds=n_folds)


def test_grid_search_picks_better_kernel():
    xs, labels = three_class_problem(seed=5, per_class=10)
    good = svc.rbf_matrix(xs, None, 0.5)
    # gamma so large the kernel is the identity: CV accuracy collapses
    bad = svc.rbf_matrix(xs, None, 1e6)
    best, results = svc.grid_search(
        [("bad", bad), ("good", good)], labels, c=10.0, n_folds=5, seed=0)
    assert best == "good"
    assert dict(results)["good"] > dict(results)["bad"]
    again = svc.grid_search([("bad", bad), ("good", good)], labels, c=10.0,
                            n_folds=5, seed=0)[1]
    assert results == again
    # ties keep the earliest candidate
    tied_best, _ = svc.grid_search([("first", good), ("second", good)],
                                   labels, c=10.0, n_folds=5, seed=0)
    assert tied_best == "first"


# ------------------------------------------------------- serialization

def test_model_csv_roundtrip_preserves_predictions(tmp_path):
    xs, labels = three_class_problem(seed=9, per_class=8)
    kernel = svc.rbf_matrix(xs, None, 0.5)
    model = svc.fit_multiclass(kernel, labels, c=5.0)
    path = tmp_path / "model.csv"
    svc.save_model_csv(model, path)
    back = svc.load_model_csv(path)
    np.testing.assert_array_equal(back.classes, model.classes)
    np.testing.assert_array_equal(back.pair_classes, model.pair_classes)
    np.testing.assert_array_equal(back.coefs, model.coefs)
    np.testing.assert_array_equal(back.biases, model.biases)
    assert back.c == model.c
    rng = np.random.default_rng(1)
    probe = svc.rbf_matrix(rng.normal(size=(6, 2)), xs, 0.5)
    np.testing.assert_array_equal(svc.predict(back, probe), svc.predict(model, probe))
    with pytest.raises(ValueError):
        bad = tmp_path / "bad.csv"
        bad.write_text("kind,i,j,value\nclass,0,,0\n")
        svc.load_model_csv(bad)


@st.composite
def stored_models(draw):
    """Any model the records file can hold: distinct integer classes, every
    class pair, finite biases and coefficients with some exact zeros, and a
    finite probe kernel block."""
    classes = np.array(sorted(draw(st.sets(st.integers(-2 ** 63, 2 ** 63 - 1),
                                           min_size=2, max_size=4))))
    pair_classes = np.array([(a, b) for a in range(len(classes))
                             for b in range(a + 1, len(classes))])
    n_train = draw(st.integers(1, 8))
    coef = st.one_of(st.just(0.0), st.floats(-1e6, 1e6))
    coefs = draw(hnp.arrays(float, (len(pair_classes), n_train), elements=coef))
    biases = draw(hnp.arrays(float, len(pair_classes),
                             elements=st.floats(allow_nan=False, allow_infinity=False)))
    c = draw(st.floats(1e-6, 1e6))
    probe = draw(hnp.arrays(float, (draw(st.integers(1, 5)), n_train),
                            elements=st.floats(-1e3, 1e3)))
    return svc.MulticlassSVC(classes, pair_classes, coefs, biases, c), probe


@settings(max_examples=60, deadline=None)
@given(stored_models())
def test_model_csv_roundtrip_is_exact_for_any_stored_model(case):
    import tempfile

    model, probe = case
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/model.csv"
        svc.save_model_csv(model, path)
        back = svc.load_model_csv(path)
    np.testing.assert_array_equal(back.classes, model.classes)
    np.testing.assert_array_equal(back.pair_classes, model.pair_classes)
    np.testing.assert_array_equal(back.biases, model.biases)
    np.testing.assert_array_equal(back.coefs, model.coefs)
    assert back.c == model.c
    np.testing.assert_array_equal(svc.predict(back, probe), svc.predict(model, probe))
