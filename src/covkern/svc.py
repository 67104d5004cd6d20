"""Support-vector classification over precomputed kernel matrices.

The binary solver is sequential minimal optimization with LIBSVM's
second-order working sets (WSS2; Fan, Chen & Lin, JMLR 6, 2005): the usual
box-constrained dual with an equality constraint, updated two coordinates at
a time, stopping as before when the maximal KKT violation gap drops below
tolerance.  Multiclass is one-vs-one with majority voting; ties fall
back to summed absolute decision values, then to the lowest class index.

Classical baseline kernels (RBF and a two-width generalized RBF) and a small
stratified-CV grid search live here too, so quantum and classical models run
through the identical fit/predict path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class BinarySVC:
    """Dual solution of one two-class problem (indices local to its subset)."""

    coef: np.ndarray  # alpha_i * y_i per training sample
    bias: float
    iterations: int
    kkt_gap: float

    @property
    def support(self) -> np.ndarray:
        return np.flatnonzero(np.abs(self.coef) > 1e-12)


def _working_sets(y: np.ndarray, alpha: np.ndarray, c: float) -> tuple[np.ndarray, np.ndarray]:
    """Masks of the up set (alpha_i * y_i can grow) and the low set (it can shrink)."""
    pos, below_c, above_0 = y > 0, alpha < c - 1e-12, alpha > 1e-12
    return np.where(pos, below_c, above_0), np.where(pos, above_0, below_c)


def fit_binary(kernel: np.ndarray, labels: np.ndarray, c: float = 1.0,
               tol: float = 1e-3, max_iter: int | None = None) -> BinarySVC:
    """SMO on the dual problem for labels in {-1, +1}.

    ``kernel`` must be the symmetric PSD train matrix.  Working sets are WSS2
    (Fan, Chen & Lin, 2005): i is the maximal violator, and j the low-set t
    maximising b_t^2 / a_t, with b_t its violation against i and a_t =
    K_ii + K_tt - 2 K_it.  The stopping rule is unchanged: the maximal
    violating gap within ``tol``, so every training point meets its
    optimality condition to within ``tol``.
    """
    kernel = np.asarray(kernel, dtype=float)
    y = np.asarray(labels, dtype=float)
    m = y.shape[0]
    if kernel.shape != (m, m):
        raise ValueError("kernel must be square and match the label count")
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise ValueError("binary labels must be -1 or +1")
    if len(np.unique(y)) < 2:
        raise ValueError("need both classes present to fit")
    if c <= 0:
        raise ValueError("c must be positive")
    if not tol > 0:
        raise ValueError("tol must be positive")
    if max_iter is None:
        max_iter = 200 * m + 10_000

    alpha = np.zeros(m)
    # -y * gradient of 1/2 a'Qa - sum(a), which is y - kernel @ coef
    neg_yg = y.copy()
    diag = kernel.diagonal().copy()
    it = 0
    gap = np.inf
    while it < max_iter:
        up, low = _working_sets(y, alpha, c)
        if not up.any() or not low.any():
            gap = 0.0
            break
        i = int(np.argmax(np.where(up, neg_yg, -np.inf)))
        # b_t: how far t violates KKT against i; its max is the maximal violating gap
        b = neg_yg[i] - np.where(low, neg_yg, np.inf)
        gap = b.max()
        if gap <= tol:
            break
        # j maximises b_t^2 / a_t, the dual gain of an unclipped step on (i, t)
        k_i = kernel[i]
        quad = np.maximum(diag[i] + diag - 2.0 * k_i, 1e-12)
        gain = np.maximum(b, 0.0)   # gap > tol > 0, so some t has b_t > 0
        j = int(np.argmax(gain * gain / quad))
        step = b[j] / quad[j]
        cap_i = (c - alpha[i]) if y[i] > 0 else alpha[i]
        cap_j = alpha[j] if y[j] > 0 else (c - alpha[j])
        step = min(step, cap_i, cap_j)
        # clamped: when a cap binds, alpha + (c - alpha) can round past c
        alpha[i] = min(max(alpha[i] + y[i] * step, 0.0), c)
        alpha[j] = min(max(alpha[j] - y[j] * step, 0.0), c)
        neg_yg -= step * (k_i - kernel[j])   # rows: kernel is symmetric
        it += 1
    if gap > tol:
        raise RuntimeError(f"SMO did not converge in {max_iter} iterations (gap {gap})")

    coef = alpha * y
    fitted = kernel @ coef
    free = (alpha > 1e-8 * c) & (alpha < c * (1 - 1e-8))
    if free.any():
        bias = float(np.mean(y[free] - fitted[free]))
    else:
        up, low = _working_sets(y, alpha, c)
        hi = neg_yg[up].max() if up.any() else 0.0
        lo = neg_yg[low].min() if low.any() else 0.0
        bias = float((hi + lo) / 2.0)
    return BinarySVC(coef, bias, it, float(max(gap, 0.0)))


def dual_objective(kernel: np.ndarray, labels: np.ndarray, alpha: np.ndarray) -> float:
    """Dual value sum(a) - 1/2 a'Qa, the quantity SMO maximizes."""
    y = np.asarray(labels, dtype=float)
    q = alpha * y
    return float(alpha.sum() - 0.5 * q @ np.asarray(kernel, dtype=float) @ q)


def decision_function(model: BinarySVC, kernel_rows: np.ndarray) -> np.ndarray:
    """Signed decision values; rows index evaluation points, columns the train set."""
    return np.asarray(kernel_rows, dtype=float) @ model.coef + model.bias


@dataclass
class MulticlassSVC:
    """One-vs-one ensemble over a shared training set.

    ``coefs`` holds one full-length dual coefficient row per class pair (zeros
    off the pair's samples), so decision values for every pair come from one
    matrix product with a cross-kernel block.  ``iterations`` and ``kkt_gaps``
    record each pair's SMO run; a model read back from a file has neither.
    """

    classes: np.ndarray
    pair_classes: np.ndarray  # (n_pairs, 2) indices into classes
    coefs: np.ndarray         # (n_pairs, n_train)
    biases: np.ndarray
    c: float
    iterations: list[int] | None = None
    kkt_gaps: list[float] | None = None

    @property
    def n_train(self) -> int:
        return self.coefs.shape[1]


def fit_multiclass(kernel: np.ndarray, labels, c: float = 1.0,
                   tol: float = 1e-3) -> MulticlassSVC:
    """Fit all class pairs on sub-blocks of one precomputed train kernel."""
    kernel = np.asarray(kernel, dtype=float)
    labels = np.asarray(labels)
    m = labels.shape[0]
    if kernel.shape != (m, m):
        raise ValueError("kernel must be square and match the label count")
    classes = np.unique(labels)
    if classes.shape[0] < 2:
        raise ValueError("need at least two classes")
    pair_classes = []
    coefs = []
    biases = []
    iterations = []
    kkt_gaps = []
    for a in range(classes.shape[0]):
        for b in range(a + 1, classes.shape[0]):
            idx = np.flatnonzero((labels == classes[a]) | (labels == classes[b]))
            y = np.where(labels[idx] == classes[a], 1.0, -1.0)
            sub = fit_binary(kernel[np.ix_(idx, idx)], y, c=c, tol=tol)
            full = np.zeros(m)
            full[idx] = sub.coef
            pair_classes.append((a, b))
            coefs.append(full)
            biases.append(sub.bias)
            iterations.append(sub.iterations)
            kkt_gaps.append(sub.kkt_gap)
    return MulticlassSVC(classes, np.array(pair_classes), np.array(coefs),
                         np.array(biases), float(c), iterations, kkt_gaps)


def pairwise_decisions(model: MulticlassSVC, kernel_cross: np.ndarray) -> np.ndarray:
    kernel_cross = np.asarray(kernel_cross, dtype=float)
    if kernel_cross.shape[1] != model.n_train:
        raise ValueError(
            f"cross kernel has {kernel_cross.shape[1]} columns, model expects {model.n_train}")
    return kernel_cross @ model.coefs.T + model.biases


def predict(model: MulticlassSVC, kernel_cross: np.ndarray) -> np.ndarray:
    """Majority vote over pairwise decisions.

    A positive decision for pair (a, b) votes for class a.  Vote ties are
    broken by the summed absolute decision values accumulated by each class,
    then by the lowest class index.
    """
    decisions = pairwise_decisions(model, kernel_cross)
    t = decisions.shape[0]
    # (row, class voted for) per decision; add.at sums each cell in pair order
    cells = (np.arange(t)[:, None], np.where(decisions > 0, *model.pair_classes.T))
    votes = np.zeros((t, model.classes.shape[0]), dtype=int)
    magnitude = np.zeros(votes.shape)
    np.add.at(votes, cells, 1)
    np.add.at(magnitude, cells, np.abs(decisions))
    magnitude[votes < votes.max(axis=1, keepdims=True)] = -np.inf
    return model.classes[np.argmax(magnitude, axis=1)]   # first of the largest


def accuracy(y_true, y_pred) -> float:
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if y_true.shape != y_pred.shape:
        raise ValueError("label arrays must have matching shapes")
    return float(np.mean(y_true == y_pred))


# ---------------------------------------------------------------------------
# classical baseline kernels
# ---------------------------------------------------------------------------

def _sq_dists(xs: np.ndarray, ys: np.ndarray | None) -> np.ndarray:
    xs = np.asarray(xs, dtype=float)
    ys = xs if ys is None else np.asarray(ys, dtype=float)
    d = xs[:, None, :] - ys[None, :, :]
    return np.sum(d * d, axis=2)


def rbf_matrix(xs, ys=None, gamma: float = 1.0) -> np.ndarray:
    """exp(-gamma * squared distance)."""
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    return np.exp(-gamma * _sq_dists(xs, ys))


def generalized_rbf_matrix(xs, ys=None, gamma1: float = 1.0, sigma1: float = 1.0,
                           gamma2: float = 0.0, sigma2: float = 1.0) -> np.ndarray:
    """Two-width mixture gamma1*exp(-r^2/(2 s1^2)) + gamma2*exp(-r^2/(2 s2^2))."""
    if sigma1 <= 0 or sigma2 <= 0:
        raise ValueError("widths must be positive")
    sq = _sq_dists(xs, ys)
    return gamma1 * np.exp(-sq / (2.0 * sigma1 ** 2)) + gamma2 * np.exp(-sq / (2.0 * sigma2 ** 2))


# ---------------------------------------------------------------------------
# stratified cross-validated grid search over precomputed kernels
# ---------------------------------------------------------------------------

def stratified_folds(labels, n_folds: int, seed: int = 0) -> np.ndarray:
    """Fold id per sample; each class is shuffled then dealt round-robin."""
    labels = np.asarray(labels)
    rng = np.random.default_rng(seed)
    fold = np.empty(labels.shape[0], dtype=int)
    for cls in np.unique(labels):
        idx = np.flatnonzero(labels == cls)
        if idx.shape[0] < n_folds:
            raise ValueError(f"class {cls!r} has {idx.shape[0]} samples, fewer than {n_folds} folds")
        perm = rng.permutation(idx)
        fold[perm] = np.arange(perm.shape[0]) % n_folds
    return fold


def grid_search(candidates, labels, c: float = 1.0, n_folds: int = 5,
                seed: int = 0, tol: float = 1e-3):
    """Mean CV accuracy per candidate kernel; returns (best_params, results).

    ``candidates`` is a sequence of (params, full m x m kernel matrix) pairs;
    folds index into each matrix.  Ties keep the earliest candidate.
    """
    labels = np.asarray(labels)
    fold = stratified_folds(labels, n_folds, seed)
    results = []
    best = None
    for pos, (params, matrix) in enumerate(candidates):
        matrix = np.asarray(matrix, dtype=float)
        scores = []
        for f in range(n_folds):
            tr = np.flatnonzero(fold != f)
            va = np.flatnonzero(fold == f)
            model = fit_multiclass(matrix[np.ix_(tr, tr)], labels[tr], c=c, tol=tol)
            pred = predict(model, matrix[np.ix_(va, tr)])
            scores.append(accuracy(labels[va], pred))
        mean = float(np.mean(scores))
        results.append((params, mean))
        if best is None or mean > best[1]:
            best = (pos, mean)
    return results[best[0]][0], results


# ---------------------------------------------------------------------------
# model serialization
# ---------------------------------------------------------------------------

def save_model_csv(model: MulticlassSVC, path) -> None:
    """Records file: class list, pair memberships, biases, nonzero dual coefs."""
    import csv

    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["kind", "i", "j", "value"])
        w.writerow(["meta", model.n_train, len(model.pair_classes), repr(model.c)])
        for k, cls in enumerate(model.classes):
            w.writerow(["class", k, "", str(cls)])
        for p, (a, b) in enumerate(model.pair_classes):
            w.writerow(["pair", p, int(a), int(b)])
            w.writerow(["bias", p, "", repr(float(model.biases[p]))])
        for p in range(model.coefs.shape[0]):
            for idx in np.flatnonzero(model.coefs[p]):
                w.writerow(["coef", p, int(idx), repr(float(model.coefs[p, idx]))])


def load_model_csv(path) -> MulticlassSVC:
    import csv

    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if len(rows) < 2 or rows[1][0] != "meta":
        raise ValueError("not a model records file")
    n_train = int(rows[1][1])
    n_pairs = int(rows[1][2])
    c = float(rows[1][3])
    class_rows = [(int(r[1]), r[3]) for r in rows if r[0] == "class"]
    class_labels = [lbl for _, lbl in sorted(class_rows)]
    try:
        classes = np.array([int(v) for v in class_labels])
    except ValueError:
        classes = np.array(class_labels)
    pair_classes = np.zeros((n_pairs, 2), dtype=int)
    biases = np.zeros(n_pairs)
    coefs = np.zeros((n_pairs, n_train))
    for r in rows[2:]:
        if r[0] == "pair":
            pair_classes[int(r[1])] = (int(r[2]), int(r[3]))
        elif r[0] == "bias":
            biases[int(r[1])] = float(r[3])
        elif r[0] == "coef":
            coefs[int(r[1]), int(r[2])] = float(r[3])
    return MulticlassSVC(classes, pair_classes, coefs, biases, c)
