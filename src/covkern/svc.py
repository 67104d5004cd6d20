"""Support-vector classification over precomputed kernel matrices.

The binary solver is sequential minimal optimization with LIBSVM's
second-order working sets (WSS2; Fan, Chen & Lin, JMLR 6, 2005): the usual
box-constrained dual with an equality constraint, updated two coordinates at
a time, stopping as before when the maximal KKT violation gap drops below
tolerance.  The working sets are kept incrementally: each step rewrites only
the two entries whose coefficients moved, and every scan runs into buffers
allocated once per fit.  Multiclass is one-vs-one with majority voting; ties
fall back to summed absolute decision values, then to the lowest class index.

Classical baseline kernels (RBF and a two-width generalized RBF) and a small
stratified-CV grid search live here too, so quantum and classical models run
through the identical fit/predict path.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .data import parse_labels, parse_records, read_table, sorted_unique, write_table


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


def fit_binary(kernel: np.ndarray, labels: np.ndarray, c: float = 1.0,
               tol: float = 1e-3, max_iter: int | None = None) -> BinarySVC:
    """SMO on the dual problem for labels in {-1, +1}.

    ``kernel`` must be the symmetric PSD train matrix, finite everywhere.
    Working sets are WSS2 (Fan, Chen & Lin, 2005): i is the maximal violator,
    and j the low-set t maximising b_t^2 / a_t, with b_t its violation
    against i and a_t = K_ii + K_tt - 2 K_it.  The stopping rule is
    unchanged: the maximal violating gap within ``tol``, so every training
    point meets its optimality condition to within ``tol``.
    """
    kernel = np.asarray(kernel, dtype=float)
    y = np.asarray(labels, dtype=float)
    m = y.shape[0]
    if kernel.shape != (m, m):
        raise ValueError("kernel must be square and match the label count")
    if not np.isfinite(kernel).all():
        raise ValueError("kernel must be finite (found NaN or inf)")
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise ValueError("binary labels must be -1 or +1")
    if not ((y > 0).any() and (y < 0).any()):
        raise ValueError("need both classes present to fit")
    if not c > 0:
        raise ValueError("c must be positive")
    if not tol > 0:
        raise ValueError("tol must be positive")
    if max_iter is None:
        max_iter = 200 * m + 10_000

    # The up set holds the t whose alpha_t * y_t can grow, the low set those
    # where it can shrink.  Each is a penalty row, 0 on the set and -inf (up)
    # or +inf (low) off it, so a scan over a set is one add into a buffer; an
    # empty set turns the gap into -inf.  Only alpha_i and alpha_j change per
    # step, so only their two penalty entries are rewritten.
    c = float(c)
    c_hi = c - 1e-12
    pos, below_c = y > 0, 0.0 < c_hi   # every alpha starts at 0
    up_pen = np.where(pos & below_c, 0.0, -np.inf)
    low_pen = np.where(~pos & below_c, 0.0, np.inf)
    ys = y.tolist()
    alpha = [0.0] * m
    # -y * gradient of 1/2 a'Qa - sum(a), which is y - kernel @ coef
    neg_yg = y.copy()
    diag = kernel.diagonal().copy()
    scan, b, quad = np.empty(m), np.empty(m), np.empty(m)
    it = 0
    gap = np.inf
    while it < max_iter:
        np.add(neg_yg, up_pen, out=scan)
        i = int(scan.argmax())
        g_i = scan.item(i)
        # b_t: how far t violates KKT against i; its max is the maximal violating gap
        np.add(neg_yg, low_pen, out=scan)
        np.subtract(g_i, scan, out=b)
        gap = b.max()
        if gap <= tol:
            break
        # j maximises b_t^2 / a_t, the dual gain of an unclipped step on (i, t)
        k_i = kernel[i]
        np.add(diag, diag[i], out=quad)
        np.multiply(k_i, 2.0, out=scan)
        np.subtract(quad, scan, out=quad)
        np.maximum(quad, 1e-12, out=quad)
        np.maximum(b, 0.0, out=scan)   # gap > tol > 0, so some t has b_t > 0
        np.multiply(scan, scan, out=scan)
        np.divide(scan, quad, out=scan)
        j = int(scan.argmax())
        y_i, y_j, a_i, a_j = ys[i], ys[j], alpha[i], alpha[j]
        step = min(b.item(j) / quad.item(j),
                   (c - a_i) if y_i > 0 else a_i,
                   a_j if y_j > 0 else (c - a_j))
        # clamped: when a cap binds, alpha + (c - alpha) can round past c
        alpha[i] = min(max(a_i + y_i * step, 0.0), c)
        alpha[j] = min(max(a_j - y_j * step, 0.0), c)
        for t, y_t in ((i, y_i), (j, y_j)):
            below_c, above_0 = alpha[t] < c_hi, alpha[t] > 1e-12
            up_pen[t] = 0.0 if (below_c if y_t > 0 else above_0) else -np.inf
            low_pen[t] = 0.0 if (above_0 if y_t > 0 else below_c) else np.inf
        np.subtract(k_i, kernel[j], out=scan)   # rows: kernel is symmetric
        np.multiply(scan, step, out=scan)
        np.subtract(neg_yg, scan, out=neg_yg)
        it += 1
    if gap > tol:
        raise RuntimeError(f"SMO did not converge in {max_iter} iterations (gap {gap})")

    alpha = np.array(alpha)
    coef = alpha * y
    fitted = kernel @ coef
    free = (alpha > 1e-8 * c) & (alpha < c * (1 - 1e-8))
    if free.any():
        bias = float(np.mean(y[free] - fitted[free]))
    else:
        up, low = up_pen == 0.0, low_pen == 0.0
        hi = neg_yg[up].max() if up.any() else 0.0
        lo = neg_yg[low].min() if low.any() else 0.0
        bias = float((hi + lo) / 2.0)
    return BinarySVC(coef, bias, it, float(max(gap, 0.0)))


def dual_objective(kernel: np.ndarray, labels: np.ndarray, alpha: np.ndarray) -> float:
    """Dual value sum(a) - 1/2 a'Qa, the quantity SMO maximizes."""
    y = np.asarray(labels, dtype=float)
    q = alpha * y
    return float(alpha.sum() - 0.5 * q @ np.asarray(kernel, dtype=float) @ q)


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
    classes = sorted_unique(labels)
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
    if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
        raise ValueError("xs and ys must be finite (found NaN or inf)")
    d = xs[:, None, :] - ys[None, :, :]
    return np.sum(d * d, axis=2)


def rbf_matrix(xs, ys=None, gamma: float = 1.0) -> np.ndarray:
    """exp(-gamma * squared distance)."""
    if not 0 < gamma < np.inf:
        raise ValueError(f"gamma must be positive and finite, got {gamma!r}")
    return np.exp(-gamma * _sq_dists(xs, ys))


def generalized_rbf_matrix(xs, ys=None, gamma1: float = 1.0, sigma1: float = 1.0,
                           gamma2: float = 0.0, sigma2: float = 1.0) -> np.ndarray:
    """Two-width mixture gamma1*exp(-r^2/(2 s1^2)) + gamma2*exp(-r^2/(2 s2^2)).

    Each weight must be finite and >= 0, not both 0, and each width positive
    with a positive finite float square.
    """
    if not (0.0 <= gamma1 < np.inf and 0.0 <= gamma2 < np.inf) or gamma1 == gamma2 == 0.0:
        raise ValueError(f"weights must be finite, >= 0 and not both 0, got {gamma1!r}, {gamma2!r}")
    for sigma in (sigma1, sigma2):
        if not (sigma > 0 and 0.0 < float(sigma) * float(sigma) < np.inf):
            raise ValueError(f"widths must be positive with a positive finite square, "
                             f"got {sigma!r}")
    sq = _sq_dists(xs, ys)
    return gamma1 * np.exp(-sq / (2.0 * sigma1 ** 2)) + gamma2 * np.exp(-sq / (2.0 * sigma2 ** 2))


# ---------------------------------------------------------------------------
# stratified cross-validated grid search over precomputed kernels
# ---------------------------------------------------------------------------

def stratified_folds(labels, n_folds: int, seed: int = 0) -> np.ndarray:
    """Fold id per sample; each class is shuffled then dealt round-robin."""
    if n_folds < 2:
        raise ValueError(f"n_folds must be at least 2, got {n_folds}")
    labels = np.asarray(labels)
    rng = np.random.default_rng(seed)
    fold = np.empty(labels.shape[0], dtype=int)
    for cls in sorted_unique(labels):
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

_MODEL_HEADER = ["kind", "i", "j", "value"]


def save_model_csv(model: MulticlassSVC, path) -> None:
    """Records file: class list, pair memberships, biases, nonzero dual coefs."""
    rows = [["meta", str(model.n_train), str(len(model.pair_classes)), repr(model.c)]]
    rows += (["class", str(k), "", str(cls)] for k, cls in enumerate(model.classes))
    for p, ((a, b), bias) in enumerate(zip(model.pair_classes.tolist(), model.biases.tolist())):
        rows += (["pair", str(p), str(a), str(b)], ["bias", str(p), "", repr(bias)])
    pairs, idx = np.nonzero(model.coefs)
    rows += (["coef", str(p), str(i), repr(v)] for p, i, v in
             zip(pairs.tolist(), idx.tolist(), model.coefs[pairs, idx].tolist()))
    write_table(path, _MODEL_HEADER, rows)


_MODEL_VALUES = {"class": lambda j, v: v, "pair": lambda j, v: (int(j), int(v)),
                 "bias": lambda j, v: float(v)}


def load_model_csv(path) -> MulticlassSVC:
    """Read ``save_model_csv``'s records back.  A ValueError names ``path``
    unless the file has one ``meta`` record, first, class indices 0..k-1, and
    one ``bias`` and one ``pair`` per pair index, the pairs being the
    one-vs-one class pairs."""
    records = read_table(path)
    if len(records) < 2 or records[0][1] != _MODEL_HEADER or records[1][1][0] != "meta":
        raise ValueError(f"{path}: not a model records file")
    [(n_train, n_pairs, c)] = parse_records(
        path, records[1:2], lambda cells: (int(cells[1]), int(cells[2]), float(cells[3])))
    if min(n_train, n_pairs) < 1:
        raise ValueError(f"{path}: line {records[1][0]}: meta needs positive counts")
    coefs = np.zeros((n_pairs, n_train))
    tables = {kind: [] for kind in _MODEL_VALUES}

    def record(cells) -> None:
        kind, i, j, value = cells
        if kind in tables:
            tables[kind].append((int(i), _MODEL_VALUES[kind](j, value)))
        elif kind == "coef" and 0 <= int(i) < n_pairs and 0 <= int(j) < n_train:
            coefs[int(i), int(j)] = float(value)
        else:
            raise ValueError(f"unexpected {kind!r} record ({i}, {j})")

    parse_records(path, records[2:], record)
    values = {}
    for kind, size in (("class", len(tables["class"])), ("pair", n_pairs), ("bias", n_pairs)):
        keys = sorted(i for i, _ in tables[kind])
        if keys != list(range(size)):
            raise ValueError(f"{path}: {kind} indices must be 0..{size - 1} once each, got {keys}")
        values[kind] = [v for _, v in sorted(tables[kind], key=lambda rec: rec[0])]
    k, pairs = len(values["class"]), values["pair"]
    if sorted(pairs) != list(combinations(range(k), 2)):
        raise ValueError(f"{path}: pairs {pairs} are not the one-vs-one pairs of {k} classes")
    return MulticlassSVC(parse_labels(values["class"]), np.array(pairs), coefs,
                         np.array(values["bias"]), c)
