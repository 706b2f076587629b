"""Linear models: logistic regression, ridge, and the online family
(perceptron, hinge SGD, passive-aggressive).

Margin models score with the raw signed margin; only logistic regression
is probabilistic here, and it computes each trial point's margins
``X @ w + b`` once, for its loss and then, if the step is taken, for the
next gradient.

The online models give the bits of a plain per-row loop over each epoch's
shuffle, but they visit most rows a block at a time. A row changes ``w``
and ``b`` only when its margin ``m = sign * (x @ w + b)`` falls below the
model's threshold (perceptron: ``m <= 0``; hinge SGD and PA: ``m < 1``).
One matrix product gives the margins of a block of upcoming rows. Any two
summation orders of ``x @ w`` differ by at most about
``d * eps * (|x| @ |w|)``, and adding ``b`` rounds once more, so a row
whose block margin clears the threshold by
``slack = 2 (d + 2) eps (|x| @ |w|) + 4 eps (|m| + |b| + 1)`` cannot
update under the per-row expression either, and it is skipped. Every other
row of the block (a NaN margin included) is re-checked in order with the
per-row expression; the first one that really updates takes the per-row
update, and the epoch resumes at the row after it. Perceptron and PA
change ``w`` and ``b`` only on an update, so after an epoch with none no
later row can update, and they stop there. Hinge SGD also shrinks ``w`` on
every row, so it runs every epoch. A block rebuilds those shrinks with
``np.multiply.accumulate``, which does the same multiplications in the
same order, and computes each step size with the per-row operations, so
the ``w`` that each row sees is the per-row loop's, bit for bit.

Blocks pay only where updates are rare: screening a block costs about as
much as ten to twenty per-row steps, whatever its length, so it loses
time where updates come less than a few dozen rows apart. After an
update the models step row by row until ``_EXACT_RUN`` rows in a row
leave ``w`` unchanged; then they screen blocks of ``_MIN_BLOCK`` to
``_MAX_BLOCK`` rows, doubling the length after a clean block and halving
it after an update. Where updates are dense, a clean run that long is
rare, and the fit costs about what the per-row loop costs.
"""

import numpy as np

from ..base import derive_rng
from ..validation import SEED, count, real
from .base import BinaryClassifier

# Clean rows in a row before blocks are screened, and the block lengths.
# Chosen by timing fits with updates every 1 to 1,000 rows: a shorter run
# or block loses up to 1.8x where an update comes every 5-20 rows.
_EXACT_RUN = 32
_MIN_BLOCK = 32
_MAX_BLOCK = 1024
_EPS = np.finfo(np.float64).eps


def _sigmoid(z):
    # exp of -|z| never overflows; for z < 0 it is exp(z), so z >= 0 gives
    # 1 / (1 + exp(-z)) and z < 0 gives exp(z) / (1 + exp(z))
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def logistic_loss(z, signs, w, l2):
    """Mean log-loss plus l2/2 * ||w||^2 (bias unregularized), from the
    margins ``z = X @ w + b`` and the +-1 labels ``signs``."""
    return float(np.logaddexp(0.0, -(z * signs)).mean() + 0.5 * l2 * (w @ w))


def logistic_gradient(z, X, y, w, l2):
    residual = _sigmoid(z) - y
    grad_w = X.T @ residual / X.shape[0] + l2 * w
    grad_b = float(residual.mean())
    return grad_w, grad_b


class _LinearModel(BinaryClassifier):
    def _score(self, X):
        return X @ self.coef_ + self.intercept_


class LogisticRegression(_LinearModel):
    """Full-batch gradient descent with Armijo backtracking line search."""

    supports_probability = True

    options = {"l2": (1e-4, real(0)), "max_epochs": (500, count(1)), "tol": (1e-8, real(0))}

    def _fit(self, X, y):
        y = y.astype(np.float64)
        signs = 2.0 * y - 1.0
        w = np.zeros(X.shape[1])
        b = 0.0
        z = X @ w + b
        loss = logistic_loss(z, signs, w, self.l2)
        step = 1.0
        for _ in range(self.max_epochs):
            grad_w, grad_b = logistic_gradient(z, X, y, w, self.l2)
            grad_sq = float(grad_w @ grad_w) + grad_b * grad_b
            if grad_sq == 0.0:
                break
            step = min(step * 2.0, 1e6)
            while step > 1e-16:
                new_w = w - step * grad_w
                new_b = b - step * grad_b
                new_z = X @ new_w + new_b
                new_loss = logistic_loss(new_z, signs, new_w, self.l2)
                if new_loss <= loss - 1e-4 * step * grad_sq:
                    break
                step *= 0.5
            else:
                break
            converged = abs(loss - new_loss) < self.tol
            w, b, z, loss = new_w, new_b, new_z, new_loss
            if converged:
                break
        self.coef_ = w
        self.intercept_ = b

    def _score(self, X):
        return _sigmoid(super()._score(X))


class RidgeClassifier(_LinearModel):
    """Closed-form least squares on +-1 targets, unpenalized intercept."""

    options = {"l2": (1.0, real(0))}

    def _fit(self, X, y):
        targets = 2.0 * y - 1.0
        x_mean = X.mean(axis=0)
        t_mean = targets.mean()
        Xc = X - x_mean
        gram = Xc.T @ Xc + self.l2 * np.eye(X.shape[1])
        rhs = Xc.T @ (targets - t_mean)
        jitter = 1e-10 * max(np.trace(gram) / X.shape[1], 1.0)
        for attempt in range(6):
            try:
                chol = np.linalg.cholesky(gram)
                break
            except np.linalg.LinAlgError:
                self.fit_flags_.add("ridge_jitter")
                gram = gram + jitter * np.eye(X.shape[1])
                jitter *= 100.0
        else:
            raise np.linalg.LinAlgError("ridge system not positive definite")
        w = np.linalg.solve(chol.T, np.linalg.solve(chol, rhs))
        self.coef_ = w
        self.intercept_ = float(t_mean - x_mean @ w)


def _candidates(Xb, signs_b, w, b, threshold):
    """Positions in a block of rows whose per-row margin may not clear
    ``threshold``. ``w`` is one weight vector, or one per block row."""
    if w.ndim == 1:
        dots, bound = Xb @ w, np.abs(Xb) @ np.abs(w)
    else:
        dots = np.einsum("ij,ij->i", Xb, w)
        bound = np.einsum("ij,ij->i", np.abs(Xb), np.abs(w))
    margins = signs_b * (dots + b)
    slack = 2.0 * (Xb.shape[1] + 2) * _EPS * bound + 4.0 * _EPS * (
        np.abs(margins) + abs(b) + 1.0
    )
    # a NaN, and inf - inf from an overflowed bound, count as candidates;
    # Python ints keep hinge SGD's step counter off numpy scalar arithmetic
    return np.flatnonzero(~(margins - slack >= threshold)).tolist()


class _Screen:
    """Splits each epoch into per-row steps and screened blocks."""

    def __init__(self):
        self.clean = _EXACT_RUN  # rows since the last update; none yet
        self.length = _MIN_BLOCK

    def epoch(self, order, step, scan):
        """Run ``order`` through ``step(i)``, which takes the per-row step
        on row ``i`` and says whether it updated, and ``scan(rows)``, which
        stops a block after its first update and returns how many rows it
        took and whether it updated. Returns the number of updates."""
        clean, length = self.clean, self.length
        updates = 0
        pos, n = 0, len(order)
        rows = order.tolist()  # Python ints index faster than numpy ints
        while pos < n:
            if clean < _EXACT_RUN:
                if step(rows[pos]):
                    updates += 1
                    clean = 0
                else:
                    clean += 1
                pos += 1
                continue
            taken, updated = scan(order[pos:pos + length])
            pos += taken
            if updated:
                updates += 1
                clean = 0
                length = max(length // 2, _MIN_BLOCK)
            else:
                clean += taken
                length = min(2 * length, _MAX_BLOCK)
        self.clean, self.length = clean, length
        return updates


class _UpdateOnMargin(_LinearModel):
    """Perceptron and PA: ``w`` and ``b`` change only on an update, so after
    an epoch without one no later row can update, and the fit stops there.
    ``_step_size(X)`` gives ``size(i, margin)``: the step for row ``i``, or
    None where the row does not update; ``threshold`` is the margin a row
    must reach to be left alone."""

    def _fit(self, X, y):
        signs = 2.0 * y - 1.0
        w = np.zeros(X.shape[1])
        b = 0.0
        size = self._step_size(X)

        def step(i):
            nonlocal w, b
            x, s = X[i], signs[i]
            eta = size(i, s * (x @ w + b))
            if eta is None:
                return False
            w += eta * s * x
            b += eta * s
            return True

        def scan(rows):
            for k in _candidates(X[rows], signs[rows], w, b, self.threshold):
                if step(rows[k]):
                    return k + 1, True
            return rows.size, False

        screen = _Screen()
        for epoch in range(self.epochs):
            order = derive_rng(self.seed, "shuffle", epoch).permutation(X.shape[0])
            if screen.epoch(order, step, scan) == 0:
                break
        self.coef_ = w
        self.intercept_ = b


class Perceptron(_UpdateOnMargin):
    """Rosenblatt updates over seeded per-epoch shuffles."""

    threshold = 0.0

    options = {
        "epochs": (50, count(1)),
        "learning_rate": (1.0, real(0, strict=True)),
        "seed": SEED,
    }

    def _step_size(self, X):
        rate = self.learning_rate
        return lambda i, margin: rate if margin <= 0.0 else None


class HingeSGD(_LinearModel):
    """Linear SVM objective by SGD: hinge loss with l2 shrinkage."""

    options = {
        "l2": (1e-4, real(0, strict=True)),
        "epochs": (50, count(1)),
        "eta0": (0.01, real(0, strict=True)),
        "seed": SEED,
    }

    def _fit(self, X, y):
        signs = 2.0 * y - 1.0
        w = np.zeros(X.shape[1])
        b = 0.0
        l2 = self.l2
        t0 = 1.0 / (l2 * self.eta0)
        t = 0

        def step(i):
            nonlocal w, b, t
            t += 1
            eta = 1.0 / (l2 * (t0 + t))
            w *= 1.0 - eta * l2
            x, s = X[i], signs[i]
            if s * (x @ w + b) < 1.0:
                w += eta * s * x
                b += eta * s
                return True
            return False

        def scan(rows):
            nonlocal t
            start = t
            eta = 1.0 / (l2 * (t0 + np.arange(start + 1, start + rows.size + 1)))
            # row k holds w after the shrinks of the block's first k rows
            shrunk = np.empty((rows.size + 1, w.size))
            shrunk[0] = w
            shrunk[1:] = (1.0 - eta * l2)[:, None]
            np.multiply.accumulate(shrunk, axis=0, out=shrunk)
            for k in _candidates(X[rows], signs[rows], shrunk[1:], b, 1.0):
                # step repeats row k's shrink from the w before it
                w[:] = shrunk[k]
                t = start + k
                if step(rows[k]):
                    return k + 1, True
            w[:] = shrunk[-1]
            t = start + rows.size
            return rows.size, False

        screen = _Screen()
        for epoch in range(self.epochs):
            order = derive_rng(self.seed, "shuffle", epoch).permutation(X.shape[0])
            screen.epoch(order, step, scan)
        self.coef_ = w
        self.intercept_ = b


class PassiveAggressive(_UpdateOnMargin):
    """PA-I: step size tau = min(C, hinge loss / ||x||^2), bias augmented."""

    threshold = 1.0

    options = {
        "aggressiveness": (1.0, real(0, strict=True)),
        "epochs": (50, count(1)),
        "seed": SEED,
    }

    def _step_size(self, X):
        sq_norms = (X * X).sum(axis=1) + 1.0  # +1 for the bias coordinate
        cap = self.aggressiveness

        def size(i, margin):
            loss = 1.0 - margin
            return min(cap, loss / sq_norms[i]) if loss > 0.0 else None

        return size
