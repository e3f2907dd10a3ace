"""ε-Support Vector Regression with an RBF kernel, implemented from scratch.

The paper's analytical latency estimator is an ε-SVR with a Radial Basis
Function kernel (γ = 0.1, C = 1e6, tuned by 10-fold cross-validated grid
search). No SVM library is available offline, so this module solves the
SVR dual directly.

Formulation: with β_i = α_i − α_i* ∈ [−C, C], the dual problem is

    min_β  ½ βᵀ K̃ β − yᵀ β + ε ‖β‖₁

where ``K̃ = K + 1`` absorbs the bias into the kernel (the standard
penalised-intercept trick, which removes the equality constraint Σβ = 0 and
makes exact coordinate descent applicable; the recovered intercept is
``b = Σ_i β_i``). The solver is cyclic dual coordinate descent: one
coordinate at a time, in index order, each update a closed-form
soft-threshold clipped to the box. It stops after ``max_iter`` sweeps or
when a sweep's largest step falls below ``tol`` (relative to the targets);
online re-estimation's small, duplicate-heavy fits usually run every sweep.

The sweep runs on Python floats, with only the rank-one update of ``K̃ β``
vectorised, but performs exactly the IEEE operations of the plain NumPy
loop, in the same order: β, and so every prediction, is bit-identical to
that loop's (``tests/test_estimators.py`` keeps it as the reference).

Inputs are standardised internally (zero mean, unit variance per feature,
and centred targets) because the RBF kernel is scale-sensitive and the
latency features span many orders of magnitude (FLOPs vs. layer counts).
"""

from __future__ import annotations

import numpy as np

__all__ = ["rbf_kernel", "SVR"]


def rbf_kernel(a: np.ndarray, b: np.ndarray, gamma: float) -> np.ndarray:
    """Gram matrix ``exp(-γ‖a_i − b_j‖²)`` for row-vector inputs."""
    a = np.atleast_2d(a)
    b = np.atleast_2d(b)
    sq = (np.sum(a * a, axis=1)[:, None] + np.sum(b * b, axis=1)[None, :]
          - 2.0 * a @ b.T)
    return np.exp(-gamma * np.maximum(sq, 0.0))


class SVR:
    """ε-SVR with RBF (or linear) kernel solved by dual coordinate descent.

    Parameters
    ----------
    c:
        Box constraint (regularisation); the paper uses 1e6.
    gamma:
        RBF kernel coefficient; the paper uses 0.1.
    epsilon:
        Width of the ε-insensitive tube.
    kernel:
        ``"rbf"`` or ``"linear"`` (the paper's weak baseline).
    max_iter / tol:
        Solver limits: full passes over the coordinates, and the early
        stop on a pass whose largest step is below ``tol`` times
        ``max(1, max |y − ȳ|)``.

    Out-of-range parameters raise ``ValueError`` here; ``fit`` rejects
    empty or non-finite input and ``predict`` a feature-count mismatch.
    """

    def __init__(self, c: float = 1e6, gamma: float = 0.1,
                 epsilon: float = 1e-3, kernel: str = "rbf",
                 max_iter: int = 400, tol: float = 1e-6):
        if kernel not in ("rbf", "linear"):
            raise ValueError(f"unknown kernel {kernel!r}")
        # negated comparisons also reject NaN
        if not c > 0:
            raise ValueError(f"c must be positive, got {c}")
        if not gamma > 0:
            raise ValueError(f"gamma must be positive, got {gamma}")
        if not epsilon >= 0:
            raise ValueError(f"epsilon must be non-negative, got {epsilon}")
        if not max_iter >= 1:
            raise ValueError(f"max_iter must be at least 1, got {max_iter}")
        if not tol >= 0:
            raise ValueError(f"tol must be non-negative, got {tol}")
        self.c = float(c)
        self.gamma = float(gamma)
        self.epsilon = float(epsilon)
        self.kernel = kernel
        self.max_iter = int(max_iter)
        self.tol = float(tol)
        self._x: np.ndarray | None = None
        self._beta: np.ndarray | None = None
        self._x_mean: np.ndarray | None = None
        self._x_std: np.ndarray | None = None
        self._y_mean: float = 0.0

    # -- internals ----------------------------------------------------------
    def _gram(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if self.kernel == "rbf":
            return rbf_kernel(a, b, self.gamma) + 1.0
        return a @ b.T + 1.0

    def _standardise(self, x: np.ndarray) -> np.ndarray:
        return (x - self._x_mean) / self._x_std

    # -- API ----------------------------------------------------------------
    def fit(self, x: np.ndarray, y: np.ndarray) -> "SVR":
        """Fit on feature rows ``x`` and targets ``y``."""
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if x.ndim != 2 or y.ndim != 1 or x.shape[0] != y.shape[0]:
            raise ValueError("x must be (n, d) and y must be (n,)")
        if x.shape[0] == 0:
            raise ValueError("cannot fit on zero samples")
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise ValueError("x and y must be finite")
        self._x_mean = x.mean(axis=0)
        std = x.std(axis=0)
        self._x_std = np.where(std > 1e-12, std, 1.0)
        xs = self._standardise(x)
        self._y_mean = float(y.mean())
        yc = y - self._y_mean
        stop = self.tol * max(1.0, float(np.abs(yc).max()))

        n = xs.shape[0]
        k = self._gram(xs, xs)
        cols = list(np.ascontiguousarray(k.T))   # cols[i] is K̃[:, i]
        diag = np.maximum(np.diag(k), 1e-12).tolist()
        targets = yc.tolist()
        eps, c = self.epsilon, self.c
        beta = [0.0] * n
        kbeta = np.zeros(n)  # K̃ @ beta, maintained incrementally
        step = np.empty(n)   # delta * K̃[:, i]
        for _ in range(self.max_iter):
            max_delta = 0.0
            for i in range(n):
                a = diag[i]
                # affine coefficient (K̃β)_i − y_i − a β_i, grouped left
                # to right as written: a regrouping changes β's last bits
                b_aff = kbeta.item(i) - targets[i] - a * beta[i]
                # closed-form minimiser of ½a t² + b t + ε|t| on [-C, C]:
                # soft-threshold of -b/a at ε/a
                if b_aff > eps:
                    cand = -(b_aff - eps) / a
                elif b_aff < -eps:
                    cand = -(b_aff + eps) / a
                else:
                    cand = 0.0
                new = min(max(cand, -c), c)
                delta = new - beta[i]
                if delta != 0.0:
                    beta[i] = new
                    np.multiply(cols[i], delta, out=step)
                    kbeta += step
                    max_delta = max(max_delta, abs(delta))
            if max_delta < stop:
                break
        self._x = xs
        self._beta = np.array(beta)
        return self

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Predict targets for feature rows ``x``."""
        if self._beta is None:
            raise RuntimeError("SVR is not fitted")
        x = np.asarray(x, dtype=np.float64)
        if x.shape[-1:] != self._x.shape[1:]:
            raise ValueError(f"x has shape {x.shape}; the model was "
                             f"fitted on {self._x.shape[1]} features")
        k = self._gram(self._standardise(x), self._x)
        return k @ self._beta + self._y_mean

    @property
    def support_count(self) -> int:
        """Number of support vectors (non-zero dual coefficients)."""
        if self._beta is None:
            raise RuntimeError("SVR is not fitted")
        return int(np.sum(np.abs(self._beta) > 1e-10))
