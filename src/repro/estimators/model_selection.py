"""Model selection: k-fold cross-validation, grid search and random search.

The paper tunes the SVR hyper-parameters (γ = 0.1, C = 1e6) with 10-fold
cross-validated *grid* search on a 20% training split, noting that grid
search outperformed random search at this small sample size. Both searches
are implemented so the ablation benchmark can reproduce that comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["kfold_indices", "cross_val_error", "GridSearchResult",
           "grid_search", "random_search", "relative_error",
           "stratified_split_indices"]


def relative_error(pred: np.ndarray, truth: np.ndarray) -> float:
    """Mean absolute relative error in percent (the paper's error metric)."""
    truth = np.asarray(truth, dtype=np.float64)
    pred = np.asarray(pred, dtype=np.float64)
    return float(100.0 * np.mean(np.abs(pred - truth)
                                 / np.maximum(np.abs(truth), 1e-12)))


def stratified_split_indices(groups: list[str], train_fraction: float = 0.2
                             ) -> tuple[np.ndarray, np.ndarray]:
    """Per-group evenly spaced train/test split.

    For latency estimation, the training sample must cover each base
    network's whole cutpoint range: a purely random 20% can leave a
    network's shallow cuts unobserved, and the RBF kernel extrapolates
    poorly outside the observed range. This split takes, within each group
    (base network), evenly spaced members — always including the first and
    last — as training points.
    """
    groups = list(groups)
    by_group: dict[str, list[int]] = {}
    for i, g in enumerate(groups):
        by_group.setdefault(g, []).append(i)
    train: list[int] = []
    for members in by_group.values():
        k = max(2, int(round(len(members) * train_fraction)))
        k = min(k, len(members))
        picks = np.unique(np.linspace(0, len(members) - 1, k).round()
                          .astype(int))
        train.extend(members[p] for p in picks)
    train_arr = np.array(sorted(train))
    test_arr = np.array([i for i in range(len(groups))
                         if i not in set(train)])
    return train_arr, test_arr


def kfold_indices(n: int, k: int,
                  rng: np.random.Generator | int = 0
                  ) -> list[tuple[np.ndarray, np.ndarray]]:
    """Shuffled k-fold (train_idx, val_idx) pairs covering ``range(n)``."""
    if not 2 <= k <= n:
        raise ValueError(f"need 2 <= k <= n, got k={k}, n={n}")
    rng = np.random.default_rng(rng)
    order = rng.permutation(n)
    folds = np.array_split(order, k)
    pairs = []
    for i, val in enumerate(folds):
        train = np.concatenate([f for j, f in enumerate(folds) if j != i])
        pairs.append((train, val))
    return pairs


def cross_val_error(model_factory: Callable[[], object], x: np.ndarray,
                    y: np.ndarray, k: int = 10,
                    rng: np.random.Generator | int = 0) -> float:
    """Mean k-fold relative error of models from ``model_factory``."""
    errors = []
    for train_idx, val_idx in kfold_indices(x.shape[0], min(k, x.shape[0]),
                                            rng):
        model = model_factory()
        model.fit(x[train_idx], y[train_idx])
        errors.append(relative_error(model.predict(x[val_idx]), y[val_idx]))
    return float(np.mean(errors))


@dataclass(frozen=True)
class GridSearchResult:
    """Best hyper-parameters and the full evaluation table."""

    best_params: dict[str, float]
    best_error: float
    table: tuple[tuple[dict[str, float], float], ...]


def _evaluate(model_factory, candidates, x, y, k, rng) -> GridSearchResult:
    table = []
    for params in candidates:
        err = cross_val_error(lambda: model_factory(**params), x, y, k, rng)
        table.append((params, err))
    best_params, best_error = min(table, key=lambda t: t[1])
    return GridSearchResult(best_params, best_error, tuple(table))


def grid_search(model_factory: Callable[..., object],
                param_grid: dict[str, list[float]], x: np.ndarray,
                y: np.ndarray, k: int = 10,
                rng: np.random.Generator | int = 0) -> GridSearchResult:
    """Exhaustive cross-validated search over the Cartesian grid."""
    names = list(param_grid)
    candidates: list[dict[str, float]] = [{}]
    for name in names:
        candidates = [dict(c, **{name: v}) for c in candidates
                      for v in param_grid[name]]
    return _evaluate(model_factory, candidates, x, y, k, rng)


def random_search(model_factory: Callable[..., object],
                  param_ranges: dict[str, tuple[float, float]],
                  x: np.ndarray, y: np.ndarray, n_samples: int = 20,
                  k: int = 10,
                  rng: np.random.Generator | int = 0) -> GridSearchResult:
    """Cross-validated search over log-uniform random samples.

    ``param_ranges`` maps each hyper-parameter to ``(low, high)`` bounds;
    samples are drawn log-uniformly, the usual choice for scale parameters
    like C and γ.
    """
    rng = np.random.default_rng(rng)
    candidates = []
    for _ in range(n_samples):
        params = {name: float(np.exp(rng.uniform(np.log(lo), np.log(hi))))
                  for name, (lo, hi) in param_ranges.items()}
        candidates.append(params)
    return _evaluate(model_factory, candidates, x, y, k, rng=0)
