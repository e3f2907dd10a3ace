"""The analytical latency estimator (paper §V-B2).

A single global regression model maps the five device-agnostic network
features (:mod:`repro.estimators.features`) to inference latency. The
paper's configuration is an ε-SVR with RBF kernel, γ = 0.1 and C = 1e6,
tuned by 10-fold cross-validated grid search on a 20% training split and
evaluated on the remaining 80%; this module reproduces that protocol and
also exposes the linear-regression baseline for the ablation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .features import NetworkFeatures
from .linear import LinearRegression
from .model_selection import GridSearchResult, grid_search
from .svr import SVR

__all__ = ["AnalyticalEstimator", "PAPER_GAMMA", "PAPER_C",
           "train_test_split_indices"]

#: The paper's tuned hyper-parameters.
PAPER_GAMMA = 0.1
PAPER_C = 1e6


def train_test_split_indices(n: int, train_fraction: float = 0.2,
                             rng: np.random.Generator | int = 0
                             ) -> tuple[np.ndarray, np.ndarray]:
    """The paper's split: tune/fit on 20%, test on the remaining 80%."""
    rng = np.random.default_rng(rng)
    order = rng.permutation(n)
    k = max(2, int(round(n * train_fraction)))
    return order[:k], order[k:]


@dataclass
class AnalyticalEstimator:
    """SVR-based (or linear-baseline) latency predictor over network features."""

    kernel: str = "rbf"
    gamma: float = PAPER_GAMMA
    c: float = PAPER_C
    epsilon: float = 1e-3
    model: object | None = None
    search_result: GridSearchResult | None = None

    @staticmethod
    def design_matrix(features: list[NetworkFeatures]) -> np.ndarray:
        """Feature matrix with heavy-tailed counts on a log scale.

        FLOPs, parameter and filter-size counts span two orders of
        magnitude across the zoo; the RBF kernel (and its single γ) behaves
        far better when those axes are log-compressed before the internal
        standardisation.
        """
        x = np.stack([f.as_array() for f in features])
        for col in (1, 2, 4):  # total_flops, total_params, total_filter_size
            x[:, col] = np.log10(np.maximum(x[:, col], 1.0))
        return x

    def fit(self, features: list[NetworkFeatures],
            latencies_ms: np.ndarray) -> "AnalyticalEstimator":
        """Fit on feature/latency pairs with the configured hyper-parameters."""
        x = self.design_matrix(features)
        y = np.asarray(latencies_ms, dtype=np.float64)
        if self.kernel == "linear-ols":
            self.model = LinearRegression().fit(x, y)
        else:
            self.model = SVR(c=self.c, gamma=self.gamma,
                             epsilon=self.epsilon,
                             kernel=self.kernel).fit(x, y)
        return self

    def tune(self, features: list[NetworkFeatures],
             latencies_ms: np.ndarray,
             gammas: tuple[float, ...] = (1e-3, 1e-2, 1e-1, 1.0),
             cs: tuple[float, ...] = (1e2, 1e4, 1e6),
             folds: int = 10,
             rng: np.random.Generator | int = 0) -> "AnalyticalEstimator":
        """10-fold cross-validated grid search, then refit on all data."""
        if self.kernel == "linear-ols":
            return self.fit(features, latencies_ms)
        x = self.design_matrix(features)
        y = np.asarray(latencies_ms, dtype=np.float64)
        self.search_result = grid_search(
            lambda gamma, c: SVR(c=c, gamma=gamma, epsilon=self.epsilon,
                                 kernel=self.kernel),
            {"gamma": list(gammas), "c": list(cs)}, x, y, k=folds, rng=rng)
        self.gamma = self.search_result.best_params["gamma"]
        self.c = self.search_result.best_params["c"]
        return self.fit(features, latencies_ms)

    def predict(self, features: list[NetworkFeatures]) -> np.ndarray:
        """Predicted latencies (ms) for a list of feature vectors."""
        if self.model is None:
            raise RuntimeError("estimator is not fitted")
        return self.model.predict(self.design_matrix(features))

    def predict_one(self, features: NetworkFeatures) -> float:
        """Predicted latency of a single network."""
        return float(self.predict([features])[0])
