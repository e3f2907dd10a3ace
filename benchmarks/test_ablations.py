"""Ablations of the design choices DESIGN.md calls out.

- the profiler estimator's *ratio* formula vs the naive raw-difference
  (the paper's stated reason for the ratio);
- the head-share correction vs the verbatim paper formula (a deviation
  this reproduction documents — the paper's networks are deep enough that
  the head is negligible; ours are not);
- RBF vs linear SVR kernel;
- cross-validated grid search vs random search (the paper found grid
  search better at this sample size);
- the stratified 20% split vs a purely random one for the analytical
  model (random splits let the RBF model extrapolate and fail).
"""

import numpy as np
import pytest

from repro.estimators import SVR, grid_search, random_search, relative_error
from repro.trim import removed_node_set

from conftest import emit


@pytest.fixture(scope="module")
def truth(latency_points):
    return np.array([p.measured_ms for p in latency_points])


def test_ablation_ratio_vs_raw_difference(wb, latency_points, truth,
                                          benchmark):
    profiler = wb.profiler_adapter()

    def both():
        ratio_pred, raw_pred = [], []
        for p in latency_points:
            base = wb.base(p.base_name)
            est = profiler.estimator_for(base)
            removed = removed_node_set(base, p.cut_node)
            ratio_pred.append(est.estimate(removed))
            raw_pred.append(est.estimate_raw_difference(removed))
        return np.array(ratio_pred), np.array(raw_pred)

    ratio_pred, raw_pred = benchmark.pedantic(both, rounds=1, iterations=1)
    ratio_err = relative_error(ratio_pred, truth)
    raw_err = relative_error(raw_pred, truth)
    emit("ablation_ratio_formula", [
        f"ratio formula:      {ratio_err:.2f}%",
        f"raw difference:     {raw_err:.2f}%",
        "paper: the raw sum overestimates because CUDA events inflate "
        "every per-layer record"])
    assert ratio_err < raw_err
    # the raw difference systematically overestimates
    assert np.mean(raw_pred - truth) > 0


def test_ablation_head_correction(wb, latency_points, truth, benchmark):
    """The verbatim paper formula scales the head away on deep cuts; the
    head-share correction removes that bias at this repository's scale."""
    profiler = wb.profiler_adapter()

    def both():
        corrected, verbatim = [], []
        for p in latency_points:
            base = wb.base(p.base_name)
            est = profiler.estimator_for(base)
            removed = removed_node_set(base, p.cut_node)
            corrected.append(est.estimate(removed))
            verbatim.append(est.estimate_paper(removed))
        return np.array(corrected), np.array(verbatim)

    corrected, verbatim = benchmark.pedantic(both, rounds=1, iterations=1)
    corr_err = relative_error(corrected, truth)
    verb_err = relative_error(verbatim, truth)
    # restrict to deep cuts (> 8 blocks removed) where the bias matters
    deep = np.array([p.blocks_removed > 8 for p in latency_points])
    corr_deep = relative_error(corrected[deep], truth[deep])
    verb_deep = relative_error(verbatim[deep], truth[deep])
    emit("ablation_head_correction", [
        f"all cuts:  corrected {corr_err:.2f}%  verbatim {verb_err:.2f}%",
        f"deep cuts: corrected {corr_deep:.2f}%  verbatim {verb_deep:.2f}%"])
    assert corr_err < verb_err
    assert corr_deep < 0.5 * verb_deep


def test_ablation_rbf_vs_linear_kernel(wb, latency_points, truth,
                                       benchmark):
    """RBF-SVR vs linear-kernel SVR vs OLS over the same features."""
    from repro.estimators import AnalyticalEstimator
    from repro.estimators.model_selection import stratified_split_indices

    train_idx, test_idx = stratified_split_indices(
        [p.base_name for p in latency_points], 0.2)
    feats_train = [latency_points[i].features for i in train_idx]
    y_train = truth[train_idx]
    feats_test = [latency_points[i].features for i in test_idx]
    y_test = truth[test_idx]

    def fit_all():
        errs = {}
        for kernel in ("rbf", "linear", "linear-ols"):
            model = AnalyticalEstimator(kernel=kernel).fit(feats_train,
                                                           y_train)
            errs[kernel] = relative_error(model.predict(feats_test), y_test)
        return errs

    errs = benchmark.pedantic(fit_all, rounds=1, iterations=1)
    emit("ablation_kernels", [f"{k}: {v:.2f}%" for k, v in errs.items()])
    assert errs["rbf"] < errs["linear"]
    assert errs["rbf"] < errs["linear-ols"]


def test_ablation_grid_vs_random_search(wb, latency_points, truth,
                                        benchmark):
    """The paper: 'grid search outperforms random search in tuning the
    hyper-parameters as the sample size was not huge'. We assert the
    weaker, robust property: grid search never does worse than random
    search by more than a small margin, at equal budget."""
    from repro.estimators import AnalyticalEstimator
    from repro.estimators.model_selection import stratified_split_indices

    train_idx, _ = stratified_split_indices(
        [p.base_name for p in latency_points], 0.2)
    x = AnalyticalEstimator.design_matrix(
        [latency_points[i].features for i in train_idx])
    y = truth[train_idx]
    factory = lambda gamma, c: SVR(c=c, gamma=gamma)  # noqa: E731

    def search_pair():
        grid = grid_search(factory,
                           {"gamma": [1e-2, 1e-1, 1.0], "c": [1e2, 1e4]},
                           x, y, k=5)
        rand = random_search(factory,
                             {"gamma": (1e-3, 10.0), "c": (10.0, 1e6)},
                             x, y, n_samples=6, k=5, rng=1)
        return grid, rand

    grid, rand = benchmark.pedantic(search_pair, rounds=1, iterations=1)
    emit("ablation_search", [
        f"grid:   best {grid.best_params} cv-err {grid.best_error:.2f}%",
        f"random: best {rand.best_params} cv-err {rand.best_error:.2f}%"])
    assert grid.best_error <= rand.best_error * 1.25


def test_ablation_edgent_layerwise_vs_coarse(wb, latency_points, truth,
                                             benchmark):
    """Related-work comparison (§II): an Edgent-style per-layer-type
    regression, trained on per-layer (unfused) timings, badly overestimates
    on the fused engine — the paper's stated reason for a coarse-grained
    estimator that stays compatible with layer fusion."""
    from repro.estimators import LayerwiseEstimator
    from repro.trim import build_trn

    nets = [wb.transfer_model(n) for n in wb.config.networks]
    est = LayerwiseEstimator().fit_from_device(nets, wb.device)

    def evaluate():
        sample = latency_points[::4]
        preds = []
        for p in sample:
            trn = build_trn(wb.base(p.base_name), p.cut_node, 5)
            preds.append(est.estimate(trn))
        t = truth[::4]
        preds = np.array(preds)
        return (relative_error(preds, t),
                float(np.mean((preds - t) / t)) * 100)

    err, bias = benchmark.pedantic(evaluate, rounds=1, iterations=1)
    profiler_err = 1.6  # see fig09_averages.txt
    emit("ablation_edgent", [
        f"edgent-style per-layer-type model: {err:.1f}% error, "
        f"{bias:+.1f}% bias on the fused engine",
        "netcut coarse estimators: profiler ~1.6%, svr ~4.4% "
        "(fusion-compatible by construction)"])
    assert err > 10 * profiler_err
    assert bias > 20.0  # systematic overestimate, not noise


def test_ablation_stratified_vs_random_split(wb, latency_points, truth,
                                             benchmark):
    """A purely random 20% split can leave whole cut-ranges unobserved and
    makes the RBF model extrapolate; the stratified split avoids the worst
    case. Assert stratified is at least as good on worst-case error."""

    def split_pair():
        svr_s, test_s = wb.analytical_model("rbf", stratified=True)
        svr_r, test_r = wb.analytical_model("rbf", stratified=False)
        err_s = relative_error(
            svr_s.predict([latency_points[i].features for i in test_s]),
            truth[test_s])
        pred_r = svr_r.predict(
            [latency_points[i].features for i in test_r])
        err_r = relative_error(pred_r, truth[test_r])
        worst_r = float(np.max(np.abs(pred_r - truth[test_r])
                               / truth[test_r])) * 100
        return err_s, err_r, worst_r

    err_s, err_r, worst_r = benchmark.pedantic(split_pair, rounds=1,
                                               iterations=1)
    emit("ablation_split", [
        f"stratified split: {err_s:.2f}%",
        f"random split:     {err_r:.2f}% (worst case {worst_r:.1f}%)"])
    assert err_s <= err_r * 1.1
