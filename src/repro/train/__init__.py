"""Transfer learning: feature recording, the retrain step, fine-tuning,
pretraining."""

from .features import record_gap_features
from .pretrain import (
    PretrainConfig,
    default_cache_dir,
    get_pretrained,
    pretrain,
    recipe_for,
)
from .trainer import (
    TrainConfig,
    TrainResult,
    build_head_network,
    evaluate,
    fine_tune,
    predict,
    retrain,
    run_epochs,
    train_head_on_features,
    transplant_head,
)

__all__ = [
    "record_gap_features",
    "PretrainConfig",
    "recipe_for",
    "default_cache_dir",
    "get_pretrained",
    "pretrain",
    "TrainConfig",
    "TrainResult",
    "build_head_network",
    "evaluate",
    "fine_tune",
    "predict",
    "retrain",
    "run_epochs",
    "train_head_on_features",
    "transplant_head",
]
