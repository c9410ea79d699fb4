"""Context-conditioned normalizing flows for multivariate time series
anomaly detection: train a conditional density model on normal data, score
new points by negative log-likelihood, evaluate with AUC/VUS, and tune
hyperparameters with CMA-ES."""

from .conditioners import EncoderConfig, build_encoder
from .data import (
    AnomalySpec,
    TimeSeriesDataset,
    generate_synthetic,
    inject_anomaly,
    load_csv,
    prepare,
)
from .flow import FlowConfig, FlowModel, gaussian_log_density, nll_loss
from .hyperopt import CmaEs, decode, run_search, space_for_method
from .metrics import (auc_pr, auc_roc, combined_objective, precision_recall_f1,
                      select_threshold, vus_roc)
from .score import ScoreSeries, export_latent, score_series
from .train import TrainConfig, TrainReport, load_model, save_model, train_model

__version__ = "0.1.0"

__all__ = [
    "AnomalySpec",
    "CmaEs",
    "EncoderConfig",
    "FlowConfig",
    "FlowModel",
    "ScoreSeries",
    "TimeSeriesDataset",
    "TrainConfig",
    "TrainReport",
    "auc_pr",
    "auc_roc",
    "build_encoder",
    "combined_objective",
    "decode",
    "export_latent",
    "gaussian_log_density",
    "generate_synthetic",
    "inject_anomaly",
    "load_csv",
    "load_model",
    "nll_loss",
    "precision_recall_f1",
    "prepare",
    "run_search",
    "save_model",
    "score_series",
    "select_threshold",
    "space_for_method",
    "train_model",
    "vus_roc",
]
