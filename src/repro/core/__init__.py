"""RCKT core: the paper's contribution (Sec. IV)."""

from .config import ENCODERS, PAPER_HYPERPARAMETERS, RCKTConfig, paper_config
from .encoders import (AttentionStreamState, BiAKTEncoder, BiDKTEncoder,
                       BidirectionalEncoder, BiSAKTEncoder,
                       ForwardStreamState, LSTMStreamState, build_encoder,
                       shift_and_combine)
from .generator import ResponseProbabilityGenerator
from .influence import (ExactInfluenceResult, InfluenceComputation,
                        compute_influences)
from .losses import counterfactual_loss, joint_bce_losses
from .masking import (COUNTERFACTUAL_VARIANTS, JOINT_VARIANTS, MASKED,
                      VARIANT_ORDER, VariantSet, build_exact_counterfactual,
                      build_variants, check_window, window_start,
                      window_starts)
from .multi_target import (MultiTargetContext, column_banded_chunks,
                           predict_dataset_fast, score_batch_targets,
                           score_targets)
from .rckt import RCKT, replicate_batch
from .trainer import RCKTTrainResult, evaluate_rckt, fit_rckt

__all__ = [
    "RCKTConfig", "paper_config", "PAPER_HYPERPARAMETERS", "ENCODERS",
    "BidirectionalEncoder", "BiDKTEncoder", "BiSAKTEncoder", "BiAKTEncoder",
    "build_encoder", "shift_and_combine",
    "ForwardStreamState", "LSTMStreamState", "AttentionStreamState",
    "ResponseProbabilityGenerator",
    "MASKED", "VARIANT_ORDER", "COUNTERFACTUAL_VARIANTS", "JOINT_VARIANTS",
    "VariantSet", "build_variants", "build_exact_counterfactual",
    "window_start", "window_starts", "check_window",
    "InfluenceComputation", "ExactInfluenceResult", "compute_influences",
    "counterfactual_loss", "joint_bce_losses",
    "RCKT", "replicate_batch",
    "MultiTargetContext", "column_banded_chunks",
    "predict_dataset_fast", "score_batch_targets", "score_targets",
    "fit_rckt", "evaluate_rckt", "RCKTTrainResult",
]
