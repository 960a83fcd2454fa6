"""CTR prediction with knowledge distillation on a minimal tensor engine."""

from .data import (Batch, EncodedDataset, FeatureVocabulary, RandomRatioSplit,
                   SequentialSplit, TableSchema, batches, encode_rows, read_rows,
                   split_rows, transform_numeric)
from .distill import (DistillConfig, HintProjector, TeacherGate, bce_loss,
                      cross_entropy, ensemble_teacher_logit, gate_weights,
                      hint_loss, soft_label_loss, student_loss)
from .metrics import MetricError, auc, logloss
from .models import FieldDims, Model, ModelSpec, spec_from_preset
from .tensor import Tensor, parameter
from .train import (Adam, EarlyStopMonitor, TrainHyper, TrainRecord,
                    TrainingDiverged, evaluate_model, predict_dataset,
                    train_student_cotrain, train_student_pretrain, train_teacher)

__version__ = "0.1.0"

__all__ = [
    "Adam", "Batch", "DistillConfig", "EarlyStopMonitor", "EncodedDataset",
    "FeatureVocabulary", "FieldDims", "HintProjector", "MetricError", "Model",
    "ModelSpec", "RandomRatioSplit", "SequentialSplit", "TableSchema",
    "TeacherGate", "Tensor", "TrainHyper", "TrainRecord", "TrainingDiverged",
    "auc", "batches", "bce_loss", "cross_entropy", "encode_rows",
    "ensemble_teacher_logit", "evaluate_model", "gate_weights", "hint_loss",
    "logloss", "parameter", "predict_dataset", "read_rows", "soft_label_loss",
    "spec_from_preset", "split_rows", "student_loss", "train_student_cotrain",
    "train_student_pretrain", "train_teacher", "transform_numeric", "__version__",
]
