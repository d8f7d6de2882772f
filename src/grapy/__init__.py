"""Desk-scale hierarchical figure parsing with a graph pyramid module."""

from .hierarchy import (LEVEL1_LABELS, LEVEL2_LABELS, Taxonomy, builtin_taxonomies,
                        coarsen, taxonomy_by_name, validate)
from .metrics import ConfusionMatrix
from .model import ModelParams, TrainConfig, forward, pretrain_then_train, train_step
from .mutual import MlModel, MlTrainConfig, ml_step, train_mutual
from .pyramid import (GpmParams, aggregate, distribute, masks_from_prediction,
                      pyramid_forward, reason)
from .synthdata import Dataset, Sample, SampleBatch, SceneSpec, generate, make_benchmark
from .tensor import (SGD, NumericsError, ShapeError, Tape, Tensor, precision,
                     sgd_step)

__version__ = "0.1.0"
