"""Desk-scale semi-supervised semantic segmentation with CutMix geometry,
an EMA teacher, and pixel-pair structured consistency, built on a small
float64 reverse-mode autodiff engine."""

from .cutmix import (Box, BoxSet, PairSet, boxset_from_boxes, compose_image,
                     compose_predictions, drop_pairs, generate_boxes)
from .ema import EmaState, ema_init, ema_update
from .losses import (consistency_loss, relaxed_cross_entropy,
                     structured_consistency_box, structured_consistency_full)
from .maps import IGNORE, PredictionMap, check_label_map
from .metrics import ConfusionMatrix, miou
from .model import SegNet, SegNetDescriptor, init_segnet
from .optim import make_velocity, poly_lr, sgd_step
from .synthdata import SceneDataset, SceneSample, augment, generate_scene
from .tensor import (ComputationTape, NonFiniteError, Tensor, backward,
                     conv2d, no_grad, softmax)
from .trainer import (EMA_VARIANTS, LOSS_VARIANTS, ConfigError, LossBreakdown,
                      StepRecord, TrainConfig, Trainer, run_ablation)

__version__ = "0.1.0"
