"""Parallel-pod convolutional networks with feature fusion, built on a small
numpy-backed reverse-mode autodiff engine."""

import os

# One BLAS thread unless the caller chose otherwise: conv2d already runs one
# range of images per core, and a second BLAS thread per GEMM only contends
# with it. Set before numpy is first imported, which is when OpenBLAS reads it.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

from .data import (AugmentationSpec, CIFAR10_MEAN, CIFAR10_STD, DataError,
                   ImageBatch, JitterSpec, color_jitter, load_cifar10,
                   make_pod_inputs, normalize, synthetic_dataset)
from .gradcheck import GradCheckReport, gradient_check
from .models import (APPROACH1, APPROACH2, MultiPodModel, MultiPodSpec,
                     ParamStore, PodBaseSpec, build_multipod, build_pod_base,
                     count_base_params, count_params, init_params, resnet_cifar,
                     resnet_imagenet)
from .config import ConfigError, RunConfig, load_config, load_data, parse_config
from .tensor import BNBuffers, ShapeError, StateError, Tensor, no_grad
from .training import (Checkpoint, CheckpointError, EvalResult, NumericalAbort,
                       TrainLogRecord, TrainResult, TrainingSchedule,
                       evaluate_center_crop, evaluate_ten_crop, load_checkpoint,
                       lr_at_epoch, save_checkpoint, sgd_step, train)

__all__ = [
    "APPROACH1", "APPROACH2", "AugmentationSpec", "BNBuffers", "CIFAR10_MEAN",
    "CIFAR10_STD", "Checkpoint", "CheckpointError", "ConfigError", "DataError",
    "EvalResult", "GradCheckReport", "ImageBatch", "JitterSpec",
    "MultiPodModel", "MultiPodSpec", "NumericalAbort", "ParamStore",
    "PodBaseSpec", "RunConfig", "ShapeError", "StateError", "Tensor",
    "TrainLogRecord", "TrainResult", "TrainingSchedule", "build_multipod",
    "build_pod_base", "color_jitter", "count_base_params", "count_params",
    "evaluate_center_crop", "evaluate_ten_crop", "gradient_check",
    "init_params", "load_checkpoint", "load_cifar10", "load_config",
    "load_data", "lr_at_epoch", "make_pod_inputs", "no_grad", "normalize",
    "parse_config", "resnet_cifar", "resnet_imagenet", "save_checkpoint",
    "sgd_step", "synthetic_dataset", "train",
]

__version__ = "0.1.0"
