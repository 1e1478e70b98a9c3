from .autograd import Tape, Tensor, no_grad
from .nn import (
    Adam,
    BatchNorm,
    Linear,
    PlateauScheduler,
    cross_entropy,
    gcn_conv,
    glorot,
    relu,
    sage_conv,
    softmax,
)
from .classifier import ClassifierConfig, STClassifier, train_classifier

__all__ = [
    "Adam",
    "BatchNorm",
    "ClassifierConfig",
    "Linear",
    "PlateauScheduler",
    "STClassifier",
    "Tape",
    "Tensor",
    "cross_entropy",
    "gcn_conv",
    "glorot",
    "no_grad",
    "relu",
    "sage_conv",
    "softmax",
    "train_classifier",
]
