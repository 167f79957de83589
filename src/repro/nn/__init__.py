"""NumPy DNN substrate: modules, layers, losses and proxy models."""

from .conv import Conv2d, GlobalAvgPool2d, MaxPool2d, ResidualBlock
from .layers import Flatten, Linear, ReLU, Sequential
from .losses import accuracy, cross_entropy, perplexity, softmax
from .models import (
    CNNClassifier,
    LSTMLanguageModel,
    LSTMSequenceClassifier,
    MLPClassifier,
    ResNetProxy,
    build_model,
)
from .module import Module, Parameter
from .rnn import LSTM, Embedding

__all__ = [
    "CNNClassifier",
    "Conv2d",
    "Embedding",
    "Flatten",
    "GlobalAvgPool2d",
    "LSTM",
    "LSTMLanguageModel",
    "LSTMSequenceClassifier",
    "Linear",
    "MLPClassifier",
    "MaxPool2d",
    "Module",
    "Parameter",
    "ReLU",
    "ResNetProxy",
    "ResidualBlock",
    "Sequential",
    "accuracy",
    "build_model",
    "cross_entropy",
    "perplexity",
    "softmax",
]
