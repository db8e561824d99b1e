from fraudkit.nn.layers import (
    LSTM,
    Activation,
    Conv1D,
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    MaxPool1D,
)
from fraudkit.nn.losses import bce_loss, bce_loss_grad
from fraudkit.nn.network import Network, TrainingHistory, fit
from fraudkit.nn.optim import Adam

__all__ = [
    "Activation",
    "Adam",
    "Conv1D",
    "Conv2D",
    "Dense",
    "Dropout",
    "Flatten",
    "LSTM",
    "MaxPool1D",
    "Network",
    "TrainingHistory",
    "bce_loss",
    "bce_loss_grad",
    "fit",
]
