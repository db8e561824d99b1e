from fraudkit.nn.layers import (
    LSTM,
    Activation,
    Conv1D,
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    LSTMParams,
    LSTMState,
    MaxPool1D,
    lstm_step,
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
    "LSTMParams",
    "LSTMState",
    "MaxPool1D",
    "Network",
    "TrainingHistory",
    "bce_loss",
    "bce_loss_grad",
    "fit",
    "lstm_step",
]
