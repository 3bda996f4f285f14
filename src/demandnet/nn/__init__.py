"""From-scratch differentiable building blocks (float64 numpy throughout)."""

from .activations import ACTIVATIONS, get_activation, identity, sigmoid, tanh
from .checkpoint import (
    CheckpointError,
    load_checkpoint,
    load_params_from_arrays,
    params_to_arrays,
    save_checkpoint,
)
from .gradcheck import DenseProbe, SequenceProbe, grad_check
from .layers import DenseLayer, Parameter, glorot_uniform, sample_dropout_mask
from .loss import add_penalty_grads, mse_grad, penalized_loss
from .optim import Adam, DivergenceError, Sgd, TrainConfig, make_optimizer
from .recurrent import (
    CELL_KINDS,
    GRULayer,
    LSTMLayer,
    RecurrentStack,
    make_cell,
)

__all__ = [
    "ACTIVATIONS",
    "Adam",
    "CELL_KINDS",
    "CheckpointError",
    "DenseLayer",
    "DenseProbe",
    "DivergenceError",
    "GRULayer",
    "LSTMLayer",
    "Parameter",
    "RecurrentStack",
    "SequenceProbe",
    "Sgd",
    "TrainConfig",
    "add_penalty_grads",
    "get_activation",
    "glorot_uniform",
    "grad_check",
    "identity",
    "load_checkpoint",
    "load_params_from_arrays",
    "make_cell",
    "make_optimizer",
    "mse_grad",
    "params_to_arrays",
    "penalized_loss",
    "sample_dropout_mask",
    "save_checkpoint",
    "sigmoid",
    "tanh",
]
