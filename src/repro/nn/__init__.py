"""Neural-network layers built on the :mod:`repro.tensor` substrate."""

from .attention import (KVCache, MultiHeadAttention, anti_causal_mask,
                        causal_mask)
from .layers import (MLP, Dropout, Embedding, LayerNorm, Linear, ReLU,
                     Sigmoid, Tanh)
from .module import Module, ModuleList
from .rnn import LSTM, BiLSTM, LSTMCell, lstm_stack_inference
from .transformer import (FeedForward, PositionalEncoding, TransformerBlock,
                          TransformerEncoder, sinusoidal_positions)

__all__ = [
    "Module", "ModuleList",
    "Linear", "Embedding", "Dropout", "LayerNorm", "MLP",
    "ReLU", "Tanh", "Sigmoid",
    "LSTMCell", "LSTM", "BiLSTM", "lstm_stack_inference",
    "MultiHeadAttention", "KVCache", "causal_mask", "anti_causal_mask",
    "TransformerBlock", "TransformerEncoder", "FeedForward",
    "PositionalEncoding", "sinusoidal_positions",
]
