"""Recurrent layers: LSTM cell, unidirectional LSTM, bidirectional LSTM.

DKT (Piech et al., 2015) uses an LSTM; RCKT-DKT extends it bidirectionally
(BiLSTM, Sec. V-A4 of the paper).  The bidirectional variant here exposes
the *shifted* outputs the RCKT encoder needs: the forward state at position
``i`` summarizes inputs ``1..i`` and the backward state summarizes inputs
``i..L``, so Eq. 25's strict exclusion of position ``i`` is implemented by
the caller indexing ``forward[i-1]`` and ``backward[i+1]``.
"""

from __future__ import annotations

import functools
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.tensor import Tensor, init, is_grad_enabled, stack, where

from .module import Module

# Largest M·N·K the no-grad kernel hands to one BLAS gemm.  OpenBLAS
# runs a dgemm on the calling thread up to M·N·K = 10**6 and passes
# larger ones to a helper thread that spin-waits after every call.
# Measured with OpenBLAS 0.3.31 on a 2-vCPU Xeon VM (process CPU over
# calling-thread CPU): ``(rows, 64) @ (64, 256)`` read 1.00x at 61 rows
# (M·N·K = 999,424) and 2.00x at 62 rows (1,015,808); ``(rows, 32) @
# (32, 128)`` read 1.00x at 244 rows and 1.36x at 245 (1,003,520).  The
# bound keeps ~20% below that edge: 48 rows of a 2-layer, dim-32 stack.
MAX_GEMM_MNK = 786_432


@functools.lru_cache(maxsize=None)
def _gate_constants(hidden: int) -> Tuple[np.ndarray, np.ndarray]:
    """Per-column ``(scale, offset)`` of the one-tanh gates, order i, f, g, o.

    ``sigmoid(x) = tanh(x / 2) / 2 + 1 / 2``, so after scaling the
    pre-activations by ``scale`` (1/2 on i, f, o; 1 on g) one ``tanh``
    serves all four gates, and ``scale * tanh + offset`` (offset 1/2 on
    i, f, o; 0 on g) recovers them.  Scaling by 1/2 is exact in binary
    floating point.  Read-only: the arrays are shared by every caller.
    """
    scale = np.full(4 * hidden, 0.5)
    scale[2 * hidden:3 * hidden] = 1.0
    offset = scale.copy()
    offset[2 * hidden:3 * hidden] = 0.0
    scale.flags.writeable = False
    offset.flags.writeable = False
    return scale, offset


def _gate_update(z: np.ndarray, c: np.ndarray
                 ) -> Tuple[np.ndarray, np.ndarray]:
    """New ``(h, c)`` from prescaled pre-activations (no-grad NumPy).

    ``z`` is ``(..., 4H)`` with its leading dimensions matching ``c``'s,
    already multiplied by the gate scale of :func:`_gate_constants`; it
    is overwritten.  Shared by :func:`lstm_stack_inference` and
    :meth:`LSTM.step_inference`, so extended serving streams track
    re-encoded ones to roundoff.
    """
    hidden = c.shape[-1]
    scale, offset = _gate_constants(hidden)
    np.tanh(z, out=z)
    z *= scale
    z += offset
    c_new = z[..., hidden:2 * hidden] * c
    c_new += z[..., :hidden] * z[..., 2 * hidden:3 * hidden]
    h_new = np.tanh(c_new)
    h_new *= z[..., 3 * hidden:]
    return h_new, c_new


def lstm_stack_inference(layers: Sequence["LSTM"], x: np.ndarray,
                         mask: Optional[np.ndarray] = None
                         ) -> Tuple[np.ndarray, List[Tuple[np.ndarray,
                                                           np.ndarray]]]:
    """No-grad kernel for a stack of same-direction LSTMs.

    Returns the last layer's ``(B, L, H)`` outputs and each layer's
    final ``(h, c)``: its carry state after its last *real* step, since
    a padded step (``mask`` False) keeps a layer's state unchanged.  A
    forward stack can keep extending from there one step at a time via
    :meth:`LSTM.step_inference` (the serving forward-stream cache).

    The stack runs as a wavefront (Appleyard et al., arXiv:1604.01946):
    layer ``k`` runs ``k`` steps behind layer ``k - 1``, so one wave
    step advances every layer with one gemm of the concatenated states
    ``(rows, nH)`` against the block weight ``[[W_h1, W_x2, 0],
    [0, W_h2, W_x3], [0, 0, W_h3]]``, then one ``tanh`` for all gates
    (:func:`_gate_update`).  The prologue and epilogue multiply only the
    active layers' columns, and layer ``k`` reads mask column ``t`` at
    wave step ``t + k``.  Layer 1's input projection is hoisted out of
    the loop as one ``(L, D)`` gemm per sequence.

    Rows run in ``(blocks, rows, nH)`` blocks sized so that each gemm
    stays under :data:`MAX_GEMM_MNK`, and one ``matmul`` call issues one
    small gemm per block.  A single wider gemm crosses OpenBLAS's
    threading threshold at serving shapes, and the helper thread it
    wakes spin-waits after every call, doubling the CPU a dkt worker
    burns (``tests/serve/test_blas_threads.py``).  Do not flatten the
    blocks into one gemm and do not pin the BLAS thread count instead:
    an environment knob would not reach in-process callers.  Each row's
    values do not depend on the block geometry, so a row scores the same
    alone as inside any chunk.
    """
    count = len(layers)
    hidden = layers[0].hidden_dim
    reverse = layers[0].reverse
    batch, length, _ = x.shape
    gates = 4 * hidden
    width = count * hidden
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.all():
            mask = None

    # Fold the gate scale into the weights once: column block k holds
    # layer k's gates, row block k its recurrent and row block k - 1 its
    # input weights.
    scale, _ = _gate_constants(hidden)
    weight = np.zeros((width, count * gates))
    for k, layer in enumerate(layers):
        columns = slice(k * gates, (k + 1) * gates)
        weight[k * hidden:(k + 1) * hidden, columns] = \
            layer.cell.weight_h.data * scale
        if k:
            weight[(k - 1) * hidden:k * hidden, columns] = \
                layer.cell.weight_x.data * scale
    bias = np.concatenate([layer.cell.bias.data * scale
                           for layer in layers])

    max_rows = max(1, MAX_GEMM_MNK // (width * count * gates))
    blocks = max(1, -(-batch // max_rows))
    # Two rows at least: NumPy hands a one-row product to gemv, which
    # rounds differently from gemm, so a lone row would not match itself
    # inside a larger batch.
    rows = max(-(-batch // blocks), min(2, max_rows))
    padded = blocks * rows

    # Step-major (processing order) layer-1 projections; pad rows are 0.
    projected = np.zeros((length, padded, gates))
    step_major = (x @ (layers[0].cell.weight_x.data * scale)).swapaxes(0, 1)
    projected[:, :batch] = step_major[::-1] if reverse else step_major
    projected = projected.reshape(length, blocks, rows, gates)

    waves = length + count - 1 if length else 0
    if mask is not None:
        # skewed[s, ..., k] is layer k's mask at wave step s.
        real = np.ones((length, padded), dtype=bool)
        real[:, :batch] = mask.T[::-1] if reverse else mask.T
        real = real.reshape(length, blocks, rows)
        skewed = np.ones((waves, blocks, rows, count, 1), dtype=bool)
        for k in range(count):
            skewed[k:k + length, :, :, k, 0] = real
        ragged = (~skewed.all(axis=(1, 2, 3, 4))).tolist()

    h = np.zeros((blocks, rows, width))
    layer_h = h.reshape(blocks, rows, count, hidden)
    c = np.zeros((blocks, rows, count, hidden))
    outputs = np.empty((blocks, rows, length, hidden))
    for wave in range(waves):
        lo = max(0, wave - length + 1)
        hi = min(count, wave + 1)
        z = h @ weight[:, lo * gates:hi * gates]
        if lo == 0:  # layer 1 is active: add its hoisted input projection
            first = z[..., :gates]
            first += projected[wave]
        z += bias[lo * gates:hi * gates]
        h_new, c_new = _gate_update(
            z.reshape(blocks, rows, hi - lo, gates), c[:, :, lo:hi])
        if mask is not None and ragged[wave]:
            step = skewed[wave, :, :, lo:hi]
            np.copyto(layer_h[:, :, lo:hi], h_new, where=step)
            np.copyto(c[:, :, lo:hi], c_new, where=step)
        else:
            layer_h[:, :, lo:hi] = h_new
            c[:, :, lo:hi] = c_new
        if hi == count:
            done = wave - count + 1
            outputs[:, :, length - 1 - done if reverse else done] = \
                layer_h[:, :, -1]

    outputs = outputs.reshape(padded, length, hidden)[:batch]
    final_h = layer_h.reshape(padded, count, hidden)[:batch]
    final_c = c.reshape(padded, count, hidden)[:batch]
    return outputs, [(final_h[:, k], final_c[:, k]) for k in range(count)]


class LSTMCell(Module):
    """Single LSTM step with fused gate weights (order: i, f, g, o)."""

    def __init__(self, input_dim: int, hidden_dim: int, rng: np.random.Generator):
        super().__init__()
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.weight_x = init.xavier_uniform((input_dim, 4 * hidden_dim), rng)
        self.weight_h = init.xavier_uniform((hidden_dim, 4 * hidden_dim), rng)
        bias = np.zeros(4 * hidden_dim)
        # Standard trick: initialize the forget-gate bias to 1 so early
        # training does not wash out the cell state.
        bias[hidden_dim:2 * hidden_dim] = 1.0
        self.bias = Tensor(bias, requires_grad=True)

    def forward(self, x: Tensor, state: Tuple[Tensor, Tensor]) -> Tuple[Tensor, Tensor]:
        h_prev, c_prev = state
        z = x @ self.weight_x + h_prev @ self.weight_h + self.bias
        hidden = self.hidden_dim
        i_gate = z[:, 0 * hidden:1 * hidden].sigmoid()
        f_gate = z[:, 1 * hidden:2 * hidden].sigmoid()
        g_gate = z[:, 2 * hidden:3 * hidden].tanh()
        o_gate = z[:, 3 * hidden:4 * hidden].sigmoid()
        c_new = f_gate * c_prev + i_gate * g_gate
        h_new = o_gate * c_new.tanh()
        return h_new, c_new

    def initial_state(self, batch: int) -> Tuple[Tensor, Tensor]:
        zeros = Tensor(np.zeros((batch, self.hidden_dim)))
        return zeros, zeros


class LSTM(Module):
    """Unidirectional LSTM over a ``(batch, length, dim)`` sequence."""

    def __init__(self, input_dim: int, hidden_dim: int, rng: np.random.Generator,
                 reverse: bool = False):
        super().__init__()
        self.cell = LSTMCell(input_dim, hidden_dim, rng)
        self.hidden_dim = hidden_dim
        self.reverse = reverse

    def forward(self, x: Tensor,
                state: Optional[Tuple[Tensor, Tensor]] = None,
                mask: Optional[np.ndarray] = None) -> Tensor:
        """Return the hidden state after each step, shape ``(B, L, H)``.

        With ``reverse=True`` the sequence is consumed right-to-left but the
        outputs are returned in the original order: position ``i`` then
        holds the state after consuming inputs ``i..L``.

        ``mask`` (``(B, L)`` bool, True at real steps) makes the recurrence
        skip padded steps entirely: state carries through unchanged and the
        carried state is emitted.  A reversed LSTM whose row is padded after
        position ``t`` therefore reaches ``t`` with its initial (zero)
        state, exactly as if the sequence ended there — this is what lets
        one full-length padded batch reproduce exact-length prefix batches
        bit-for-bit (the multi-target fast path relies on it).
        """
        batch, length, _ = x.shape
        if mask is not None:
            mask = np.asarray(mask, dtype=bool)
        if state is None:
            if not is_grad_enabled():
                return Tensor(lstm_stack_inference([self], x.data, mask)[0])
            state = self.cell.initial_state(batch)
        steps = range(length - 1, -1, -1) if self.reverse else range(length)
        outputs: list = [None] * length
        h, c = state
        for t in steps:
            h_new, c_new = self.cell(x[:, t, :], (h, c))
            if mask is not None:
                step = mask[:, t][:, None]
                h_new = where(step, h_new, h)
                c_new = where(step, c_new, c)
            h, c = h_new, c_new
            outputs[t] = h
        return stack(outputs, axis=1)

    def step_inference(self, x: np.ndarray, h: np.ndarray,
                       c: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """One no-grad recurrence step: ``(B, D)`` input, carried state in,
        new ``(h, c)`` out.  Shares the gate math with
        :func:`lstm_stack_inference`, scaling ``z`` after the sum where
        the kernel folds the scale into its weights (both exact), so
        incrementally extended streams track re-encoded ones to roundoff.
        Meaningless for ``reverse=True`` layers (anti-causal state cannot
        be extended on the right); callers only cache forward streams.
        """
        cell = self.cell
        z = (x @ cell.weight_x.data + h @ cell.weight_h.data) + cell.bias.data
        z *= _gate_constants(self.hidden_dim)[0]
        return _gate_update(z, c)


class BiLSTM(Module):
    """Forward + backward LSTM pair returning both directions separately.

    Unlike the usual concatenating BiLSTM, the two streams are kept apart
    because RCKT sums *shifted* views of them (Eq. 25).
    """

    def __init__(self, input_dim: int, hidden_dim: int, rng: np.random.Generator):
        super().__init__()
        self.forward_lstm = LSTM(input_dim, hidden_dim, rng)
        self.backward_lstm = LSTM(input_dim, hidden_dim, rng, reverse=True)
        self.hidden_dim = hidden_dim

    def forward(self, x: Tensor) -> Tuple[Tensor, Tensor]:
        return self.forward_lstm(x), self.backward_lstm(x)
