"""Recurrent layers: LSTM cell, unidirectional LSTM, bidirectional LSTM.

DKT (Piech et al., 2015) uses an LSTM; RCKT-DKT extends it bidirectionally
(BiLSTM, Sec. V-A4 of the paper).  The bidirectional variant here exposes
the *shifted* outputs the RCKT encoder needs: the forward state at position
``i`` summarizes inputs ``1..i`` and the backward state summarizes inputs
``i..L``, so Eq. 25's strict exclusion of position ``i`` is implemented by
the caller indexing ``forward[i-1]`` and ``backward[i+1]``.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.tensor import (Tensor, init, is_grad_enabled, sigmoid_array,
                          stack, where)

from .module import Module


def _lstm_gate_step(projected_t: np.ndarray, h: np.ndarray, c: np.ndarray,
                    weight_h: np.ndarray, bias: np.ndarray,
                    hidden: int) -> Tuple[np.ndarray, np.ndarray]:
    """One fused-gate LSTM step on pre-projected inputs (no-grad NumPy).

    Shared by the batched inference kernel and the serving single-step
    extension path so the two stay numerically aligned op-for-op.
    """
    z = (projected_t + h @ weight_h) + bias
    in_forget = sigmoid_array(z[:, :2 * hidden])
    i_gate = in_forget[:, :hidden]
    f_gate = in_forget[:, hidden:]
    g_gate = np.tanh(z[:, 2 * hidden:3 * hidden])
    o_gate = sigmoid_array(z[:, 3 * hidden:])
    c_new = f_gate * c + i_gate * g_gate
    h_new = o_gate * np.tanh(c_new)
    return h_new, c_new


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
                return Tensor(self._forward_inference(x.data, mask))
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

    def _forward_inference(self, x: np.ndarray,
                           mask: Optional[np.ndarray]) -> np.ndarray:
        """No-grad kernel; see :meth:`forward_inference_with_state`."""
        outputs, _, _ = self.forward_inference_with_state(x, mask)
        return outputs

    def forward_inference_with_state(
            self, x: np.ndarray, mask: Optional[np.ndarray] = None
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """No-grad kernel returning ``(outputs, h, c)``.

        Raw-NumPy recurrence with the input projection hoisted out of the
        step loop.  The projection stays ``(B, L, D) @ (D, 4H)`` so NumPy
        calls BLAS once per ``(L, D)`` sequence: one stacked
        ``(B*L, D)`` gemm crosses OpenBLAS's threading threshold at
        serving shapes (8 rows of 40 steps at dim 32), and the helper
        thread it wakes spin-waits after every call, doubling the CPU a
        dkt worker burns (``tests/serve/test_blas_threads.py``).  Do not
        flatten batch dimensions into one gemm in a no-grad kernel, and
        do not pin the BLAS thread count instead: an environment knob
        would not reach in-process callers.  The per-element gate math
        matches the autograd cell (shared
        :func:`repro.tensor.sigmoid_array`).

        The returned ``(h, c)`` is each row's carry state after its last
        *real* step (the mask freezes state through trailing padding), so
        a caller can keep extending the recurrence one step at a time via
        :meth:`step_inference` — the serving forward-stream cache.
        """
        cell = self.cell
        batch, length, _ = x.shape
        hidden = cell.hidden_dim
        # Step-major layout keeps each step's slab contiguous in cache.
        projected = np.ascontiguousarray(
            (x @ cell.weight_x.data).swapaxes(0, 1))
        weight_h = cell.weight_h.data
        bias = cell.bias.data
        h = np.zeros((batch, hidden))
        c = np.zeros((batch, hidden))
        outputs = np.empty((batch, length, hidden))
        steps = range(length - 1, -1, -1) if self.reverse else range(length)
        for t in steps:
            h_new, c_new = _lstm_gate_step(projected[t], h, c, weight_h,
                                           bias, hidden)
            if mask is not None:
                step = mask[:, t]
                # Column-sorted target chunks make most steps all-active;
                # the select is only paid where rows actually diverge.
                if not step.all():
                    step = step[:, None]
                    h_new = np.where(step, h_new, h)
                    c_new = np.where(step, c_new, c)
            h, c = h_new, c_new
            outputs[:, t, :] = h
        return outputs, h, c

    def step_inference(self, x: np.ndarray, h: np.ndarray,
                       c: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """One no-grad recurrence step: ``(B, D)`` input, carried state in,
        new ``(h, c)`` out.  Shares the gate math with the batch kernel so
        incrementally extended streams track re-encoded ones to roundoff.
        Meaningless for ``reverse=True`` layers (anti-causal state cannot
        be extended on the right); callers only cache forward streams.
        """
        cell = self.cell
        projected = x @ cell.weight_x.data
        return _lstm_gate_step(projected, h, c, cell.weight_h.data,
                               cell.bias.data, cell.hidden_dim)


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
