"""Bidirectional knowledge-state encoders (Eq. 25, Sec. V-A4).

The response influence approximation requires the encoder to see both past
and future context while *strictly excluding the position being predicted*:

    h_i = fwdEnc(A_{1:i-1}) + bwdEnc(A_{i+1:t+1})                  (Eq. 25)

Multi-layer subtlety: naively stacking a bidirectional layer leaks the
excluded position — the layer-1 state at ``i-1`` would already contain
backward information flowing through position ``i``.  We therefore keep two
*independent directional streams* through every layer (forward layers only
ever read forward-stream states, backward layers only backward-stream
states, as in ELMo's bidirectional LM) and combine them with a one-step
shift only at the very end.  A perturbation test in the suite verifies that
``h_i`` is exactly invariant to the input at position ``i``.

Three adapters mirror the paper's Sec. V-A4:

* ``BiDKTEncoder``  — stacked LSTMs (BiLSTM).
* ``BiSAKTEncoder`` — transformer blocks with directional masks, responses
  as queries.
* ``BiAKTEncoder``  — the same with AKT's monotonic (distance-decay)
  attention, "bi-directional due to the duality of distance".
"""

from __future__ import annotations

import abc
from typing import List, Optional, Tuple

import numpy as np

from repro import nn
from repro.tensor import Tensor, concat, is_grad_enabled

# Initial capacity of the transformer encoders' sinusoidal positional
# tables.  This is *not* a sequence-length cap: the tables grow
# geometrically on demand (:class:`repro.nn.PositionalEncoding.ensure`),
# so arbitrarily long histories encode exactly — growth only re-derives
# the deterministic sinusoid table, never changes existing rows.  Compute
# still scales with length (quadratically for attention); long-history
# *serving* bounds it with the sliding-window mode instead
# (:func:`repro.core.masking.window_start`, ``InferenceEngine(window=...)``).
MAX_ENCODED_LENGTH = 128


class ForwardStreamState(abc.ABC):
    """Opaque per-row forward-encoder state, extensible one step at a time.

    The forward stream of Eq. 25 is strictly causal, so the state after
    position ``j`` fully determines how positions ``> j`` will encode —
    this is what the serving layer caches per student so ``record()``
    appends a step instead of re-encoding the history
    (:mod:`repro.serve.forward_cache`).  Concrete layouts: LSTM carry
    ``(h, c)`` per layer; attention projected key/value prefixes per
    layer (:class:`repro.nn.KVCache`).
    """

    length: int

    @property
    @abc.abstractmethod
    def nbytes(self) -> int:
        """Approximate resident bytes (drives the serving LRU budget)."""

    @abc.abstractmethod
    def clone(self) -> "ForwardStreamState":
        """Independent deep copy — extending the clone (or the original)
        never touches the other.  The recourse search forks a student's
        cached state into per-world timelines this way instead of
        re-encoding the shared prefix."""


class LSTMStreamState(ForwardStreamState):
    """Per-layer carry states of a stacked forward LSTM."""

    __slots__ = ("h", "c", "length")

    def __init__(self, h: List[np.ndarray], c: List[np.ndarray],
                 length: int = 0):
        self.h = h
        self.c = c
        self.length = length

    @property
    def nbytes(self) -> int:
        return sum(a.nbytes for a in self.h) + sum(a.nbytes for a in self.c)

    def clone(self) -> "LSTMStreamState":
        return LSTMStreamState([a.copy() for a in self.h],
                               [a.copy() for a in self.c], self.length)


class AttentionStreamState(ForwardStreamState):
    """Per-layer projected key/value prefixes of a directional stack."""

    __slots__ = ("caches", "length")

    def __init__(self, caches: List[nn.KVCache], length: int = 0):
        self.caches = caches
        self.length = length

    @property
    def nbytes(self) -> int:
        return sum(cache.nbytes for cache in self.caches)

    def clone(self) -> "AttentionStreamState":
        return AttentionStreamState(
            [cache.clone() for cache in self.caches], self.length)


def shift_and_combine(forward_stream: Tensor, backward_stream: Tensor) -> Tensor:
    """``h_i = forward[i-1] + backward[i+1]`` with zeros past the edges.

    The zero contribution at the boundary realizes the paper's rule that
    the first response "directly uses" the backward encoder output (adding
    a zero forward part is the same thing), and symmetrically for the last.
    """
    batch, length, dim = forward_stream.shape
    zeros = Tensor(np.zeros((batch, 1, dim)))
    past = concat([zeros, forward_stream[:, :length - 1, :]], axis=1)
    future = concat([backward_stream[:, 1:, :], zeros], axis=1)
    return past + future


class BidirectionalEncoder(nn.Module, abc.ABC):
    """Maps interaction embeddings ``(B, L, d)`` to hidden states ``h_i``.

    The two directional streams are exposed separately because the
    multi-target fast path exploits an asymmetry of Eq. 25: the *forward*
    stream at position ``j`` only reads inputs ``<= j``, which for every
    counterfactual variant are independent of the target column, so one
    forward pass per sequence serves all of its targets.  Only the
    *backward* stream (which consumes the intervened target first) needs
    one row per target.
    """

    @abc.abstractmethod
    def forward_stream(self, interactions: Tensor,
                       mask: Optional[np.ndarray] = None) -> Tensor:
        """Directional states summarizing inputs ``<= j`` at position ``j``."""

    @abc.abstractmethod
    def backward_stream(self, interactions: Tensor,
                        mask: Optional[np.ndarray] = None) -> Tensor:
        """Directional states summarizing inputs ``>= j`` at position ``j``."""

    def forward(self, interactions: Tensor,
                mask: Optional[np.ndarray] = None) -> Tensor:
        """``mask`` is ``(B, L)`` with True at real positions."""
        return shift_and_combine(self.forward_stream(interactions, mask),
                                 self.backward_stream(interactions, mask))

    # ------------------------------------------------------------------
    # Incremental forward-stream serving API (no-grad, eval mode)
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def new_forward_state(self, rows: int) -> ForwardStreamState:
        """Empty per-row state for incremental forward-stream encoding."""

    @abc.abstractmethod
    def extend_forward_state(self, state: ForwardStreamState,
                             x: np.ndarray) -> np.ndarray:
        """Advance ``state`` by one appended position.

        ``x`` is the ``(rows, dim)`` raw interaction embedding of the new
        position; returns the final-layer forward-stream output at that
        position, exactly what :meth:`forward_stream` would emit there
        (to roundoff) had the whole sequence been re-encoded.
        """

    @abc.abstractmethod
    def forward_stream_with_capture(self, interactions: Tensor,
                                    mask: Optional[np.ndarray] = None
                                    ) -> Tuple[np.ndarray, object]:
        """Batched :meth:`forward_stream` that also captures per-layer
        internals (``capture``), from which :meth:`state_from_capture`
        cuts per-row extensible states — the warm-up path that builds a
        cold student's cache in one vectorized pass.
        """

    @abc.abstractmethod
    def state_from_capture(self, capture: object, row_indices,
                           length: int) -> ForwardStreamState:
        """Extract the state of ``row_indices`` (all of real length
        ``length``) from a :meth:`forward_stream_with_capture` capture.
        Copies: the returned state outlives the batch arrays.
        """


class BiDKTEncoder(BidirectionalEncoder):
    """Stacked bidirectional LSTM (the RCKT-DKT backbone).

    With grad off and the encoder in eval mode, each direction's stack
    runs as one no-grad wavefront kernel
    (:func:`repro.nn.lstm_stack_inference`) — the rule that picks the
    attention kernel for sakt/akt.  The ``Tensor`` path stays the
    training path and the reference the kernel is tested against.
    """

    def __init__(self, dim: int, layers: int, rng: np.random.Generator,
                 dropout: float = 0.0):
        super().__init__()
        self.forward_layers = nn.ModuleList(
            [nn.LSTM(dim, dim, rng) for _ in range(layers)])
        self.backward_layers = nn.ModuleList(
            [nn.LSTM(dim, dim, rng, reverse=True) for _ in range(layers)])
        self.dropout = nn.Dropout(dropout, rng) if dropout > 0 else None

    def _run_stack(self, layers: nn.ModuleList, x: Tensor,
                   mask: Optional[np.ndarray] = None) -> Tensor:
        if not self.training and not is_grad_enabled():
            return Tensor(nn.lstm_stack_inference(layers, x.data, mask)[0])
        # Only thread the mask through the recurrence when it actually
        # truncates rows: an all-True mask is a no-op, and skipping it keeps
        # the exact-length bucket paths free of per-step select overhead.
        if mask is not None and mask.all():
            mask = None
        for i, layer in enumerate(layers):
            x = layer(x, mask=mask)
            if self.dropout is not None and i + 1 < len(layers):
                x = self.dropout(x)
        return x

    def forward_stream(self, interactions: Tensor,
                       mask: Optional[np.ndarray] = None) -> Tensor:
        return self._run_stack(self.forward_layers, interactions, mask=mask)

    def backward_stream(self, interactions: Tensor,
                        mask: Optional[np.ndarray] = None) -> Tensor:
        return self._run_stack(self.backward_layers, interactions, mask=mask)

    # ------------------------------------------------------------------
    # Incremental forward-stream serving API
    # ------------------------------------------------------------------
    def new_forward_state(self, rows: int) -> LSTMStreamState:
        h = [np.zeros((rows, layer.hidden_dim))
             for layer in self.forward_layers]
        c = [np.zeros((rows, layer.hidden_dim))
             for layer in self.forward_layers]
        return LSTMStreamState(h, c)

    def extend_forward_state(self, state: LSTMStreamState,
                             x: np.ndarray) -> np.ndarray:
        for index, layer in enumerate(self.forward_layers):
            h, c = layer.step_inference(x, state.h[index], state.c[index])
            state.h[index] = h
            state.c[index] = c
            x = h
        state.length += 1
        return x

    def forward_stream_with_capture(self, interactions: Tensor,
                                    mask: Optional[np.ndarray] = None
                                    ) -> Tuple[np.ndarray, object]:
        return nn.lstm_stack_inference(self.forward_layers,
                                       interactions.data, mask)

    def state_from_capture(self, capture, row_indices,
                           length: int) -> LSTMStreamState:
        rows = np.asarray(row_indices)
        h = [layer_h[rows].copy() for layer_h, _ in capture]
        c = [layer_c[rows].copy() for _, layer_c in capture]
        return LSTMStreamState(h, c, length)


class _DirectionalTransformer(nn.Module):
    """A stack of transformer blocks restricted to one direction.

    The mask is *non-strict* within the stream (a position may attend to
    itself): stream state at ``j`` summarizes inputs ``<= j`` (forward) or
    ``>= j`` (backward), and the final one-step shift in
    :func:`shift_and_combine` provides the strict exclusion of Eq. 25.

    With grad off and the stack in eval mode, :meth:`forward` runs the
    raw-NumPy kernel :meth:`forward_inference` — the same rule that picks
    the LSTM kernel for dkt.  The ``Tensor`` path stays the training path
    and the reference the kernel is tested against.
    """

    def __init__(self, dim: int, heads: int, layers: int,
                 rng: np.random.Generator, dropout: float,
                 monotonic: bool, reverse: bool):
        super().__init__()
        self.reverse = reverse
        self.positions = nn.PositionalEncoding(MAX_ENCODED_LENGTH, dim)
        self.blocks = nn.ModuleList([
            nn.TransformerBlock(dim, heads, rng, dropout=dropout,
                                monotonic=monotonic)
            for _ in range(layers)
        ])

    def _allowed(self, length: int, mask: Optional[np.ndarray]) -> np.ndarray:
        """``(B or 1, 1, L, L)`` attention mask: stream direction and,
        when ``mask`` is given, real keys only."""
        if self.reverse:
            direction = nn.anti_causal_mask(length, strict=False)
        else:
            direction = nn.causal_mask(length, strict=False)
        allowed = direction[None, None]
        if mask is not None:
            allowed = allowed & mask[:, None, None, :]
        return allowed

    def forward(self, x: Tensor, mask: Optional[np.ndarray]) -> Tensor:
        if not self.training and not is_grad_enabled():
            return Tensor(self.forward_inference(x.data, mask)[0])
        allowed = self._allowed(x.shape[1], mask)
        x = self.positions(x)
        for block in self.blocks:
            x = block(x, mask=allowed)
        return x

    def forward_inference(self, x: np.ndarray, mask: Optional[np.ndarray]
                          ) -> Tuple[np.ndarray, List]:
        """No-grad, eval-mode :meth:`forward` on raw arrays.

        Runs every block with no ``Tensor`` objects
        (:meth:`repro.nn.TransformerBlock.forward_inference`).  Returns
        the ``(B, L, D)`` stream and, for the forward (causal) direction,
        each block's projected ``(keys, values)`` — the capture the
        serving cache resumes from (:meth:`BiSAKTEncoder.state_from_capture`).
        Anti-causal states cannot be extended, so the backward direction
        returns an empty capture.

        Activations stay ``(B, L, D)`` rather than ``(B*L, D)``: NumPy
        then runs each projection as one small gemm per sequence, which
        OpenBLAS keeps single-threaded.  A single ``(B*L, D)`` gemm
        crosses its threading threshold and ran up to 9x slower on a
        2-vCPU box, and the helper thread it wakes keeps spinning after
        the call.  The LSTM kernel
        (:func:`repro.nn.lstm_stack_inference`) follows the same rule;
        ``tests/serve/test_blas_threads.py`` holds both serving paths to
        it.
        """
        length = x.shape[1]
        allowed = self._allowed(length, mask)
        x = x + self.positions.ensure(length)[:length]
        captured = []
        for block in self.blocks:
            x, keys, values = block.forward_inference(x, allowed)
            if not self.reverse:
                captured.append((keys, values))
        return x, captured


class BiSAKTEncoder(BidirectionalEncoder):
    """Directional transformer pair (the RCKT-SAKT backbone).

    Per Sec. V-A4 the queries are the *responses* (interaction embeddings)
    rather than target questions, i.e. plain directional self-attention
    over the interaction stream.
    """

    monotonic = False

    def __init__(self, dim: int, layers: int, rng: np.random.Generator,
                 heads: int = 2, dropout: float = 0.0):
        super().__init__()
        self.forward_stack = _DirectionalTransformer(
            dim, heads, layers, rng, dropout, self.monotonic, reverse=False)
        self.backward_stack = _DirectionalTransformer(
            dim, heads, layers, rng, dropout, self.monotonic, reverse=True)

    def forward_stream(self, interactions: Tensor,
                       mask: Optional[np.ndarray] = None) -> Tensor:
        return self.forward_stack(interactions, mask)

    def backward_stream(self, interactions: Tensor,
                        mask: Optional[np.ndarray] = None) -> Tensor:
        return self.backward_stack(interactions, mask)

    # ------------------------------------------------------------------
    # Incremental forward-stream serving API
    # ------------------------------------------------------------------
    def new_forward_state(self, rows: int) -> AttentionStreamState:
        """Empty per-row attention state (one K/V prefix per block)."""
        stack = self.forward_stack
        return AttentionStreamState(
            [nn.KVCache(rows, stack.positions.dim) for _ in stack.blocks])

    def extend_forward_state(self, state: AttentionStreamState,
                             x: np.ndarray) -> np.ndarray:
        """Advance the K/V prefixes by one appended position.

        The positional table grows on demand, so extension is never
        length-bounded; the serving layer bounds *memory* instead by
        re-anchoring its window (which rebuilds the state from the
        window slice rather than extending past it).
        """
        position = state.length
        stack = self.forward_stack
        table = stack.positions.ensure(position + 1)
        x = x + table[position]
        for block, cache in zip(stack.blocks, state.caches):
            x = block.step_inference(x, cache)
        state.length += 1
        return x

    def forward_stream_with_capture(self, interactions: Tensor,
                                    mask: Optional[np.ndarray] = None
                                    ) -> Tuple[np.ndarray, object]:
        return self.forward_stack.forward_inference(interactions.data, mask)

    def state_from_capture(self, capture, row_indices,
                           length: int) -> AttentionStreamState:
        rows = np.asarray(row_indices)
        dim = self.forward_stack.positions.dim
        caches = [
            nn.KVCache(len(rows), dim,
                       keys=keys[rows, :length],
                       values=values[rows, :length])
            for keys, values in capture
        ]
        return AttentionStreamState(caches, length)


class BiAKTEncoder(BiSAKTEncoder):
    """Monotonic-attention variant (the RCKT-AKT backbone).

    The exponential decay acts on ``|i - j|``, which is symmetric, so the
    same mechanism serves both directions — the "duality of distance" the
    paper invokes.
    """

    monotonic = True


def build_encoder(name: str, dim: int, layers: int, rng: np.random.Generator,
                  heads: int = 2, dropout: float = 0.0) -> BidirectionalEncoder:
    """Factory keyed by the paper's encoder names (dkt | sakt | akt)."""
    if name == "dkt":
        return BiDKTEncoder(dim, layers, rng, dropout=dropout)
    if name == "sakt":
        return BiSAKTEncoder(dim, layers, rng, heads=heads, dropout=dropout)
    if name == "akt":
        return BiAKTEncoder(dim, layers, rng, heads=heads, dropout=dropout)
    raise ValueError(f"unknown encoder '{name}' (expected dkt|sakt|akt)")
