"""Attention layers: scaled dot-product, multi-head, and AKT-style
monotonic (distance-decaying) attention.

SAKT (Pandey & Karypis, 2019) uses standard multi-head attention; AKT
(Ghosh et al., 2020) multiplies attention logits by an exponential decay in
the distance between the query and key positions so older interactions
matter less.  The paper's RCKT-AKT notes that "monotonic attention can also
be made bi-directional due to the duality of distance": we implement the
decay on ``|i - j|`` so the same layer serves both directions.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.tensor import Tensor, init, masked_softmax

from .layers import Dropout, Linear
from .module import Module


def _softplus(x: Tensor) -> Tensor:
    """Numerically adequate softplus for small-magnitude decay parameters."""
    return (x.clip(-30.0, 30.0).exp() + 1.0).log()


def _softplus_array(x: np.ndarray) -> np.ndarray:
    """Raw-NumPy twin of :func:`_softplus` (same ops, same roundoff)."""
    return np.log(np.exp(np.clip(x, -30.0, 30.0)) + 1.0)


#: Shifted logits are clamped to this floor before ``exp``: ``exp`` takes
#: a slow special-value path for ``-inf`` (blocked keys) and for inputs
#: that underflow, and ``exp(-700) < 1e-304`` is no weight that matters.
_EXP_FLOOR = -700.0


def masked_softmax_inplace(logits: np.ndarray,
                           allowed: Optional[np.ndarray] = None
                           ) -> np.ndarray:
    """No-grad softmax over the last axis that overwrites ``logits``.

    ``allowed`` is broadcastable to ``logits`` with True at positions a
    query may attend to.  Same values as :func:`repro.tensor.masked_softmax`:
    the stable shift is the row max over allowed positions, blocked
    positions get exactly zero weight, and a row with no allowed position
    comes out all zeros instead of NaN.  The one departure is the
    ``_EXP_FLOOR`` clamp, which moves weights below 1e-304.
    """
    if allowed is not None:
        logits += np.where(allowed, 0.0, -np.inf)
    row_max = logits.max(axis=-1, keepdims=True)
    row_max[np.isneginf(row_max)] = 0.0
    logits -= row_max
    np.maximum(logits, _EXP_FLOOR, out=logits)
    np.exp(logits, out=logits)
    if allowed is not None:
        logits *= allowed
    denom = logits.sum(axis=-1, keepdims=True)
    denom[denom == 0.0] = 1.0
    logits /= denom
    return logits


class KVCache:
    """Growable projected key/value prefix for one attention layer.

    Serving keeps one of these per (student, encoder layer): the causal
    forward stream only ever *appends* positions, so the projected keys
    and values of the prefix can be reused verbatim while each new step
    attends over them (:meth:`MultiHeadAttention.attend_step`).  Arrays
    grow geometrically like :class:`repro.serve.history.StudentHistory`.
    """

    __slots__ = ("keys", "values", "length")

    INITIAL_CAPACITY = 8

    def __init__(self, rows: int, dim: int,
                 keys: Optional[np.ndarray] = None,
                 values: Optional[np.ndarray] = None):
        if keys is not None:
            self.length = keys.shape[1]
            capacity = max(self.length, self.INITIAL_CAPACITY)
            self.keys = np.empty((rows, capacity, dim))
            self.values = np.empty((rows, capacity, dim))
            self.keys[:, :self.length] = keys
            self.values[:, :self.length] = values
        else:
            self.length = 0
            self.keys = np.empty((rows, self.INITIAL_CAPACITY, dim))
            self.values = np.empty((rows, self.INITIAL_CAPACITY, dim))

    def append(self, k: np.ndarray, v: np.ndarray) -> None:
        """Add one position: ``k``/``v`` are ``(rows, dim)``."""
        capacity = self.keys.shape[1]
        if self.length == capacity:
            rows, _, dim = self.keys.shape
            grown_k = np.empty((rows, 2 * capacity, dim))
            grown_v = np.empty((rows, 2 * capacity, dim))
            grown_k[:, :capacity] = self.keys
            grown_v[:, :capacity] = self.values
            self.keys, self.values = grown_k, grown_v
        self.keys[:, self.length] = k
        self.values[:, self.length] = v
        self.length += 1

    def view(self) -> Tuple[np.ndarray, np.ndarray]:
        """Live ``(keys, values)`` views over the filled prefix."""
        return self.keys[:, :self.length], self.values[:, :self.length]

    def clone(self) -> "KVCache":
        """Independent copy of the filled prefix (the constructor copies
        into fresh capacity arrays, so no extra copy here)."""
        keys, values = self.view()
        return KVCache(self.keys.shape[0], self.keys.shape[2],
                       keys=keys, values=values)

    @property
    def nbytes(self) -> int:
        return self.keys.nbytes + self.values.nbytes


class MultiHeadAttention(Module):
    """Multi-head attention with an optional monotonic distance decay.

    Parameters
    ----------
    dim:
        Model dimension; must be divisible by ``heads``.
    monotonic:
        When True, a learnable per-head decay rate ``theta_h >= 0`` is
        applied as ``logits -= theta_h * |i - j|`` (AKT's exponential decay
        in its multiplicative form on the pre-softmax logits).
    """

    def __init__(self, dim: int, heads: int, rng: np.random.Generator,
                 dropout: float = 0.0, monotonic: bool = False):
        super().__init__()
        if dim % heads != 0:
            raise ValueError(f"dim {dim} not divisible by heads {heads}")
        self.dim = dim
        self.heads = heads
        self.head_dim = dim // heads
        self.monotonic = monotonic
        self.query_proj = Linear(dim, dim, rng)
        self.key_proj = Linear(dim, dim, rng)
        self.value_proj = Linear(dim, dim, rng)
        self.out_proj = Linear(dim, dim, rng)
        self.dropout = Dropout(dropout, rng) if dropout > 0 else None
        if monotonic:
            # softplus(0.54) ~= 1.0; start with a mild decay.
            self.decay = init.normal((heads,), 0.1, rng)
        self.last_weights: Optional[np.ndarray] = None

    def _split(self, x: Tensor, batch: int, length: int) -> Tensor:
        """(B, L, D) -> (B, H, L, Dh)."""
        return x.reshape(batch, length, self.heads, self.head_dim).transpose(0, 2, 1, 3)

    def forward(self, query: Tensor, key: Tensor, value: Tensor,
                mask: Optional[np.ndarray] = None) -> Tensor:
        """Attend ``query`` over ``key``/``value``.

        ``mask`` is a boolean array broadcastable to ``(B, H, Lq, Lk)`` with
        True marking *allowed* positions.  Rows with no allowed key yield a
        zero context vector (see :func:`repro.tensor.masked_softmax`).
        """
        batch, q_len, _ = query.shape
        k_len = key.shape[1]
        q = self._split(self.query_proj(query), batch, q_len)
        k = self._split(self.key_proj(key), batch, k_len)
        v = self._split(self.value_proj(value), batch, k_len)

        logits = (q @ k.swapaxes(-1, -2)) * (1.0 / np.sqrt(self.head_dim))
        if self.monotonic:
            positions_q = np.arange(q_len)[:, None]
            positions_k = np.arange(k_len)[None, :]
            distance = np.abs(positions_q - positions_k).astype(np.float64)
            theta = _softplus(self.decay).reshape(1, self.heads, 1, 1)
            logits = logits - theta * Tensor(distance)

        if mask is None:
            mask = np.ones((1, 1, q_len, k_len), dtype=bool)
        else:
            mask = np.asarray(mask, dtype=bool)
            while mask.ndim < 4:
                mask = mask[None]
        weights = masked_softmax(logits, mask, axis=-1)
        self.last_weights = weights.data.copy()
        if self.dropout is not None:
            weights = self.dropout(weights)
        context = weights @ v
        context = context.transpose(0, 2, 1, 3).reshape(batch, q_len, self.dim)
        return self.out_proj(context)

    # ------------------------------------------------------------------
    # No-grad, eval-mode kernels: the batched encoder streams and the
    # forward-stream serving cache share these helpers
    # ------------------------------------------------------------------
    def _decay_logits(self, query_positions: np.ndarray,
                      key_length: int) -> np.ndarray:
        """``theta_h * |i - j|`` per head, query and key: ``(H, Lq, Lk)``."""
        distance = np.abs(query_positions[:, None]
                          - np.arange(key_length)[None, :]).astype(np.float64)
        theta = _softplus_array(self.decay.data).reshape(self.heads, 1, 1)
        return theta * distance

    def self_attention_inference(
            self, x: np.ndarray, allowed: Optional[np.ndarray]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """No-grad, eval-mode :meth:`forward` with ``query = key = value
        = x`` on a raw ``(B, L, D)`` array.

        One fused Q/K/V gemm; scale, decay, mask and softmax run in place
        on a single ``(B, H, L, L)`` logits buffer, and no attention
        weights are kept.  ``allowed`` is the :meth:`forward` mask,
        broadcastable to that buffer.  Returns the ``(B, L, D)`` output
        plus the projected keys and values as ``(B, L, D)`` views — the
        serving cache's warm-up capture, by return value.
        """
        batch, length, dim = x.shape
        heads, head_dim = self.heads, self.head_dim
        projections = (self.query_proj, self.key_proj, self.value_proj)
        qkv = x @ np.concatenate([p.weight.data for p in projections], axis=1)
        qkv += np.concatenate([p.bias.data for p in projections])
        q, k, v = (qkv[..., i * dim:(i + 1) * dim]
                   .reshape(batch, length, heads, head_dim)
                   .transpose(0, 2, 1, 3) for i in range(3))
        logits = q @ k.swapaxes(-1, -2)
        logits *= 1.0 / np.sqrt(head_dim)
        if self.monotonic:
            logits -= self._decay_logits(np.arange(length), length)
        weights = masked_softmax_inplace(logits, allowed)
        context = np.empty((batch, length, heads, head_dim))
        np.matmul(weights, v, out=context.transpose(0, 2, 1, 3))
        attended = self.out_proj.inference(
            context.reshape(batch, length, dim))
        return attended, qkv[..., dim:2 * dim], qkv[..., 2 * dim:]

    def project_kv_step(self, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Projected key/value for one new position; ``x`` is ``(B, D)``.

        Matches the batch path's ``key_proj``/``value_proj`` outputs
        before the head split, so the results can be appended to a
        :class:`KVCache` holding batch-computed prefixes.
        """
        return self.key_proj.inference(x), self.value_proj.inference(x)

    def attend_step(self, x: np.ndarray, keys: np.ndarray,
                    values: np.ndarray, position: int) -> np.ndarray:
        """Causal attention for the single query at ``position``.

        ``x`` is the ``(B, D)`` layer input at the new position;
        ``keys``/``values`` are the ``(B, n, D)`` projected prefix with
        ``n == position + 1`` (the new position's own key/value already
        appended — the non-strict causal mask lets a position attend to
        itself).  All prefix positions are real by construction, so no
        mask is needed; the softmax is the batch kernel's
        :func:`masked_softmax_inplace`.
        """
        batch, dim = x.shape
        n = keys.shape[1]
        if n != position + 1:
            raise ValueError(f"key/value prefix of length {n} does not "
                             f"cover query position {position}")
        q = self.query_proj.inference(x)
        q = q.reshape(batch, self.heads, 1, self.head_dim)
        k = keys.reshape(batch, n, self.heads, self.head_dim)
        k = k.transpose(0, 2, 1, 3)
        v = values.reshape(batch, n, self.heads, self.head_dim)
        v = v.transpose(0, 2, 1, 3)
        logits = q @ k.swapaxes(-1, -2)
        logits *= 1.0 / np.sqrt(self.head_dim)
        if self.monotonic:
            logits -= self._decay_logits(np.array([position]), n)
        weights = masked_softmax_inplace(logits)
        context = (weights @ v).transpose(0, 2, 1, 3).reshape(batch, dim)
        return self.out_proj.inference(context)


def causal_mask(length: int, strict: bool = True) -> np.ndarray:
    """Lower-triangular attention mask.

    ``strict=True`` excludes the diagonal (a position cannot attend to
    itself), which is what the RCKT bidirectional encoders need so that the
    prediction for response ``i`` never sees response ``i``.
    """
    offset = -1 if strict else 0
    return np.tril(np.ones((length, length), dtype=bool), k=offset)


def anti_causal_mask(length: int, strict: bool = True) -> np.ndarray:
    """Upper-triangular mask: position ``i`` attends only to ``j > i``."""
    offset = 1 if strict else 0
    return np.triu(np.ones((length, length), dtype=bool), k=offset)
