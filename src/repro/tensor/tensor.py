"""Reverse-mode automatic differentiation over NumPy arrays.

This module is the computational substrate for every neural model in the
repository (the paper used PyTorch; no GPU framework is available here, so
we implement the same math from scratch).  A :class:`Tensor` wraps a
``numpy.ndarray`` and records the operations applied to it; calling
:meth:`Tensor.backward` propagates gradients through the recorded graph in
reverse topological order.

Design notes
------------
* Gradients are plain ``numpy.ndarray`` objects stored on ``Tensor.grad``;
  they are accumulated (``+=``) so a tensor used twice receives the sum of
  both contributions.
* All binary operations support NumPy broadcasting.  The helper
  :func:`unbroadcast` reduces an output-shaped gradient back to the input
  shape by summing over broadcast axes.
* Graph recording can be disabled per-thread with :func:`no_grad` (used
  for inference), which makes evaluation allocation-free apart from the
  raw NumPy work.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

Arrayable = Union["Tensor", np.ndarray, float, int, list, tuple]

# Per-thread, like torch's: the serving engine scores on its callers'
# threads (the HTTP gateway runs one per connection), so a
# process-global flag would let one thread's no_grad exit corrupt
# another thread's state — worst case leaving gradients globally off
# after interleaved exits.
_GRAD_STATE = threading.local()


@contextlib.contextmanager
def no_grad():
    """Context manager that disables graph construction.

    Inside the block every operation produces constant tensors, which makes
    inference cheaper and guarantees that ``backward`` cannot reach into
    evaluation-only code.  The flag is thread-local: threads spawned
    inside the block start with gradients *enabled* and must enter their
    own ``no_grad``.
    """
    previous = is_grad_enabled()
    _GRAD_STATE.enabled = False
    try:
        yield
    finally:
        _GRAD_STATE.enabled = previous


def is_grad_enabled() -> bool:
    """Return whether operations currently record the autograd graph."""
    return getattr(_GRAD_STATE, "enabled", True)


def unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` undoing NumPy broadcasting.

    Broadcasting either prepends new axes or stretches size-1 axes; the
    gradient of a broadcast is the sum over the broadcast axes.
    """
    if grad.shape == shape:
        return grad
    # Remove prepended axes.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over stretched size-1 axes.
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _as_array(value: Arrayable, dtype=np.float64) -> np.ndarray:
    if isinstance(value, Tensor):
        return value.data
    return np.asarray(value, dtype=dtype)


def sigmoid_array(data: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function on a raw array.

    The forward value of :meth:`Tensor.sigmoid`; no inference kernel
    shares it (the no-grad LSTM kernel takes its sigmoid gates from one
    ``tanh``, :func:`repro.nn.lstm_stack_inference`).  ``exp`` runs once
    on ``-|x|`` (never overflows); for ``x >= 0`` this is exactly the
    ``exp(-x)`` of ``1/(1+exp(-x))`` and for ``x < 0`` exactly the
    ``exp(x)`` of ``exp(x)/(1+exp(x))``, so each element matches the
    textbook two-branch form bit for bit.
    """
    positive = data >= 0
    clipped = np.clip(data, -500, 500)
    np.abs(clipped, out=clipped)
    np.negative(clipped, out=clipped)
    exp = np.exp(clipped, out=clipped)
    denominator = exp + 1.0
    out = np.where(positive, 1.0, exp)
    np.divide(out, denominator, out=out)
    return out


class Tensor:
    """A NumPy-backed array with reverse-mode autodiff support."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")

    def __init__(self, data: Arrayable, requires_grad: bool = False):
        self.data: np.ndarray = _as_array(data)
        self.requires_grad: bool = bool(requires_grad) and is_grad_enabled()
        self.grad: Optional[np.ndarray] = None
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._parents: Tuple[Tensor, ...] = ()

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def zeros(*shape: int, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.zeros(shape), requires_grad=requires_grad)

    @staticmethod
    def ones(*shape: int, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.ones(shape), requires_grad=requires_grad)

    @staticmethod
    def make(data: np.ndarray, parents: Sequence["Tensor"],
             backward: Callable[[np.ndarray], None]) -> "Tensor":
        """Create an op output node; records the graph only when needed."""
        requires = is_grad_enabled() and any(p.requires_grad
                                              for p in parents)
        out = Tensor(data, requires_grad=requires)
        if requires:
            out._parents = tuple(parents)
            out._backward = backward
        return out

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def numpy(self) -> np.ndarray:
        """Return the underlying array (not a copy)."""
        return self.data

    def detach(self) -> "Tensor":
        """Return a constant tensor sharing the same data."""
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_flag})"

    def __len__(self) -> int:
        return len(self.data)

    # ------------------------------------------------------------------
    # Autograd driver
    # ------------------------------------------------------------------
    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Back-propagate from this tensor through the recorded graph."""
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be supplied for non-scalar outputs")
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=self.data.dtype)

        topo: List[Tensor] = []
        visited = set()
        stack: List[Tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in visited:
                    stack.append((parent, False))

        self.grad = grad if self.grad is None else self.grad + grad
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def _accumulate(self, grad: np.ndarray) -> None:
        grad = unbroadcast(grad, self.data.shape)
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad += grad

    # ------------------------------------------------------------------
    # Elementwise arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: Arrayable) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data + other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad)
            if other.requires_grad:
                other._accumulate(grad)

        return Tensor.make(data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(-grad)

        return Tensor.make(-self.data, (self,), backward)

    def __sub__(self, other: Arrayable) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data - other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad)
            if other.requires_grad:
                other._accumulate(-grad)

        return Tensor.make(data, (self, other), backward)

    def __rsub__(self, other: Arrayable) -> "Tensor":
        return Tensor(other) - self

    def __mul__(self, other: Arrayable) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data * other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * other.data)
            if other.requires_grad:
                other._accumulate(grad * self.data)

        return Tensor.make(data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other: Arrayable) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data / other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad / other.data)
            if other.requires_grad:
                other._accumulate(-grad * self.data / (other.data ** 2))

        return Tensor.make(data, (self, other), backward)

    def __rtruediv__(self, other: Arrayable) -> "Tensor":
        return Tensor(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        data = self.data ** exponent

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * exponent * self.data ** (exponent - 1))

        return Tensor.make(data, (self,), backward)

    # ------------------------------------------------------------------
    # Elementwise functions
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        data = np.exp(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * data)

        return Tensor.make(data, (self,), backward)

    def log(self) -> "Tensor":
        data = np.log(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad / self.data)

        return Tensor.make(data, (self,), backward)

    def sqrt(self) -> "Tensor":
        data = np.sqrt(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * 0.5 / data)

        return Tensor.make(data, (self,), backward)

    def tanh(self) -> "Tensor":
        data = np.tanh(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * (1.0 - data ** 2))

        return Tensor.make(data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        data = sigmoid_array(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * data * (1.0 - data))

        return Tensor.make(data, (self,), backward)

    def relu(self) -> "Tensor":
        mask = self.data > 0
        data = self.data * mask

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * mask)

        return Tensor.make(data, (self,), backward)

    def abs(self) -> "Tensor":
        sign = np.sign(self.data)
        data = np.abs(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * sign)

        return Tensor.make(data, (self,), backward)

    def clip(self, low: float, high: float) -> "Tensor":
        data = np.clip(self.data, low, high)
        mask = (self.data >= low) & (self.data <= high)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * mask)

        return Tensor.make(data, (self,), backward)

    def maximum(self, other: Arrayable) -> "Tensor":
        """Elementwise maximum; ties send the full gradient to ``self``."""
        other = other if isinstance(other, Tensor) else Tensor(other)
        data = np.maximum(self.data, other.data)
        self_wins = self.data >= other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * self_wins)
            if other.requires_grad:
                other._accumulate(grad * ~self_wins)

        return Tensor.make(data, (self, other), backward)

    def minimum(self, other: Arrayable) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        data = np.minimum(self.data, other.data)
        self_wins = self.data <= other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * self_wins)
            if other.requires_grad:
                other._accumulate(grad * ~self_wins)

        return Tensor.make(data, (self, other), backward)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            g = grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis=axis)
            self._accumulate(np.broadcast_to(g, self.data.shape))

        return Tensor.make(data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        elif isinstance(axis, tuple):
            count = int(np.prod([self.data.shape[a] for a in axis]))
        else:
            count = self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            g = grad
            d = data
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis=axis)
                d = np.expand_dims(d, axis=axis)
            mask = (self.data == d)
            # Split the gradient evenly among tied maxima.
            counts = mask.sum(axis=axis if axis is not None else None, keepdims=True)
            self._accumulate(g * mask / counts)

        return Tensor.make(data, (self,), backward)

    # ------------------------------------------------------------------
    # Linear algebra
    # ------------------------------------------------------------------
    def __matmul__(self, other: "Tensor") -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data @ other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                if other.data.ndim == 1:
                    g = np.expand_dims(grad, -1) * other.data
                else:
                    g = grad @ other.data.swapaxes(-1, -2)
                self._accumulate(unbroadcast(g, self.data.shape))
            if other.requires_grad:
                if self.data.ndim == 1:
                    g = np.expand_dims(self.data, -1) * np.expand_dims(grad, -2)
                    g = g.reshape(other.data.shape) if g.shape != other.data.shape else g
                else:
                    g = self.data.swapaxes(-1, -2) @ grad
                other._accumulate(unbroadcast(g, other.data.shape))

        return Tensor.make(data, (self, other), backward)

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        data = self.data.reshape(shape)
        original = self.data.shape

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.reshape(original))

        return Tensor.make(data, (self,), backward)

    def transpose(self, *axes: int) -> "Tensor":
        if not axes:
            axes = tuple(reversed(range(self.data.ndim)))
        data = self.data.transpose(axes)
        inverse = tuple(np.argsort(axes))

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.transpose(inverse))

        return Tensor.make(data, (self,), backward)

    def swapaxes(self, a: int, b: int) -> "Tensor":
        data = self.data.swapaxes(a, b)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.swapaxes(a, b))

        return Tensor.make(data, (self,), backward)

    def expand_dims(self, axis: int) -> "Tensor":
        data = np.expand_dims(self.data, axis)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(np.squeeze(grad, axis=axis))

        return Tensor.make(data, (self,), backward)

    def squeeze(self, axis: int) -> "Tensor":
        data = np.squeeze(self.data, axis=axis)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(np.expand_dims(grad, axis=axis))

        return Tensor.make(data, (self,), backward)

    def __getitem__(self, key) -> "Tensor":
        data = self.data[key]

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                full = np.zeros_like(self.data)
                np.add.at(full, key, grad)
                self._accumulate(full)

        return Tensor.make(data, (self,), backward)
