"""A minimal reverse-mode autograd engine over numpy arrays.

This is the training substrate standing in for PyTorch: just enough to train
the paper's five GCN variants (Eq. 1-2) and to run GCoD's graph-tuning step,
where the *adjacency edge weights* — not the layer weights — are the
trainable parameters (Eq. 4).

Design: a :class:`Tensor` wraps an ``ndarray``; operations record a closure
that propagates the upstream gradient to each parent. ``backward()`` walks
the graph in reverse topological order. Only float64 is used, which makes
numeric gradient checking in the test suite tight (see
``tests/nn/test_gradcheck.py``).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

ArrayLike = Union[np.ndarray, float, int, list, tuple]


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` to undo numpy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum over leading axes added by broadcasting.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum over axes that were broadcast from size 1.
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """An array node in the autograd graph."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        name: str = "",
    ):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._parents: Tuple["Tensor", ...] = ()
        self.name = name

    # ------------------------------------------------------------------
    # graph plumbing
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        """Shape of the wrapped array."""
        return self.data.shape

    @property
    def ndim(self) -> int:
        """Number of dimensions of the wrapped array."""
        return self.data.ndim

    def detach(self) -> "Tensor":
        """A view of the same data severed from the autograd graph."""
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        """Clear any accumulated gradient."""
        self.grad = None

    def accumulate_grad(self, grad: np.ndarray) -> None:
        """Add ``grad`` into this tensor's gradient buffer."""
        if self.grad is None:
            grad = np.asarray(grad)
            if grad.shape == self.data.shape:
                # First contribution: copy (callers may hand us views).
                self.grad = np.array(grad, dtype=np.float64)
                return
            self.grad = np.zeros_like(self.data)
        self.grad += grad

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Backpropagate from this tensor through the recorded graph."""
        if grad is None:
            if self.data.size != 1:
                raise ValueError("backward() without grad requires a scalar")
            grad = np.ones_like(self.data)
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
                if id(parent) not in visited:
                    stack.append((parent, False))
        self.accumulate_grad(np.asarray(grad, dtype=np.float64))
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # ------------------------------------------------------------------
    # operator sugar (all defined in terms of the functional ops below)
    # ------------------------------------------------------------------
    def __add__(self, other):
        return add(self, _as_tensor(other))

    __radd__ = __add__

    def __sub__(self, other):
        return add(self, neg(_as_tensor(other)))

    def __rsub__(self, other):
        return add(_as_tensor(other), neg(self))

    def __mul__(self, other):
        return mul(self, _as_tensor(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_tensor(other)
        return mul(self, power(other, -1.0))

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, _as_tensor(other))

    def __repr__(self) -> str:
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.data.shape}, grad={self.requires_grad}{tag})"

    def sum(self, axis=None, keepdims=False):
        """Sum reduction (differentiable)."""
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        """Mean reduction (differentiable)."""
        return tmean(self, axis=axis, keepdims=keepdims)


def _as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _make(
    data: np.ndarray,
    parents: Sequence[Tensor],
    backward: Optional[Callable[[np.ndarray], None]],
) -> Tensor:
    """Create a result tensor, recording the graph edge if any parent needs it."""
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    return out


# ----------------------------------------------------------------------
# elementwise & linear algebra primitives
# ----------------------------------------------------------------------
def add(a: Tensor, b: Tensor) -> Tensor:
    """Broadcasting elementwise addition."""
    data = a.data + b.data

    def backward(grad):
        if a.requires_grad:
            a.accumulate_grad(_unbroadcast(grad, a.data.shape))
        if b.requires_grad:
            b.accumulate_grad(_unbroadcast(grad, b.data.shape))

    return _make(data, (a, b), backward)


def neg(a: Tensor) -> Tensor:
    """Elementwise negation."""
    def backward(grad):
        if a.requires_grad:
            a.accumulate_grad(-grad)

    return _make(-a.data, (a,), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Broadcasting elementwise multiplication."""
    data = a.data * b.data

    def backward(grad):
        if a.requires_grad:
            a.accumulate_grad(_unbroadcast(grad * b.data, a.data.shape))
        if b.requires_grad:
            b.accumulate_grad(_unbroadcast(grad * a.data, b.data.shape))

    return _make(data, (a, b), backward)


def power(a: Tensor, exponent: float) -> Tensor:
    """Elementwise power with a constant exponent."""
    data = a.data**exponent

    def backward(grad):
        if a.requires_grad:
            a.accumulate_grad(grad * exponent * a.data ** (exponent - 1.0))

    return _make(data, (a,), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Dense matrix multiplication (2-D operands)."""
    data = a.data @ b.data

    def backward(grad):
        if a.requires_grad:
            a.accumulate_grad(grad @ b.data.T)
        if b.requires_grad:
            b.accumulate_grad(a.data.T @ grad)

    return _make(data, (a, b), backward)


def exp(a: Tensor) -> Tensor:
    """Elementwise exponential."""
    data = np.exp(a.data)

    def backward(grad):
        if a.requires_grad:
            a.accumulate_grad(grad * data)

    return _make(data, (a,), backward)


def log(a: Tensor, eps: float = 0.0) -> Tensor:
    """Elementwise natural log (optionally stabilized by ``eps``)."""
    data = np.log(a.data + eps)

    def backward(grad):
        if a.requires_grad:
            a.accumulate_grad(grad / (a.data + eps))

    return _make(data, (a,), backward)


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    """Sum reduction."""
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(grad):
        if not a.requires_grad:
            return
        g = np.asarray(grad)
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis=axis)
        a.accumulate_grad(np.broadcast_to(g, a.data.shape).copy())

    return _make(data, (a,), backward)


def tmean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    """Mean reduction."""
    if axis is None:
        count = a.data.size
    else:
        count = a.data.shape[axis]
    out = tsum(a, axis=axis, keepdims=keepdims)
    return mul(out, Tensor(1.0 / count))


def reshape(a: Tensor, shape: Tuple[int, ...]) -> Tensor:
    """Reshape preserving element order."""
    data = a.data.reshape(shape)

    def backward(grad):
        if a.requires_grad:
            a.accumulate_grad(grad.reshape(a.data.shape))

    return _make(data, (a,), backward)


def concat(tensors: Sequence[Tensor], axis: int = 1) -> Tensor:
    """Concatenate tensors along ``axis``."""
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.concatenate([[0], np.cumsum(sizes)])

    def backward(grad):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                index = [slice(None)] * grad.ndim
                index[axis] = slice(int(lo), int(hi))
                t.accumulate_grad(grad[tuple(index)])

    return _make(data, tuple(tensors), backward)


def split(a: Tensor, parts: int, axis: int = 1) -> List[Tensor]:
    """Cut ``a`` into ``parts`` equal pieces along ``axis`` (undoes :func:`concat`)."""
    size = a.data.shape[axis] // parts
    pieces = []
    for lo in range(0, size * parts, size):
        index = [slice(None)] * a.data.ndim
        index[axis] = slice(lo, lo + size)
        index = tuple(index)

        def backward(grad, index=index):
            if a.requires_grad:
                padded = np.zeros_like(a.data)
                padded[index] = grad
                a.accumulate_grad(padded)

        pieces.append(_make(a.data[index], (a,), backward))
    return pieces
