"""Reverse-mode autodiff over float64 numpy arrays.

A deliberately small op set: every primitive here has a hand-written
backward rule. Most differentiable code in the package is composed from
these, the preconditioner fold included; the exceptions are the fused
layer primitives in layers.py (rmsnorm and one node per recurrent step)
and the cross-entropy loss in model.py, which build their own nodes
through record() from numpy forward/VJP helpers defined there and here
(softmax, silu, sigmoid). Those helpers spare fresh arrays on the hot
path: sigmoid is numpy-only and built in one array through out=,
silu_forward can write its product over its input, and softmax_forward
works in place on an array its caller no longer needs. Gradients are
exact up to float64 rounding; no numerical differentiation happens
outside the verification oracles.

Recording is explicit: ops only build graph nodes while a Tape is
active on the current thread, so inference code pays no tracing cost.

Importing this module, which the whole package does, sets glibc's malloc
policy once: blocks up to 32 MiB come from the heap, trimmed only above
1 GiB free. The process keeps its heap at its high-water mark instead of
returning each forward's freed temporaries to the kernel and faulting
them back in on the next step (getrusage's ru_minflt counts those
faults). It also caps malloc at one arena, so threads (lm_eval's eval
workers) share that one heap rather than each keeping an arena at its
own high-water mark. Without glibc's mallopt this does nothing.
"""

from __future__ import annotations

import ctypes
import os
import threading

import numpy as np


# setting either threshold stops glibc moving both, so the trim threshold
# alone would pin the mmap threshold at its 128 KiB default
_mallopt = getattr(ctypes.CDLL(None) if os.name == "posix" else None, "mallopt", None)
if _mallopt is not None:  # musl's returns 0 and changes nothing
    _mallopt.argtypes, _mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    _mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD, glibc's ceiling for its dynamic one
    _mallopt(-1, 1 << 30)  # M_TRIM_THRESHOLD
    _mallopt(-8, 1)  # M_ARENA_MAX: threads share the one heap, not an arena each


class DimensionError(ValueError):
    """Operand shapes are incompatible for the requested op."""


class DomainError(ValueError):
    """Input values lie outside the op's mathematical domain."""


class TapeError(RuntimeError):
    """Tape contract violation (bad root, wrong tape, missing watch)."""


_STATE = threading.local()


def _tape_stack() -> list["Tape"]:
    stack = getattr(_STATE, "stack", None)
    if stack is None:
        stack = []
        _STATE.stack = stack
    return stack


def _active_tape() -> "Tape | None":
    stack = _tape_stack()
    return stack[-1] if stack else None


class _Node:
    """One recorded op. vjp maps the output cotangent to input cotangents."""

    __slots__ = ("inputs", "vjp", "tape")

    def __init__(self, inputs, vjp, tape):
        self.inputs = inputs
        self.vjp = vjp
        self.tape = tape


class Tensor:
    """float64 ndarray plus an optional autodiff graph node."""

    __slots__ = ("data", "node")

    def __init__(self, data, node: _Node | None = None):
        self.data = np.asarray(data, dtype=np.float64)
        self.node = node

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        traced = "traced" if self.node is not None else "const"
        return f"Tensor(shape={self.data.shape}, {traced})"


class Tape:
    """Context manager that records ops for one backward pass.

    Usage::

        with Tape() as tape:
            tape.watch(w)
            loss = some_scalar_function(w)
        grads = tape.backward(loss)   # dict: watched Tensor -> Tensor

    Independent tapes on different threads do not interact.
    """

    def __init__(self):
        self._watched: list[Tensor] = []

    def __enter__(self) -> "Tape":
        _tape_stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        stack = _tape_stack()
        if not stack or stack[-1] is not self:
            raise TapeError("tape exited out of order")
        stack.pop()

    def watch(self, *tensors: Tensor) -> None:
        """Mark tensors as differentiation targets; call before use."""
        for t in tensors:
            if not isinstance(t, Tensor):
                raise TapeError("can only watch Tensor instances")
            if t.node is None or t.node.tape is not self:
                t.node = _Node((), None, self)
            if all(t is not w for w in self._watched):
                self._watched.append(t)

    def backward(self, root: Tensor) -> dict[Tensor, Tensor]:
        """Reverse sweep from a scalar root to every watched tensor.

        Returns zero gradients for watched tensors the root does not
        depend on; every returned gradient owns its memory. May be
        called repeatedly on the same tape.
        """
        if not isinstance(root, Tensor):
            raise TapeError("backward root must be a Tensor")
        if root.data.size != 1:
            raise TapeError(
                f"backward root must be scalar, got shape {root.data.shape}"
            )
        if root.node is None or root.node.tape is not self:
            raise TapeError("backward root was not produced on this tape")

        # Reverse topological order from the root via depth-first walk.
        order: list[_Node] = []
        seen: set[int] = set()
        stack: list[tuple[_Node, bool]] = [(root.node, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node.inputs:
                if parent is not None and parent.tape is self and id(parent) not in seen:
                    stack.append((parent, False))

        # a slot holds a parent's cotangent as its first consumer returned
        # it, often a view of that consumer's; the tape adds in place only
        # into arrays it allocated itself (ids in `owned`)
        grads: dict[int, np.ndarray] = {
            id(root.node): np.ones_like(root.data)
        }
        owned: set[int] = {id(root.node)}
        for node in reversed(order):
            if node.vjp is None:
                continue  # leaf; keep its accumulated gradient for the final read
            g = grads.pop(id(node), None)
            if g is None:
                continue
            for parent, pg in zip(node.inputs, node.vjp(g)):
                if parent is None or pg is None or parent.tape is not self:
                    continue
                key = id(parent)
                slot = grads.get(key)
                if slot is None:
                    grads[key] = pg
                elif key in owned:
                    slot += pg
                else:
                    grads[key] = slot = slot + pg
                    if isinstance(slot, np.ndarray):  # 0-d sums come back as scalars
                        owned.add(key)

        out: dict[Tensor, Tensor] = {}
        for t in self._watched:
            key = id(t.node)
            g = grads.get(key)
            if g is None:
                g = np.zeros_like(t.data)
            elif key not in owned:
                g = np.array(g, dtype=np.float64)  # unalias from the graph
            out[t] = Tensor(g)
        return out


def _wrap(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def recording(parents) -> bool:
    """Whether record() would add a node for these parents, i.e. whether a
    hand-written VJP needs the forward's intermediates kept."""
    tape = _active_tape()
    return tape is not None and any(
        p.node is not None and p.node.tape is tape for p in parents
    )


def record(out_data: np.ndarray, parents: tuple[Tensor, ...], vjp) -> Tensor:
    """Wrap out_data, adding a node if any parent is traced on the active tape.

    vjp(g) maps the output cotangent to one cotangent per parent, in
    order; None marks a parent that gets no gradient. A returned array
    may be a view of g or of saved data: the tape never writes into it.
    """
    tape = _active_tape()
    if tape is None:
        return Tensor(out_data)
    nodes = tuple(
        p.node if (p.node is not None and p.node.tape is tape) else None
        for p in parents
    )
    if all(n is None for n in nodes):
        return Tensor(out_data)
    return Tensor(out_data, _Node(nodes, vjp, tape))


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to the operand's shape."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _check_broadcast(a: np.ndarray, b: np.ndarray, opname: str) -> None:
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError as err:
        raise DimensionError(
            f"{opname}: shapes {a.shape} and {b.shape} do not broadcast"
        ) from err


# ---------------------------------------------------------------------------
# binary / unary arithmetic


def add(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    _check_broadcast(a.data, b.data, "add")
    out = a.data + b.data
    sa, sb = a.shape, b.shape  # the VJP keeps shapes, not the operands' data

    def vjp(g):
        return _unbroadcast(g, sa), _unbroadcast(g, sb)

    return record(out, (a, b), vjp)


def sub(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    _check_broadcast(a.data, b.data, "sub")
    out = a.data - b.data
    sa, sb = a.shape, b.shape  # the VJP keeps shapes, not the operands' data

    def vjp(g):
        return _unbroadcast(g, sa), _unbroadcast(-g, sb)

    return record(out, (a, b), vjp)


def mul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    _check_broadcast(a.data, b.data, "mul")
    out = a.data * b.data

    def vjp(g):
        return (
            _unbroadcast(g * b.data, a.data.shape),
            _unbroadcast(g * a.data, b.data.shape),
        )

    return record(out, (a, b), vjp)


def matmul(a, b) -> Tensor:
    """Batched matrix product; both operands must have ndim >= 2."""
    a, b = _wrap(a), _wrap(b)
    if a.ndim < 2 or b.ndim < 2:
        raise DimensionError(
            f"matmul requires ndim >= 2, got shapes {a.shape} and {b.shape}"
        )
    if a.shape[-1] != b.shape[-2]:
        raise DimensionError(
            f"matmul: inner dimensions differ for shapes {a.shape} and {b.shape}"
        )
    out = np.matmul(a.data, b.data)

    def vjp(g):
        ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
        gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
        return _unbroadcast(ga, a.data.shape), _unbroadcast(gb, b.data.shape)

    return record(out, (a, b), vjp)


def swap_last2(a) -> Tensor:
    """Transpose the trailing two axes, keeping batch axes in place."""
    a = _wrap(a)
    if a.ndim < 2:
        raise DimensionError(f"swap_last2 requires ndim >= 2, got {a.shape}")

    def vjp(g):
        return (np.swapaxes(g, -1, -2),)

    return record(np.swapaxes(a.data, -1, -2), (a,), vjp)


def reshape(a, shape: tuple[int, ...]) -> Tensor:
    a = _wrap(a)
    old = a.data.shape
    out = a.data.reshape(shape)

    def vjp(g):
        return (g.reshape(old),)

    return record(out, (a,), vjp)


# ---------------------------------------------------------------------------
# elementwise nonlinearities


def sigmoid(a: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-a)) in one fresh array, numpy only.

    Stable without branching: for a < -709 exp(-a) overflows to inf and
    the result is exactly 0, where the true value is below the smallest
    normal float; for large a, exp(-a) underflows and the result is 1.
    NaN propagates. A 0-d input gives a 0-d array.
    """
    s = np.negative(a, out=np.empty(a.shape))
    with np.errstate(over="ignore"):
        np.exp(s, out=s)
    s += 1.0
    np.reciprocal(s, out=s)
    return s


def silu_forward(a: np.ndarray, out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(a * sigmoid(a), sigmoid(a)); the sigmoid feeds silu_vjp. The
    product goes to out when given, which may be a itself."""
    s = sigmoid(a)
    return np.multiply(a, s, out=out), s


def silu_vjp(g: np.ndarray, a: np.ndarray, s: np.ndarray) -> np.ndarray:
    """g * silu'(a) = g * s (1 + a (1 - s)), built in one fresh array."""
    out = 1.0 - s
    out *= a
    out += 1.0
    out *= s
    out *= g
    return out


def silu(a) -> Tensor:
    """x * sigmoid(x)."""
    a = _wrap(a)
    out, s = silu_forward(a.data)

    def vjp(g):
        return (silu_vjp(g, a.data, s),)

    return record(out, (a,), vjp)


def softplus(a) -> Tensor:
    """log(1 + e^x), computed stably; softplus(0) = log 2. Its derivative
    is sigmoid(x), so both stay finite, and warning-free, at any finite x."""
    a = _wrap(a)
    return record(np.logaddexp(0.0, a.data), (a,), lambda g: (g * sigmoid(a.data),))


# ---------------------------------------------------------------------------
# reductions


def _reduce_vjp(a: Tensor, axis, keepdims, scale: float):
    shp = a.data.shape

    def vjp(g):
        if axis is not None and not keepdims:
            ax = axis if isinstance(axis, tuple) else (axis,)
            ax = tuple(d % len(shp) for d in ax)
            g = np.expand_dims(g, ax)
        return (np.broadcast_to(g, shp) * scale,)

    return vjp


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _wrap(a)
    out = a.data.sum(axis=axis, keepdims=keepdims)
    return record(np.asarray(out), (a,), _reduce_vjp(a, axis, keepdims, 1.0))


def tmean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _wrap(a)
    out = a.data.mean(axis=axis, keepdims=keepdims)
    n = a.data.size if axis is None else a.data.size // max(out.size, 1)
    return record(np.asarray(out), (a,), _reduce_vjp(a, axis, keepdims, 1.0 / n))


# ---------------------------------------------------------------------------
# softmax and indexing


def softmax_forward(z: np.ndarray) -> np.ndarray:
    """Softmax along the last axis of a plain array, in place: z is
    overwritten with the probabilities and returned.

    Entries of -inf (an additive mask already folded in) receive exactly
    zero probability and zero gradient. A row with every entry masked
    has no valid distribution and raises DomainError rather than
    returning NaN.
    """
    z, _, total = exp_shifted(z)
    z /= total
    return z


def exp_shifted(z: np.ndarray):
    """(e, m, sum) along the last axis: m each row's max, e = exp(z - m)
    written over z, sum its row sums, so that m + log(sum) is the
    log-sum-exp. Rows softmax_forward would reject raise DomainError."""
    m = np.max(z, axis=-1, keepdims=True)
    if not np.all(np.isfinite(m)):
        raise DomainError("softmax row is fully masked or non-finite")
    z -= m
    np.exp(z, out=z)
    return z, m, z.sum(axis=-1, keepdims=True)


def softmax_vjp(g: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Cotangent of the softmax input, given its output out."""
    inner = (g * out).sum(axis=-1, keepdims=True)
    grad = g - inner
    grad *= out
    return grad


def softmax_lastdim(a, mask: np.ndarray | None = None) -> Tensor:
    """Softmax along the last axis with an optional additive mask, a
    constant array broadcastable to a's shape holding 0 or -inf (see
    softmax_forward)."""
    a = _wrap(a)
    out = softmax_forward(a.data.copy() if mask is None else a.data + mask)

    def vjp(g):
        return (softmax_vjp(g, out),)

    return record(out, (a,), vjp)


def gather_rows(table, idx: np.ndarray) -> Tensor:
    """Row lookup table[idx]; backward scatter-adds into the table."""
    table = _wrap(table)
    idx = np.asarray(idx)
    if not np.issubdtype(idx.dtype, np.integer):
        raise DimensionError("gather_rows index must be an integer array")
    if np.any(idx < 0) or np.any(idx >= table.shape[0]):
        raise DomainError("gather_rows index out of range")
    out = table.data[idx]

    def vjp(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, idx.reshape(-1), g.reshape(-1, table.shape[-1]))
        return (gt,)

    return record(out, (table,), vjp)


# ---------------------------------------------------------------------------
# gradient utilities (plain numpy, run after backward)


def global_norm(grads) -> float:
    """L2 norm over a dict or iterable of ndarrays, treated as one vector.
    Finite entries too large to square (|g| above about 1e154) are divided
    by the largest |g| first, so only a non-finite entry reads inf or NaN."""
    values = grads.values() if isinstance(grads, dict) else grads
    arrays = [g.data if isinstance(g, Tensor) else np.asarray(g) for g in values]
    total = 0.0
    with np.errstate(over="ignore"):
        for arr in arrays:
            total += float(np.sum(arr * arr))
    if np.isinf(total) and all(np.all(np.isfinite(arr)) for arr in arrays):
        big = max(float(np.max(np.abs(arr), initial=0.0)) for arr in arrays)
        return big * global_norm([arr / big for arr in arrays])
    return float(np.sqrt(total))


def clip_by_global_norm(grads: dict, max_norm: float):
    """Rescale a gradient dict so its global L2 norm is <= max_norm.

    Returns (clipped dict, pre-clip norm). A set already inside the
    threshold, or with a non-finite norm (the optimizer rejects those),
    is returned unscaled.
    """
    if max_norm <= 0.0:
        raise DomainError("max_norm must be positive")
    norm = global_norm(grads)
    if norm <= max_norm or not np.isfinite(norm):
        scale = 1.0
    else:
        scale = max_norm / norm
    out = {}
    for k, g in grads.items():
        arr = g.data if isinstance(g, Tensor) else np.asarray(g, dtype=np.float64)
        out[k] = arr if scale == 1.0 else arr * scale
    return out, norm
