"""Dense float64 tensors with tape-based reverse-mode differentiation.

Every operation that touches a gradient-tracking tensor is recorded on a
global tape in execution order; ``backward`` empties the tape node by node
in exact reverse order, accumulating dLoss/dTensor into ``.grad`` buffers
and freeing the arrays only the tape held as it goes. The
engine is deliberately small: ``conv2d``, ``relu`` and ``softmax`` for the
net, ``weighted_sum`` for the weighted loss total, and ``custom_op``, which
records a hand-differentiated node of one input. Each loss is one such node
(see ``losses``).

All data is 64-bit; shapes are static; execution is single-threaded and
bit-deterministic for fixed inputs.
"""

from __future__ import annotations

import contextlib
import ctypes
import os
import sys
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD_MAX = 32 << 20   # glibc's largest accepted value on 64-bit
_TRIM_THRESHOLD = 1 << 30        # above any working set this program reaches


def _keep_freed_blocks_in_heap() -> bool:
    """Make glibc keep freed blocks for reuse instead of returning them.

    By default glibc serves blocks of 128 KiB or more with their own mmap
    and unmaps them on free, and trims the heap top above 128 KiB, so every
    op's temporaries are faulted in page by page again on the next step.
    Both thresholds must be set: setting either one switches off glibc's
    adaptive thresholds, so the one left unset stays at 128 KiB. Returns
    whether both settings took effect; off Linux/glibc it does nothing.
    """
    if not sys.platform.startswith("linux"):
        return False
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return False
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (AttributeError, ValueError, OSError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mmap_ok = mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_MAX) == 1
    trim_ok = mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD) == 1
    return mmap_ok and trim_ok


# whether freed arrays stay in the heap; recorded in run manifests
HEAP_KEEPS_FREED_BLOCKS = _keep_freed_blocks_in_heap()


class NonFiniteError(RuntimeError):
    """Raised when a NaN/Inf is detected where finite values are required."""


@dataclass(slots=True)
class TapeNode:
    op: str
    out: Tensor
    backward: Callable[[np.ndarray], None]


class ComputationTape:
    """Ordered record of differentiable operations.

    Nodes are appended as ops execute, so inputs always precede the ops
    that consume them; the backward pass walks the list strictly in
    reverse.
    """

    def __init__(self):
        self.nodes: list[TapeNode] = []

    def clear(self):
        self.nodes.clear()

    def __len__(self):
        return len(self.nodes)


_TAPE = ComputationTape()
_GRAD_ENABLED = True


def tape() -> ComputationTape:
    return _TAPE


@contextlib.contextmanager
def no_grad():
    """Suspend tape recording inside the ``with`` block."""
    global _GRAD_ENABLED
    prev, _GRAD_ENABLED = _GRAD_ENABLED, False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


class Tensor:
    """n-dimensional float64 array with optional gradient tracking.

    ``data`` is a row-major numpy array; ``grad`` stays ``None`` until a
    backward pass deposits into it.
    """

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item: tensor of shape {self.shape} is not scalar")
        return float(self.data.reshape(()))

    def detach(self) -> "Tensor":
        """View of the same data with gradient tracking off."""
        return Tensor(self.data, requires_grad=False)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _record(op: str, out: Tensor, inputs: Sequence[Tensor], backward_fn) -> Tensor:
    if _GRAD_ENABLED and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        _TAPE.nodes.append(TapeNode(op, out, backward_fn))
    return out


def _accum(t: Tensor, g: np.ndarray):
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.array(np.broadcast_to(g, t.data.shape))
    else:
        t.grad += g


def backward(loss: Tensor) -> None:
    """Reverse-mode pass from a scalar loss. Each node leaves the tape
    before it runs, so the arrays only it held (its saved inputs, its output
    and that output's gradient) are freed once it has run; the tape ends
    empty, also when a node raises. Every requires_grad tensor reachable from
    ``loss`` that the caller holds ends up with ``grad`` = dLoss/dTensor."""
    if loss.data.size != 1:
        raise ValueError(f"backward: loss must be scalar, got shape {loss.shape}")
    try:
        if not loss.requires_grad:
            return
        loss.grad = np.ones_like(loss.data)
        while _TAPE.nodes:
            node = _TAPE.nodes.pop()
            if node.out.grad is not None:
                node.backward(node.out.grad)
    finally:
        _TAPE.clear()


# ---------------------------------------------------------------------------
# ops
# ---------------------------------------------------------------------------

def weighted_sum(terms: Sequence[Tensor], weights: Sequence[float]) -> Tensor:
    """``weights[0] * terms[0] + weights[1] * terms[1] + ...`` over
    same-shape tensors, added left to right; each term's gradient is the
    output's times its weight."""
    for t in terms[1:]:
        if t.shape != terms[0].shape:
            raise ValueError(f"weighted_sum: shapes {terms[0].shape} and {t.shape} differ")
    total = terms[0].data * weights[0]
    for t, w in zip(terms[1:], weights[1:]):
        total = total + t.data * w

    def bwd(g):
        for t, w in zip(terms, weights):
            _accum(t, g * w)

    return _record("weighted_sum", Tensor(total), terms, bwd)


def relu(a: Tensor) -> Tensor:
    out = Tensor(np.maximum(a.data, 0.0))
    mask = a.data > 0.0
    return _record("relu", out, (a,), lambda g: _accum(a, g * mask))


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax over the class axis."""
    if a.data.shape[axis] == 0:
        raise ValueError(f"softmax: axis {axis} of shape {a.shape} has extent 0")
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=axis, keepdims=True)
    out = Tensor(s)

    def bwd(g):
        dot = (g * s).sum(axis=axis, keepdims=True)
        _accum(a, s * (g - dot))

    return _record("softmax", out, (a,), bwd)


def custom_op(op: str, out_data: np.ndarray, a: Tensor, grad_of) -> Tensor:
    """Record a hand-differentiated op of one input: ``out_data`` is its
    value and ``grad_of(g)`` the gradient of ``a`` given the output's."""
    out = Tensor(out_data)
    return _record(op, out, (a,), lambda g: _accum(a, grad_of(g)))


def _correlate(xp: np.ndarray, kernel: np.ndarray, reverse: bool = False) -> np.ndarray:
    """Valid cross-correlation of an (H,W,c_in) array with a (kh,kw,c_in,
    c_out) kernel: one batched (W,c_in) x (c_in,c_out) product per kernel
    offset, no patch copy. ``reverse`` walks the offsets last to first."""
    kh, kw, _, cout = kernel.shape
    oh, ow = xp.shape[0] - kh + 1, xp.shape[1] - kw + 1
    step = -1 if reverse else 1
    out = np.zeros((oh, ow, cout))
    for ky in range(kh)[::step]:
        for kx in range(kw)[::step]:
            out += xp[ky:ky + oh, kx:kx + ow, :] @ kernel[ky, kx]
    return out


def conv2d(x: Tensor, kernel: Tensor, bias: Optional[Tensor] = None,
           padding: int = 0) -> Tensor:
    """2-D stride-1 cross-correlation on an HxWxC image, zero-padded by
    ``padding`` on each side.

    kernel has shape (kh, kw, c_in, c_out); the spatial loops run over
    kernel offsets only, each offset contributing one (H*W, c_in) x
    (c_in, c_out) product.

    Backward: the kernel gradient at each offset is a batch of per-row
    (c_in, W) x (W, c_out) products summed over rows. The input gradient
    is the correlation of the fully zero-padded output gradient with the
    kernel flipped in space and its channel axes swapped; walking the
    offsets in reverse adds the terms in the same order as scattering
    ``g @ kernel[ky, kx].T`` into each offset's window, so it is
    bit-identical to that scatter-add; cropping the padding off gives the
    image's gradient. The node keeps ``x`` and pads it again for the kernel
    gradient.
    """
    if x.data.ndim != 3 or kernel.data.ndim != 4:
        raise ValueError(
            f"conv2d: expects image (H,W,C) and kernel (kh,kw,cin,cout), "
            f"got {x.shape} and {kernel.shape}")
    h, w, cin = x.data.shape
    kh, kw, kcin, cout = kernel.data.shape
    if kcin != cin:
        raise ValueError(f"conv2d: input has {cin} channels, kernel expects {kcin}")
    if bias is not None and bias.data.shape != (cout,):
        raise ValueError(f"conv2d: bias shape {bias.shape} does not match {cout} outputs")
    p = int(padding)
    xp = np.pad(x.data, ((p, p), (p, p), (0, 0))) if p > 0 else x.data
    oh, ow = xp.shape[0] - kh + 1, xp.shape[1] - kw + 1
    if oh < 1 or ow < 1:
        raise ValueError(f"conv2d: kernel {kernel.shape} larger than padded input {xp.shape}")

    out_data = _correlate(xp, kernel.data)
    if bias is not None:
        out_data = out_data + bias.data
    out = Tensor(out_data)

    def bwd(g):
        if bias is not None:
            _accum(bias, g.sum(axis=(0, 1)))
        if kernel.requires_grad:
            gk = np.empty_like(kernel.data)
            xp = np.pad(x.data, ((p, p), (p, p), (0, 0))) if p > 0 else x.data
            for ky in range(kh):
                for kx in range(kw):
                    patch = xp[ky:ky + oh, kx:kx + ow, :]
                    gk[ky, kx] = np.matmul(patch.transpose(0, 2, 1), g).sum(axis=0)
            _accum(kernel, gk)
        if x.requires_grad:
            gp = np.pad(g, ((kh - 1, kh - 1), (kw - 1, kw - 1), (0, 0)))
            flipped = kernel.data[::-1, ::-1].transpose(0, 1, 3, 2)
            gxp = _correlate(gp, flipped, reverse=True)
            _accum(x, gxp[p:p + h, p:p + w, :])

    inputs = (x, kernel) if bias is None else (x, kernel, bias)
    return _record("conv2d", out, inputs, bwd)


def parameters_finite(params: Iterable[Tensor]) -> bool:
    return all(np.all(np.isfinite(p.data)) for p in params)
