"""Dense float64 tensors with tape-based reverse-mode differentiation.

Every operation that touches a gradient-tracking tensor is recorded on a
global tape in execution order; ``backward`` empties the tape node by node
in exact reverse order, accumulating dLoss/dTensor into ``.grad`` buffers
and freeing the arrays only the tape held as it goes. The engine is
deliberately small: ``conv2d`` (ReLU fused in) and ``softmax`` for the net,
``weighted_sum`` for the weighted loss total, and ``custom_op``, which
records a hand-differentiated node of one input. Each loss is one such node
(see ``losses``). ``class_sum`` and ``class_max`` are the class-axis
reductions that softmax and the losses share.

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
    empty, also when the loss is refused or a node raises. Every
    requires_grad tensor reachable from ``loss`` that the caller holds ends
    up with ``grad`` = dLoss/dTensor."""
    try:
        if loss.data.size != 1:
            raise ValueError(f"backward: loss must be scalar, got shape {loss.shape}")
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


def _class_reduce(ufunc, a: np.ndarray, start) -> np.ndarray:
    # numpy reduces a last axis shorter than 8 left to right, one inner loop
    # per pixel, and from 8 on in pairwise blocks of 8: below 8, C - 1 calls
    # over (..., 1) slices repeat its order, so its bits, without that loop
    c = a.shape[-1]
    if not 0 < c < 8:
        return ufunc.reduce(a, axis=-1, keepdims=True)
    out = start(a[..., :1])
    for k in range(1, c):
        ufunc(out, a[..., k:k + 1], out=out)
    return out


def class_sum(a: np.ndarray) -> np.ndarray:
    """``a.sum(axis=-1, keepdims=True)``, bit for bit up to a NaN's sign."""
    # numpy's sum starts from +0.0, so class vectors of -0.0 sum to 0.0
    return _class_reduce(np.add, a, lambda first: first + 0.0)


def class_max(a: np.ndarray) -> np.ndarray:
    """``a.max(axis=-1, keepdims=True)``, bit for bit up to a NaN's sign."""
    return _class_reduce(np.maximum, a, np.copy)


def softmax(a: Tensor) -> Tensor:
    """Numerically stable softmax over the last (class) axis."""
    if a.data.shape[-1] == 0:
        raise ValueError(f"softmax: class axis of shape {a.shape} has extent 0")
    e = np.exp(a.data - class_max(a.data))
    s = e / class_sum(e)
    out = Tensor(s)

    def bwd(g):
        _accum(a, s * (g - class_sum(g * s)))

    return _record("softmax", out, (a,), bwd)


def custom_op(op: str, out_data: np.ndarray, a: Tensor, grad_of) -> Tensor:
    """Record a hand-differentiated op of one input: ``out_data`` is its
    value and ``grad_of(g)`` the gradient of ``a`` given the output's; a
    recorded output is a scalar (a loss of a stack of maps is value only)."""
    out = Tensor(out_data)
    if _GRAD_ENABLED and a.requires_grad and out.data.size != 1:
        raise ValueError(f"{op}: output of shape {out.shape} cannot carry gradient")
    return _record(op, out, (a,), lambda g: _accum(a, grad_of(g)))


def _correlate(xp: np.ndarray, kernel: np.ndarray, reverse: bool = False) -> np.ndarray:
    """Valid cross-correlation of an (H,W,c_in) array with a (kh,kw,c_in,
    c_out) kernel: one batched (W,c_in) x (c_in,c_out) product per kernel
    offset, no patch copy. ``reverse`` walks the offsets last to first. The
    offsets' products are summed in blocks of output rows of at most
    512 KiB, so the running sum stays in cache; each entry still adds the
    same terms in the same order."""
    kh, kw, _, cout = kernel.shape
    oh, ow = xp.shape[0] - kh + 1, xp.shape[1] - kw + 1
    step = -1 if reverse else 1
    rows = max(1, (512 << 10) // (8 * ow * cout))
    out = np.zeros((oh, ow, cout))
    for r in range(0, oh, rows):
        block = out[r:r + rows]
        for ky in range(kh)[::step]:
            for kx in range(kw)[::step]:
                block += xp[r + ky:r + ky + len(block), kx:kx + ow, :] @ kernel[ky, kx]
    return out


def conv2d(x: Tensor, kernel: Tensor, bias: Tensor, relu: bool = False) -> Tensor:
    """2-D stride-1 cross-correlation on an HxWxC image, zero-padded by
    ``p = k // 2`` on each side so the output is HxW again, plus ``bias``;
    ``relu`` clamps that at 0.

    kernel has shape (k, k, c_in, c_out) with k odd; the spatial loops run
    over kernel offsets only, each offset contributing one (H*W, c_in) x
    (c_in, c_out) product.

    Backward: a ReLU masks the output gradient in place with ``out > 0``,
    which is ``pre > 0`` entry for entry (NaN included), so no
    pre-activation is kept. The kernel gradient at each offset is a batch
    of per-row (c_in, W) x (W, c_out) products summed over rows, on ``x``
    padded again and dropped after. The input gradient is the valid
    correlation of the output gradient, zero-padded by ``p``, with a
    contiguous copy of the kernel flipped in space and its channel axes
    swapped, so each product has exactly the image's W rows. Walking the
    offsets in reverse adds the terms in the same order as scattering
    ``g @ kernel[ky, kx].T`` into each offset's window.
    """
    if x.data.ndim != 3 or kernel.data.ndim != 4:
        raise ValueError(
            f"conv2d: expects image (H,W,C) and kernel (k,k,cin,cout), "
            f"got {x.shape} and {kernel.shape}")
    h, w, cin = x.data.shape
    k, kw, kcin, cout = kernel.data.shape
    if k != kw or k % 2 == 0:
        raise ValueError(f"conv2d: kernel {kernel.shape} is not odd and square")
    if kcin != cin:
        raise ValueError(f"conv2d: input has {cin} channels, kernel expects {kcin}")
    if bias.data.shape != (cout,):
        raise ValueError(f"conv2d: bias shape {bias.shape} does not match {cout} outputs")
    p = k // 2
    same = ((p, p), (p, p), (0, 0))
    out_data = _correlate(np.pad(x.data, same), kernel.data)
    out_data += bias.data
    if relu:
        np.maximum(out_data, 0.0, out=out_data)
    out = Tensor(out_data)

    def bwd(g):
        if relu:
            g *= out.data > 0.0
        _accum(bias, g.sum(axis=(0, 1)))
        if kernel.requires_grad:
            gk = np.empty_like(kernel.data)
            xp = np.pad(x.data, same)
            for ky in range(k):
                for kx in range(k):
                    patch = xp[ky:ky + h, kx:kx + w, :].transpose(0, 2, 1)
                    gk[ky, kx] = np.matmul(patch, g).sum(axis=0)
            del xp, patch
            _accum(kernel, gk)
        if x.requires_grad:
            flipped = np.ascontiguousarray(kernel.data[::-1, ::-1].transpose(0, 1, 3, 2))
            _accum(x, _correlate(np.pad(g, same), flipped, reverse=True))

    return _record("conv2d", out, (x, kernel, bias), bwd)


def parameters_finite(params: Iterable[Tensor]) -> bool:
    return all(np.all(np.isfinite(p.data)) for p in params)
