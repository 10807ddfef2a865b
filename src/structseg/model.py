"""Toy fully convolutional segmentation network.

A stack of same-padded 3x3 convolutions with ReLU in between; spatial
resolution is preserved end to end so the same net evaluates any input
size. Desk scale is enforced with a hard parameter-count cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .tensor import Tensor, conv2d

PARAM_CAP = 100_000


@dataclass(frozen=True)
class SegNetDescriptor:
    """Architecture: widths lists each layer's output channels, the last
    entry being the class count."""
    in_channels: int = 3
    widths: tuple = (32, 32, 32, 4)
    kernel_size: int = 3

    def validate(self) -> None:
        if self.in_channels < 1 or len(self.widths) < 1:
            raise ValueError("descriptor needs at least one layer and one input channel")
        if self.kernel_size < 1 or self.kernel_size % 2 == 0:
            raise ValueError(f"kernel size must be odd, got {self.kernel_size}")
        if any(w < 1 for w in self.widths):
            raise ValueError(f"layer widths must be positive, got {self.widths}")
        if self.param_count >= PARAM_CAP:
            raise ValueError(f"{self.param_count} parameters exceeds "
                             f"the desk-scale cap of {PARAM_CAP}")

    @property
    def param_count(self) -> int:
        """Kernel and bias entries of the net this descriptor builds."""
        return sum(math.prod(shape) for _, shape in self.param_shapes())

    def param_shapes(self):
        """(name, shape) of each parameter, in ``SegNet.params`` order."""
        k, cin = self.kernel_size, self.in_channels
        for i, cout in enumerate(self.widths):
            yield f"conv{i}.kernel", (k, k, cin, cout)
            yield f"conv{i}.bias", (cout,)
            cin = cout

    @property
    def num_classes(self) -> int:
        return self.widths[-1]


@dataclass
class SegNet:
    descriptor: SegNetDescriptor
    params: List[Tensor]  # in ``descriptor.param_shapes()`` order

    def forward(self, image: np.ndarray,
                params: Optional[Sequence[Tensor]] = None) -> Tensor:
        """Logits (H,W,C) for an (H,W,in_channels) image; pass ``params``
        to evaluate with substitute weights (EMA teacher, shared-weight
        teacher) of the same architecture. Every layer but the last has
        its ReLU fused into its ``conv2d`` node."""
        x = Tensor(image)
        if x.data.ndim != 3 or x.data.shape[2] != self.descriptor.in_channels:
            raise ValueError(
                f"forward: expected (H,W,{self.descriptor.in_channels}) image, got {x.shape}")
        params = self.params if params is None else list(params)
        n_layers = len(params) // 2
        for i, (k, b) in enumerate(zip(params[0::2], params[1::2])):
            x = conv2d(x, k, b, relu=i < n_layers - 1)
        return x


def init_segnet(rng: np.random.Generator, descriptor: SegNetDescriptor) -> SegNet:
    """Kaiming-style fan-in scaled kernels, zero biases, seed-deterministic."""
    descriptor.validate()
    params = []
    for _, shape in descriptor.param_shapes():
        if len(shape) == 4:  # a (k, k, c_in, c_out) kernel, fan-in k*k*c_in
            value = rng.normal(0.0, np.sqrt(2.0 / math.prod(shape[:-1])), size=shape)
        else:
            value = np.zeros(shape)
        params.append(Tensor(value, requires_grad=True))
    return SegNet(descriptor, params)
