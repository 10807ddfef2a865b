"""Toy fully convolutional segmentation network.

A stack of same-padded 3x3 convolutions with ReLU in between; spatial
resolution is preserved end to end so the same net evaluates any input
size. Desk scale is enforced with a hard parameter-count cap.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Union

import numpy as np

from .tensor import Tensor, conv2d, relu

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
        k2 = self.kernel_size ** 2
        cins = (self.in_channels,) + tuple(self.widths[:-1])
        return sum(k2 * cin * cout + cout for cin, cout in zip(cins, self.widths))

    @property
    def num_classes(self) -> int:
        return self.widths[-1]

    def to_dict(self) -> dict:
        return {"in_channels": self.in_channels, "widths": list(self.widths),
                "kernel_size": self.kernel_size}

    @classmethod
    def from_dict(cls, d: dict) -> "SegNetDescriptor":
        return cls(in_channels=int(d["in_channels"]), widths=tuple(d["widths"]),
                   kernel_size=int(d["kernel_size"]))


@dataclass
class SegNet:
    descriptor: SegNetDescriptor
    kernels: List[Tensor] = field(default_factory=list)
    biases: List[Tensor] = field(default_factory=list)

    @property
    def params(self) -> List[Tensor]:
        out = []
        for k, b in zip(self.kernels, self.biases):
            out.append(k)
            out.append(b)
        return out

    def named_params(self):
        for i, (k, b) in enumerate(zip(self.kernels, self.biases)):
            yield f"conv{i}.kernel", k
            yield f"conv{i}.bias", b

    def forward(self, image: Union[Tensor, np.ndarray],
                params: Optional[Sequence[Tensor]] = None) -> Tensor:
        """Logits (H,W,C) for an (H,W,in_channels) image; pass ``params``
        to evaluate with substitute weights (EMA teacher, shared-weight
        teacher) of the same architecture."""
        x = image if isinstance(image, Tensor) else Tensor(image)
        if x.data.ndim != 3 or x.data.shape[2] != self.descriptor.in_channels:
            raise ValueError(
                f"forward: expected (H,W,{self.descriptor.in_channels}) image, got {x.shape}")
        if params is None:
            kernels, biases = self.kernels, self.biases
        else:
            params = list(params)
            kernels, biases = params[0::2], params[1::2]
        pad = self.descriptor.kernel_size // 2
        n_layers = len(kernels)
        for i, (k, b) in enumerate(zip(kernels, biases)):
            x = conv2d(x, k, b, padding=pad)
            if i < n_layers - 1:
                x = relu(x)
        return x


def init_segnet(rng: np.random.Generator, descriptor: SegNetDescriptor) -> SegNet:
    """Kaiming-style fan-in scaled kernels, zero biases, seed-deterministic."""
    descriptor.validate()
    net = SegNet(descriptor=descriptor)
    k = descriptor.kernel_size
    cin = descriptor.in_channels
    for cout in descriptor.widths:
        fan_in = k * k * cin
        std = np.sqrt(2.0 / fan_in)
        kernel = rng.normal(0.0, std, size=(k, k, cin, cout))
        net.kernels.append(Tensor(kernel, requires_grad=True))
        net.biases.append(Tensor(np.zeros(cout), requires_grad=True))
        cin = cout
    return net
