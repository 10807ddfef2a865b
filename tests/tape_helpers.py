"""A scalar loss for engine tests, recorded as one hand-differentiated node."""

import numpy as np

from structseg.tensor import Tensor, custom_op


def sum_of_squares(t: Tensor) -> Tensor:
    """sum(t * t), whose gradient is 2 t."""
    return custom_op("sum_of_squares", np.sum(t.data * t.data), t,
                     lambda g: g * 2.0 * t.data)

