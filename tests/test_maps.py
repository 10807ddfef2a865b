"""PredictionMap's contract: every entry >= 0 and every pixel's class
vector summing to 1 within 1e-9, on one map or a stack of them."""

import numpy as np
import pytest

from structseg.maps import PredictionMap
from structseg.tensor import Tensor


def _uniform(shape):
    return np.full(shape, 1.0 / shape[-1])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -0.25],
                         ids=["nan", "inf", "minus-inf", "negative"])
def test_entry_outside_the_simplex_is_refused(bad):
    p = _uniform((4, 5, 3))
    p[0, 0, 0] = bad
    with pytest.raises(ValueError, match="simplex"):
        PredictionMap(Tensor(p))


def test_sum_off_by_more_than_tolerance_is_refused():
    p = _uniform((4, 5, 3))
    p[2, 3, 1] += 1e-8
    with pytest.raises(ValueError, match="simplex"):
        PredictionMap(Tensor(p))


def test_valid_map_with_a_batch_axis():
    pm = PredictionMap(Tensor(_uniform((2, 4, 5, 3))))
    assert (pm.height, pm.width, pm.num_classes) == (4, 5, 3)
    assert pm.shape == (2, 4, 5, 3)


def test_batch_with_one_bad_map_is_refused():
    p = _uniform((2, 4, 5, 3))
    p[1, 3, 4, 2] = np.nan
    with pytest.raises(ValueError, match="simplex"):
        PredictionMap(Tensor(p))


def test_fewer_than_three_axes_is_refused():
    with pytest.raises(ValueError, match="expects"):
        PredictionMap(Tensor(_uniform((4, 3))))
