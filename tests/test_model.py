"""Toy segmentation net: shape contract, init, equivariance, gradients."""

import numpy as np
import pytest

from structseg.model import PARAM_CAP, SegNetDescriptor, init_segnet
from structseg.tensor import backward, softmax, weighted_sum
from structseg.verification import max_rel_error, numerical_gradient
from tape_helpers import sum_of_squares


class TestInit:
    def test_same_seed_identical(self):
        d = SegNetDescriptor()
        a = init_segnet(np.random.default_rng(0), d)
        b = init_segnet(np.random.default_rng(0), d)
        for pa, pb in zip(a.params, b.params):
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_different_seeds_differ(self):
        d = SegNetDescriptor()
        a = init_segnet(np.random.default_rng(0), d)
        b = init_segnet(np.random.default_rng(1), d)
        assert any(not np.array_equal(pa.data, pb.data)
                   for pa, pb in zip(a.params, b.params))

    def test_default_parameter_count_formula(self):
        # 3x3 kernels, widths (32, 32, 32, C): 9*(3*32 + 32*32*2 + 32*C) + biases
        c = 4
        d = SegNetDescriptor(in_channels=3, widths=(32, 32, 32, c))
        net = init_segnet(np.random.default_rng(0), d)
        expected = 9 * (3 * 32 + 32 * 32 * 2 + 32 * c) + (32 + 32 + 32 + c)
        assert sum(p.data.size for p in net.params) == expected == d.param_count
        assert d.param_count < PARAM_CAP

    def test_biases_start_at_zero(self):
        net = init_segnet(np.random.default_rng(0), SegNetDescriptor())
        for b in net.params[1::2]:
            np.testing.assert_array_equal(b.data, 0.0)

    def test_param_cap_enforced(self):
        d = SegNetDescriptor(in_channels=3, widths=(128, 128, 128, 4))
        with pytest.raises(ValueError, match="cap"):
            init_segnet(np.random.default_rng(0), d)

    def test_param_shapes_are_the_init_shapes(self):
        d = SegNetDescriptor(in_channels=2, widths=(8, 5), kernel_size=5)
        assert list(d.param_shapes()) == [
            ("conv0.kernel", (5, 5, 2, 8)), ("conv0.bias", (8,)),
            ("conv1.kernel", (5, 5, 8, 5)), ("conv1.bias", (5,))]
        net = init_segnet(np.random.default_rng(0), d)
        assert [p.data.shape for p in net.params] == [s for _, s in d.param_shapes()]


class TestForward:
    def test_zero_final_layer_gives_uniform_softmax(self):
        rng = np.random.default_rng(0)
        net = init_segnet(rng, SegNetDescriptor(in_channels=3, widths=(8, 4)))
        net.params[-2].data[:] = 0.0  # the last kernel
        net.params[-1].data[:] = 0.0  # and bias
        probs = softmax(net.forward(rng.random((10, 10, 3)))).data
        np.testing.assert_allclose(probs, 0.25, rtol=0, atol=0)

    def test_output_shape_and_fully_convolutional(self):
        rng = np.random.default_rng(1)
        net = init_segnet(rng, SegNetDescriptor(in_channels=3, widths=(8, 8, 5)))
        assert net.forward(rng.random((32, 32, 3))).shape == (32, 32, 5)
        assert net.forward(rng.random((64, 48, 3))).shape == (64, 48, 5)

    def test_translation_equivariance_on_interior_pixels(self):
        """The zero padding reaches r = layers * (k // 2) pixels in from each
        border. Every pixel further in sees only the image around it, so
        translating the image translates those outputs; one row nearer the
        border, the padding shows."""
        rng = np.random.default_rng(2)
        d = SegNetDescriptor(in_channels=2, widths=(6, 6, 3))
        net = init_segnet(rng, d)
        r = len(d.widths) * (d.kernel_size // 2)
        scene = rng.random((24, 24, 2))
        h = w = 16
        out = net.forward(scene[:h, :w]).data
        for dy, dx in ((1, 0), (0, 1), (3, 5)):
            moved = net.forward(scene[dy:dy + h, dx:dx + w]).data
            np.testing.assert_allclose(moved[r:h - r - dy, r:w - r - dx],
                                       out[r + dy:h - r, r + dx:w - r], rtol=0, atol=1e-12)
            if dy:
                assert not np.allclose(moved[r - 1, r:w - r - dx],
                                       out[r - 1 + dy, r + dx:w - r], rtol=0, atol=1e-6)

    def test_channel_mismatch_errors(self):
        net = init_segnet(np.random.default_rng(0), SegNetDescriptor(in_channels=3,
                                                                     widths=(4, 2)))
        with pytest.raises(ValueError, match="H,W,3"):
            net.forward(np.zeros((8, 8, 1)))

    def test_forward_deterministic(self):
        rng = np.random.default_rng(3)
        net = init_segnet(rng, SegNetDescriptor(in_channels=3, widths=(4, 2)))
        img = rng.random((9, 9, 3))
        np.testing.assert_array_equal(net.forward(img).data, net.forward(img).data)

    def test_substitute_params_used(self):
        rng = np.random.default_rng(4)
        d = SegNetDescriptor(in_channels=2, widths=(4, 3))
        net = init_segnet(rng, d)
        other = init_segnet(np.random.default_rng(99), d)
        img = rng.random((6, 6, 2))
        np.testing.assert_array_equal(
            net.forward(img, params=other.params).data, other.forward(img).data)


def test_mean_logit_gradient_matches_finite_differences():
    """Gradient of the mean squared logit in every parameter."""
    rng = np.random.default_rng(5)
    net = init_segnet(rng, SegNetDescriptor(in_channels=2, widths=(3, 2)))
    img = rng.random((6, 6, 2))

    def mean_square(logits):
        return weighted_sum([sum_of_squares(logits)], [1.0 / logits.data.size])

    backward(mean_square(net.forward(img)))
    grads = [p.grad.copy() for p in net.params]
    values = [p.data.copy() for p in net.params]
    for k, p in enumerate(net.params):
        def f(x):
            for q, v in zip(net.params, values):
                q.data[:] = v
            p.data[:] = x
            out = mean_square(net.forward(img)).item()
            for q, v in zip(net.params, values):
                q.data[:] = v
            return out

        err = max_rel_error(grads[k], numerical_gradient(f, values[k]))
        assert err < 1e-4, f"param {k}"
