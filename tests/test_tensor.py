"""Engine tests: op semantics, tape behavior, and finite-difference
gradient checks for every differentiable op. Losses are test-local
sum-of-squares nodes (``tape_helpers``)."""

import os
import platform
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import structseg
from structseg.tensor import (Tensor, backward, conv2d, custom_op, no_grad, relu, softmax,
                              tape, weighted_sum)
from structseg.verification import max_rel_error, numerical_gradient
from tape_helpers import sum_of_squares

SEEDS = range(20)


class TestForwardExamples:
    def test_relu_definition(self):
        out = relu(Tensor([-1.0, 0.0, 2.0]))
        np.testing.assert_array_equal(out.data, [0.0, 0.0, 2.0])

    def test_softmax_equal_logits(self):
        out = softmax(Tensor(np.zeros((2, 2, 4))))
        np.testing.assert_allclose(out.data, 0.25, rtol=0, atol=0)

    def test_conv_identity_kernel(self):
        rng = np.random.default_rng(0)
        img = rng.normal(size=(7, 9, 2))
        kernel = np.zeros((3, 3, 2, 2))
        kernel[1, 1] = np.eye(2)
        out = conv2d(Tensor(img), Tensor(kernel), padding=1)
        np.testing.assert_array_equal(out.data, img)

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(1)
        for seed in SEEDS:
            s = softmax(Tensor(rng.normal(size=(5, 4, 3)) * 10))
            assert np.abs(s.data.sum(axis=-1) - 1.0).max() < 1e-12

    def test_softmax_shift_invariance(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(4, 4, 5))
        a = softmax(Tensor(x)).data
        b = softmax(Tensor(x + 123.456)).data
        assert np.abs(a - b).max() < 1e-10

    def test_softmax_empty_axis_errors(self):
        with pytest.raises(ValueError, match="extent 0"):
            softmax(Tensor(np.zeros((2, 2, 0))))

    def test_shape_mismatch_names_op_and_shapes(self):
        with pytest.raises(ValueError, match=r"weighted_sum.*\(2, 3\).*\(4, 5\)"):
            weighted_sum([Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5)))], [1.0, 1.0])
        with pytest.raises(ValueError, match=r"weighted_sum.*\(2, 3\).*\(3,\)"):
            weighted_sum([Tensor(np.zeros((2, 3))), Tensor(np.zeros(3))],
                         [1.0, 1.0])  # no broadcasting
        with pytest.raises(ValueError, match="conv2d"):
            conv2d(Tensor(np.zeros((4, 4, 3))), Tensor(np.zeros((3, 3, 2, 8))))

    def test_weighted_sum_adds_left_to_right(self):
        a, b, c = (np.random.default_rng(seed).normal(size=100) for seed in range(3))
        out = weighted_sum([Tensor(a), Tensor(b), Tensor(c)], [1.0, 20.0, 3.0])
        assert np.array_equal(out.data, (a + 20.0 * b) + 3.0 * c)
        assert np.array_equal(weighted_sum([Tensor(a)], [1.0]).data, a)


class TestBackwardExamples:
    def test_sum_grad_is_ones(self):
        # backward seeds dL/dL = 1, and d(|x|^2 / 2)/dx = x is ones at x = 1
        x = Tensor(np.ones((3, 4, 2)), requires_grad=True)
        loss = weighted_sum([sum_of_squares(x)], [0.5])
        backward(loss)
        assert loss.grad == 1.0
        np.testing.assert_array_equal(x.grad, np.ones((3, 4, 2)))

    def test_square_sum_grad(self):
        x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        backward(sum_of_squares(x))
        np.testing.assert_array_equal(x.grad, [2.0, 4.0, 6.0])

    def test_non_scalar_loss_errors(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ValueError, match="scalar"):
            backward(relu(x))

    def test_mean_squared_softmax_difference_matches_fd(self):
        rng = np.random.default_rng(7)
        x0 = rng.normal(size=(4, 4, 3))
        y0 = rng.normal(size=(4, 4, 3))

        def loss_of(x):
            d = weighted_sum([softmax(x), softmax(Tensor(y0))], [1.0, -1.0])
            return weighted_sum([sum_of_squares(d)], [1.0 / d.data.size])

        xt = Tensor(x0, requires_grad=True)
        backward(loss_of(xt))
        err = max_rel_error(xt.grad, numerical_gradient(lambda x: loss_of(Tensor(x)).item(), x0))
        assert err < 1e-4

    def test_grad_accumulates_across_uses(self):
        x = Tensor([2.0], requires_grad=True)
        backward(sum_of_squares(weighted_sum([x, x], [1.0, 1.0])))  # d/dx (2x)^2 = 8x
        np.testing.assert_array_equal(x.grad, [16.0])


class TestTape:
    def test_no_recording_without_requires_grad(self):
        tape().clear()
        weighted_sum([Tensor([1.0]), Tensor([2.0])], [1.0, 1.0])
        assert len(tape()) == 0

    def test_tape_cleared_after_backward(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        loss = sum_of_squares(x)
        assert len(tape()) > 0
        backward(loss)
        assert len(tape()) == 0

    def test_backward_that_raises_leaves_the_tape_empty(self):
        def fail(g):
            raise RuntimeError("grad_of failed")

        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(RuntimeError, match="grad_of failed"):
            backward(sum_of_squares(custom_op("fails", x.data.copy(), x, fail)))
        assert len(tape()) == 0
        # a later, unrelated backward replays none of the failed pass's nodes
        y = Tensor([3.0], requires_grad=True)
        backward(sum_of_squares(y))
        np.testing.assert_array_equal(y.grad, [6.0])

    def test_no_grad_context_suspends_recording(self):
        tape().clear()
        x = Tensor([1.0], requires_grad=True)
        with no_grad():
            y = relu(x)
        assert len(tape()) == 0
        assert not y.requires_grad

    def test_inputs_recorded_before_consumers(self):
        tape().clear()
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = relu(x)
        z = sum_of_squares(y)
        ids = [id(node.out) for node in tape().nodes]
        assert ids.index(id(y)) < ids.index(id(z))
        backward(z)


def _away_from_zero(rng, shape):
    x = rng.normal(size=shape)
    return np.where(np.abs(x) < 0.05, x + 0.2, x)


# (name, builder(tensors) -> Tensor, input makers)
UNARY_CASES = [
    ("relu", lambda t: relu(t), _away_from_zero),
    ("softmax", lambda t: softmax(t), _away_from_zero),
]


@pytest.mark.parametrize("name,builder,make", UNARY_CASES)
def test_unary_op_gradients(name, builder, make):
    for seed in SEEDS:
        rng = np.random.default_rng(seed)
        x0 = make(rng, (3, 4, 2))
        t = Tensor(x0, requires_grad=True)
        backward(sum_of_squares(builder(t)))
        analytic = t.grad

        def f(x):
            return sum_of_squares(builder(Tensor(x))).item()

        assert max_rel_error(analytic, numerical_gradient(f, x0)) < 1e-4, f"{name} seed {seed}"


def test_weighted_sum_gradients():
    weights = [1.0, -2.5, 0.75]
    for seed in range(7):
        rng = np.random.default_rng(seed)
        arrays = [rng.normal(size=(3, 4)) for _ in weights]
        tensors = [Tensor(a, requires_grad=True) for a in arrays]
        backward(sum_of_squares(weighted_sum(tensors, weights)))
        for i, t in enumerate(tensors):
            def f(x, i=i):
                terms = [Tensor(x if j == i else a) for j, a in enumerate(arrays)]
                return sum_of_squares(weighted_sum(terms, weights)).item()

            assert max_rel_error(t.grad, numerical_gradient(f, arrays[i])) < 1e-4


# ids read stride-padding-fill; conv2d is stride 1 and pads with zeros
@pytest.mark.parametrize("padding", [1, 0], ids=["1-1-zeros", "1-0-zeros"])
def test_conv2d_gradients(padding):
    for seed in range(5):
        rng = np.random.default_rng(seed)
        x0 = rng.normal(size=(6, 5, 2))
        k0 = rng.normal(size=(3, 3, 2, 4))
        b0 = rng.normal(size=4)

        def build(x, k, b):
            return sum_of_squares(conv2d(Tensor(x) if not isinstance(x, Tensor) else x,
                                         Tensor(k) if not isinstance(k, Tensor) else k,
                                         Tensor(b) if not isinstance(b, Tensor) else b,
                                         padding=padding))

        tx = Tensor(x0, requires_grad=True)
        tk = Tensor(k0, requires_grad=True)
        tb = Tensor(b0, requires_grad=True)
        backward(build(tx, tk, tb))
        assert max_rel_error(tx.grad, numerical_gradient(
            lambda x: build(x, k0, b0).item(), x0)) < 1e-4
        assert max_rel_error(tk.grad, numerical_gradient(
            lambda k: build(x0, k, b0).item(), k0)) < 1e-4
        assert max_rel_error(tb.grad, numerical_gradient(
            lambda b: build(x0, k0, b).item(), b0)) < 1e-4


def _scatter_add_input_grad(g, k, shape, p):
    """dL/dx by scattering g @ k[ky, kx].T into each offset's window of the
    zero-padded input, then cropping the padding off."""
    h, w, _ = shape
    kh, kw = k.shape[:2]
    oh, ow = g.shape[:2]
    gxp = np.zeros((h + 2 * p, w + 2 * p, shape[2]))
    for ky in range(kh):
        for kx in range(kw):
            gxp[ky:ky + oh, kx:kx + ow, :] += g @ k[ky, kx].T
    return gxp[p:p + h, p:p + w, :]


# ids read c_in-c_out-padding-fill
@pytest.mark.parametrize("padding", [0, 1], ids=["0-zeros", "1-zeros"])
@pytest.mark.parametrize("cin,cout", [(3, 16), (16, 16), (16, 4)])
def test_conv2d_gradients_at_model_shapes(cin, cout, padding):
    """The model's layer shapes: the kernel gradient matches an einsum over
    an explicit patch stack, and the input gradient is bit-identical to the
    scatter-add formula."""
    rng = np.random.default_rng(cin * 100 + cout * 10 + padding)
    x0 = rng.normal(size=(32, 28, cin))
    k0 = rng.normal(size=(3, 3, cin, cout))
    x = Tensor(x0, requires_grad=True)
    k = Tensor(k0, requires_grad=True)
    out = conv2d(x, k, padding=padding)
    backward(sum_of_squares(out))
    g = 2.0 * out.data  # the output's gradient

    xp = np.pad(x0, ((padding, padding), (padding, padding), (0, 0)))
    oh, ow = out.shape[:2]
    patches = np.stack([np.stack([xp[ky:ky + oh, kx:kx + ow] for kx in range(3)])
                        for ky in range(3)])
    gk_ref = np.einsum("abijc,ijd->abcd", patches, g)
    assert np.abs(k.grad - gk_ref).max() <= 1e-12 * np.abs(gk_ref).max()
    gx_ref = _scatter_add_input_grad(g, k0, x0.shape, padding)
    assert np.array_equal(x.grad, gx_ref)


def test_max_rel_error_floor_is_rounding_noise():
    """Rounding-sized differences against a zero gradient pass; anything
    well above the central-difference noise still fails."""
    zero = np.zeros(4)
    noise = np.array([0.0, 2.6e-15, -1e-15, 0.0])
    assert max_rel_error(zero, noise, loss_value=0.5) < 1e-4
    assert max_rel_error(zero, noise * 1e4, loss_value=0.5) > 1e-2
    assert max_rel_error(noise * 1e4, zero, loss_value=0.5) > 1e-2
    # the noise, and so the floor, grows with |f|
    assert max_rel_error(zero, noise * 100, loss_value=1e3) < 1e-4


def test_determinism_bit_identical():
    def once():
        rng = np.random.default_rng(42)
        x = Tensor(rng.normal(size=(5, 5, 3)), requires_grad=True)
        k = Tensor(rng.normal(size=(3, 3, 3, 2)), requires_grad=True)
        loss = sum_of_squares(softmax(conv2d(x, k, padding=1)))
        backward(loss)
        return loss.data.copy(), x.grad.copy(), k.grad.copy()

    l1, gx1, gk1 = once()
    l2, gx2, gk2 = once()
    assert np.array_equal(l1, l2)
    assert np.array_equal(gx1, gx2)
    assert np.array_equal(gk1, gk2)


def test_detach_blocks_gradient():
    x = Tensor([3.0], requires_grad=True)
    y = x.detach()
    assert not y.requires_grad
    loss = sum_of_squares(y)
    backward(loss)
    assert x.grad is None


_REFAULT_SCRIPT = textwrap.dedent("""
    import importlib, resource
    import numpy as np
    import structseg.tensor as tensor

    def refault_count():
        # 500,000 doubles: 4 MB, above glibc's default 128 KiB mmap threshold
        # and below numpy's 4 MiB huge-page advice
        a = np.empty(500_000)
        a.fill(1.0)
        del a
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        b = np.empty(500_000)
        b.fill(1.0)
        return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

    first = (tensor.HEAP_KEEPS_FREED_BLOCKS, refault_count())
    importlib.reload(tensor)
    print(*first, tensor.HEAP_KEEPS_FREED_BLOCKS, refault_count())
""")


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc allocator only")
def test_freed_arrays_are_reused_without_page_faults():
    """A freed 4 MB array stays in the heap, so allocating and filling the
    next one costs no fresh pages (about 1000 faults if it were unmapped),
    also after the module is imported a second time."""
    src = os.path.dirname(os.path.dirname(structseg.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", _REFAULT_SCRIPT], env=env,
                         capture_output=True, text=True, check=True).stdout.split()
    keeps, faults, keeps_again, faults_again = out
    assert keeps == keeps_again == "True"
    assert int(faults) < 50 and int(faults_again) < 50, out
