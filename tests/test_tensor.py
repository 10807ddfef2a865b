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
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import structseg
import softmax_reference
from structseg.tensor import (Tensor, _correlate, backward, class_max, class_sum, conv2d,
                              custom_op, no_grad, softmax, tape, weighted_sum)
from structseg.verification import FD_STEP, max_rel_error, numerical_gradient
from fd_helpers import per_row
from tape_helpers import sum_of_squares

SEEDS = range(20)


class TestForwardExamples:
    def test_softmax_equal_logits(self):
        out = softmax(Tensor(np.zeros((2, 2, 4))))
        np.testing.assert_allclose(out.data, 0.25, rtol=0, atol=0)

    def test_conv_identity_kernel(self):
        rng = np.random.default_rng(0)
        img = rng.normal(size=(7, 9, 2))
        kernel = np.zeros((3, 3, 2, 2))
        kernel[1, 1] = np.eye(2)
        out = conv2d(Tensor(img), Tensor(kernel), Tensor(np.zeros(2)))
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
            conv2d(Tensor(np.zeros((4, 4, 3))), Tensor(np.zeros((3, 3, 2, 8))),
                   Tensor(np.zeros(8)))

    @pytest.mark.parametrize("shape", [(2, 2, 2, 2), (3, 1, 2, 2), (1, 3, 2, 2)])
    def test_conv2d_refuses_even_or_non_square_kernels(self, shape):
        x = Tensor(np.zeros((4, 4, 2)), requires_grad=True)
        with pytest.raises(ValueError, match=r"conv2d: kernel .* is not odd and square"):
            conv2d(x, Tensor(np.zeros(shape)), Tensor(np.zeros(2)))
        assert len(tape()) == 0

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
            backward(softmax(x))
        assert tape().nodes == []  # the refused pass clears the tape too

    def test_mean_squared_softmax_difference_matches_fd(self):
        rng = np.random.default_rng(7)
        x0 = rng.normal(size=(4, 4, 3))
        y0 = rng.normal(size=(4, 4, 3))

        def loss_of(x):
            d = weighted_sum([softmax(x), softmax(Tensor(y0))], [1.0, -1.0])
            return weighted_sum([sum_of_squares(d)], [1.0 / d.data.size])

        xt = Tensor(x0, requires_grad=True)
        backward(loss_of(xt))
        err = max_rel_error(xt.grad, numerical_gradient(
            per_row(lambda x: loss_of(Tensor(x)).item()), x0))
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
            backward(sum_of_squares(custom_op("fails", x.data.sum(), x, fail)))
        assert len(tape()) == 0
        # a later, unrelated backward replays none of the failed pass's nodes
        y = Tensor([3.0], requires_grad=True)
        backward(sum_of_squares(y))
        np.testing.assert_array_equal(y.grad, [6.0])

    def test_no_grad_context_suspends_recording(self):
        tape().clear()
        x = Tensor([1.0], requires_grad=True)
        with no_grad():
            y = softmax(x)
        assert len(tape()) == 0
        assert not y.requires_grad

    def test_inputs_recorded_before_consumers(self):
        tape().clear()
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = softmax(x)
        z = sum_of_squares(y)
        ids = [id(node.out) for node in tape().nodes]
        assert ids.index(id(y)) < ids.index(id(z))
        backward(z)


def _away_from_zero(rng, shape):
    x = rng.normal(size=shape)
    return np.where(np.abs(x) < 0.05, x + 0.2, x)


# (name, builder(tensors) -> Tensor, input makers)
UNARY_CASES = [
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

        assert max_rel_error(analytic, numerical_gradient(per_row(f), x0)) < 1e-4, \
            f"{name} seed {seed}"


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

            assert max_rel_error(t.grad, numerical_gradient(per_row(f), arrays[i])) < 1e-4


# ids read stride-padding-fill(-relu); conv2d is stride 1 and pads a k x k
# kernel with k // 2 zeros, so padding p is a kernel of size 2p + 1 (at p = 3,
# larger than the 6x5 image)
@pytest.mark.parametrize("padding,relu", [(1, False), (0, False), (3, False),
                                          (1, True), (0, True), (3, True)],
                         ids=["1-1-zeros", "1-0-zeros", "1-3-zeros",
                              "1-1-zeros-relu", "1-0-zeros-relu", "1-3-zeros-relu"])
def test_conv2d_gradients(padding, relu):
    k = 2 * padding + 1
    for seed in range(5):
        rng = np.random.default_rng(seed)
        x0 = rng.normal(size=(6, 5, 2))
        k0 = rng.normal(size=(k, k, 2, 4))
        b0 = rng.normal(size=4)
        if relu:
            # on quarters, with the bias 1/32 off them, every pre-activation
            # is an odd multiple of 1/32: central differences, which move
            # one by at most FD_STEP * max(|x|, |k|, 1), never cross the kink
            x0, k0 = np.round(4 * x0) / 4, np.round(4 * k0) / 4
            b0 = np.round(4 * b0) / 4 + 1 / 32
            pre = conv2d(Tensor(x0), Tensor(k0), Tensor(b0)).data
            reach = FD_STEP * max(np.abs(x0).max(), np.abs(k0).max(), 1.0)
            assert np.abs(pre).min() > reach and (pre < 0).any() and (pre > 0).any()

        def build(x, k, b):
            return sum_of_squares(conv2d(Tensor(x) if not isinstance(x, Tensor) else x,
                                         Tensor(k) if not isinstance(k, Tensor) else k,
                                         Tensor(b) if not isinstance(b, Tensor) else b,
                                         relu=relu))

        tx = Tensor(x0, requires_grad=True)
        tk = Tensor(k0, requires_grad=True)
        tb = Tensor(b0, requires_grad=True)
        backward(build(tx, tk, tb))
        assert max_rel_error(tx.grad, numerical_gradient(
            per_row(lambda x: build(x, k0, b0).item()), x0)) < 1e-4
        assert max_rel_error(tk.grad, numerical_gradient(
            per_row(lambda k: build(x0, k, b0).item()), k0)) < 1e-4
        assert max_rel_error(tb.grad, numerical_gradient(
            per_row(lambda b: build(x0, k0, b).item()), b0)) < 1e-4


def _scatter_add_input_grad(g, k, shape, p):
    """dL/dx by scattering g @ k[ky, kx].T, with a contiguous copy of the
    transposed slice, into each offset's window of the zero-padded input,
    then cropping the padding off. g is first zero-padded by kh//2 - p so
    that each product has the input's width; conv2d pads by p = kh // 2."""
    h, w, _ = shape
    kh, kw = k.shape[:2]
    qh, qw = kh // 2 - p, kw // 2 - p
    g = np.pad(g, ((qh, qh), (qw, qw), (0, 0)))
    oh, ow = g.shape[:2]
    gxp = np.zeros((h + kh - 1, w + kw - 1, shape[2]))
    for ky in range(kh):
        for kx in range(kw):
            gxp[ky:ky + oh, kx:kx + ow, :] += g @ np.ascontiguousarray(k[ky, kx].T)
    return gxp[kh // 2:kh // 2 + h, kw // 2:kw // 2 + w, :]


# ids read c_in-c_out-padding-fill; padding p is a kernel of size 2p + 1
@pytest.mark.parametrize("padding", [0, 1], ids=["0-zeros", "1-zeros"])
@pytest.mark.parametrize("cin,cout", [(3, 16), (16, 16), (16, 4)])
def test_conv2d_gradients_at_model_shapes(cin, cout, padding):
    """The model's layer shapes: the kernel gradient matches an einsum over
    an explicit patch stack, and the input gradient is bit-identical to the
    scatter-add formula."""
    rng = np.random.default_rng(cin * 100 + cout * 10 + padding)
    size = 2 * padding + 1
    x0 = rng.normal(size=(32, 28, cin))
    k0 = rng.normal(size=(size, size, cin, cout))
    x = Tensor(x0, requires_grad=True)
    k = Tensor(k0, requires_grad=True)
    out = conv2d(x, k, Tensor(np.zeros(cout)))
    backward(sum_of_squares(out))
    g = 2.0 * out.data  # the output's gradient

    xp = np.pad(x0, ((padding, padding), (padding, padding), (0, 0)))
    oh, ow = out.shape[:2]
    patches = np.stack([np.stack([xp[ky:ky + oh, kx:kx + ow] for kx in range(size)])
                        for ky in range(size)])
    gk_ref = np.einsum("abijc,ijd->abcd", patches, g)
    assert np.abs(k.grad - gk_ref).max() <= 1e-12 * np.abs(gk_ref).max()
    gx_ref = _scatter_add_input_grad(g, k0, x0.shape, size // 2)
    assert np.array_equal(x.grad, gx_ref)


# ids read c_in-c_out-padding; padding p is a kernel of size 2p + 1
@pytest.mark.parametrize("padding", [0, 1])
@pytest.mark.parametrize("cin,cout", [(3, 16), (16, 16), (16, 4), (32, 32)])
def test_conv2d_relu_equals_the_unfused_composition(cin, cout, padding):
    """conv2d(..., relu=True) gives the bits of the plain op followed by
    max(pre, 0), whose backward passes g * (pre > 0), in its value and in
    the x, kernel and bias gradients, also where a pre-activation is 0."""
    rng = np.random.default_rng(cin * 100 + cout * 10 + padding)
    size = 2 * padding + 1
    x0 = rng.normal(size=(12, 10, cin))
    x0[3:9, 2:8] = 0.0  # pre-activations of exactly the bias...
    b0 = rng.normal(size=cout)
    b0[::2] = 0.0       # ...which is 0 on every other output channel
    k0 = rng.normal(size=(size, size, cin, cout))
    g = rng.normal(size=(12, 10, cout))

    def leaves():
        return (Tensor(x0, requires_grad=True), Tensor(k0, requires_grad=True),
                Tensor(b0, requires_grad=True))

    fused = leaves()
    out = conv2d(*fused, relu=True)
    backward(custom_op("probe", np.zeros(()), out, lambda _: g))

    ref = leaves()
    pre = conv2d(*ref)
    assert (pre.data == 0.0).any() and (pre.data < 0).any() and (pre.data > 0).any()
    backward(custom_op("probe", np.zeros(()), pre, lambda _: g * (pre.data > 0.0)))

    assert np.array_equal(_bits(out.data), _bits(np.maximum(pre.data, 0.0)))
    for t, r in zip(fused, ref):
        assert np.array_equal(_bits(t.grad), _bits(r.grad))


def _correlate_one_block(xp, kernel, reverse=False):
    """``_correlate`` as one block: each offset's product over all output
    rows at once."""
    kh, kw, _, cout = kernel.shape
    oh, ow = xp.shape[0] - kh + 1, xp.shape[1] - kw + 1
    step = -1 if reverse else 1
    out = np.zeros((oh, ow, cout))
    for ky in range(kh)[::step]:
        for kx in range(kw)[::step]:
            out += xp[ky:ky + oh, kx:kx + ow, :] @ kernel[ky, kx]
    return out


# ids read c_in-c_out
@pytest.mark.parametrize("cin,cout", [(32, 32), (32, 4), (16, 16), (16, 4)])
def test_conv2d_input_grad_keeps_full_pad_bits(cin, cout):
    """At the model's input-gradient shapes, 64x64 with 3x3 kernels, x.grad is
    bit-identical to the full-pad formula: g zero-padded by kh - 1,
    correlated in reverse with the F-ordered flipped kernel, then cropped.
    Training's bits rest on this."""
    rng = np.random.default_rng(cin * 100 + cout)
    x0 = rng.normal(size=(64, 64, cin))
    k0 = rng.normal(size=(3, 3, cin, cout))
    x = Tensor(x0, requires_grad=True)
    out = conv2d(x, Tensor(k0), Tensor(np.zeros(cout)))
    backward(sum_of_squares(out))
    g = 2.0 * out.data  # the output's gradient

    gp = np.pad(g, ((2, 2), (2, 2), (0, 0)))
    flipped = k0[::-1, ::-1].transpose(0, 1, 3, 2)
    gx_ref = _correlate_one_block(gp, flipped, reverse=True)[1:65, 1:65]
    assert np.array_equal(x.grad, gx_ref)


def test_correlate_row_blocks_keep_bits():
    """A 70x64x32 output spans row blocks of 32, 32 and 6 rows; summed block
    by block, either walk gives the bits of one block."""
    rng = np.random.default_rng(7)
    xp = rng.normal(size=(72, 66, 32))
    kernel = rng.normal(size=(3, 3, 32, 32))
    for reverse in (False, True):
        assert np.array_equal(_correlate(xp, kernel, reverse=reverse),
                              _correlate_one_block(xp, kernel, reverse=reverse))


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


# magnitudes 1e-12 to 1e12 of either sign, with NaN, -NaN, +-Inf and -0.0 mixed in
CLASS_VALUES = st.one_of(
    st.builds(lambda m, e: m * 10.0 ** e, st.floats(-9.99, 9.99), st.integers(-12, 11)),
    st.sampled_from([np.nan, -np.nan, np.inf, -np.inf, -0.0]))


@st.composite
def class_arrays(draw):
    """(..., C) arrays with C from 1 to 24 and leading axes (H, W) or a
    stack (N, H, W), laid out C-contiguous, Fortran-ordered or as a view
    strided in every axis."""
    c = draw(st.integers(1, 24))
    lead = tuple(draw(st.lists(st.integers(1, 3), min_size=2, max_size=3)))
    layout = draw(st.sampled_from(["c", "fortran", "sliced"]))
    if layout == "sliced":
        base = draw(hnp.arrays(np.float64, tuple(2 * n for n in lead) + (c + 2,),
                               elements=CLASS_VALUES))
        return base[(slice(None, None, 2),) * len(lead) + (slice(1, c + 1),)]
    a = draw(hnp.arrays(np.float64, lead + (c,), elements=CLASS_VALUES))
    return np.asfortranarray(a) if layout == "fortran" else a


def _wide_range(num_classes):
    """Contiguous (64, C) values spanning eight decades across the class
    axis, where summation order shows in the last bits."""
    rng = np.random.default_rng(num_classes)
    return rng.normal(size=(64, num_classes)) * 10.0 ** (np.arange(num_classes) % 8 - 3)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(class_arrays())
@example(_wide_range(7))
@example(_wide_range(8))  # numpy's first pairwise length
@example(_wide_range(9))
def test_class_reductions_equal_numpys_bit_for_bit(a):
    # A NaN's sign bit is not compared: numpy's own loops differ in it (its
    # contiguous max reduce clears a leading -NaN's sign, its strided one
    # keeps it; an in-place add of one pixel keeps the second NaN's sign)
    with np.errstate(invalid="ignore", over="ignore"):
        for ours, ref in [(class_sum(a), a.sum(axis=-1, keepdims=True)),
                          (class_max(a), a.max(axis=-1, keepdims=True))]:
            assert ours.shape == ref.shape
            assert np.array_equal(_bits(np.where(np.isnan(ours), np.nan, ours)),
                                  _bits(np.where(np.isnan(ref), np.nan, ref)))


@pytest.mark.parametrize("num_classes", [2, 3, 4, 19])
@pytest.mark.parametrize("lead", [(8, 8), (5, 8, 8)], ids=["map", "stack"])
def test_softmax_matches_numpy_reductions_bit_for_bit(num_classes, lead):
    rng = np.random.default_rng(num_classes)
    x = rng.normal(size=lead + (num_classes,)) * 10.0
    g = rng.normal(size=x.shape)
    t = Tensor(x, requires_grad=True)
    s = softmax(t)
    ref = softmax_reference.softmax(x)
    assert np.array_equal(_bits(s.data), _bits(ref))
    backward(custom_op("probe", np.zeros(()), s, lambda _: g))
    assert np.array_equal(_bits(t.grad), _bits(softmax_reference.softmax_backward(ref, g)))


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
        loss = sum_of_squares(softmax(conv2d(x, k, Tensor(np.zeros(2)))))
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
