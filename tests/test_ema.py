"""EMA teacher weights: copy-init, update rule, closed form, convexity."""

import numpy as np
import pytest

from structseg.ema import ema_init, ema_update
from structseg.model import SegNetDescriptor, init_segnet
from structseg.tensor import Tensor, no_grad


def _params(rng, shapes=((3, 4), (5,), (2, 2, 2))):
    return [Tensor(rng.normal(size=s), requires_grad=True) for s in shapes]


class TestInit:
    def test_exact_copy(self):
        params = _params(np.random.default_rng(0))
        state = ema_init(params, 0.999)
        for t, s in zip(state.teacher_params, params):
            np.testing.assert_array_equal(t.data, s.data)
            assert t.data is not s.data  # independent storage
            assert not t.requires_grad

    def test_init_deterministic(self):
        params = _params(np.random.default_rng(1))
        a = ema_init(params, 0.999)
        b = ema_init(params, 0.999)
        for t1, t2 in zip(a.teacher_params, b.teacher_params):
            np.testing.assert_array_equal(t1.data, t2.data)
        assert a.step_count == b.step_count == 0

    def test_teacher_forward_equals_student_at_step_zero(self):
        rng = np.random.default_rng(2)
        net = init_segnet(rng, SegNetDescriptor(in_channels=2, widths=(4, 3)))
        state = ema_init(net.params, 0.999)
        img = rng.random((6, 6, 2))
        with no_grad():
            out_student = net.forward(img).data
        out_teacher = net.forward(img, params=state.teacher_params).data
        np.testing.assert_array_equal(out_student, out_teacher)

    def test_bad_decay_rejected(self):
        with pytest.raises(ValueError):
            ema_init([], 1.5)


class TestUpdate:
    def test_decay_zero_copies_student(self):
        rng = np.random.default_rng(3)
        params = _params(rng)
        state = ema_init(params, 0.0)
        for p in params:
            p.data += rng.normal(size=p.data.shape)
        ema_update(state, params)
        for t, s in zip(state.teacher_params, params):
            np.testing.assert_array_equal(t.data, s.data)

    def test_decay_one_freezes_teacher(self):
        rng = np.random.default_rng(4)
        params = _params(rng)
        state = ema_init(params, 1.0)
        before = [t.data.copy() for t in state.teacher_params]
        for p in params:
            p.data += 1.0
        ema_update(state, params)
        for t, b in zip(state.teacher_params, before):
            np.testing.assert_array_equal(t.data, b)

    @pytest.mark.parametrize("k", [1, 10, 1000])
    def test_geometric_closed_form(self, k):
        # against a frozen student: teacher(k) = student + d^k (teacher0 - student)
        rng = np.random.default_rng(5)
        params = _params(rng)
        state = ema_init(params, 0.999)
        frozen = [Tensor(rng.normal(size=p.data.shape)) for p in params]
        teacher0 = [t.data.copy() for t in state.teacher_params]
        for _ in range(k):
            ema_update(state, frozen)
        for t, s, t0 in zip(state.teacher_params, frozen, teacher0):
            expected = s.data + 0.999 ** k * (t0 - s.data)
            assert np.abs(t.data - expected).max() < 1e-12
        assert state.step_count == k

    def test_convexity_bounds(self):
        rng = np.random.default_rng(6)
        params = _params(rng)
        state = ema_init(params, 0.9)
        for _ in range(50):
            for p in params:
                p.data += rng.normal(size=p.data.shape, scale=0.1)
            before = [t.data.copy() for t in state.teacher_params]
            ema_update(state, params)
            for t, b, s in zip(state.teacher_params, before, params):
                lo = np.minimum(b, s.data)
                hi = np.maximum(b, s.data)
                assert np.all(t.data >= lo - 1e-15)
                assert np.all(t.data <= hi + 1e-15)

    def test_teacher_never_requires_grad(self):
        params = _params(np.random.default_rng(7))
        state = ema_init(params, 0.999)
        ema_update(state, params)
        for t in state.teacher_params:
            assert not t.requires_grad
            assert t.grad is None

    def test_shape_mismatch_errors(self):
        params = _params(np.random.default_rng(8))
        state = ema_init(params, 0.999)
        bad = [Tensor(np.zeros((1, 1)))] * len(params)
        with pytest.raises(ValueError, match="shape"):
            ema_update(state, bad)
        with pytest.raises(ValueError, match="tensors"):
            ema_update(state, params[:-1])
