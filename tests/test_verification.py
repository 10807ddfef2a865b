"""Gradient checking: the batched central differences against the
per-entry loop they replace, and the memory a check may take."""

import numpy as np
import pytest

from structseg import verification
from structseg.tensor import backward, tape
from structseg.verification import FD_STEP, LOSS_CHECKS
from fd_helpers import numerical_gradient_per_entry
from memory_helpers import traced_peak


@pytest.mark.parametrize("name", list(LOSS_CHECKS))
def test_batched_differences_match_the_per_entry_loop(name, monkeypatch):
    """Each loss evaluated on stacks gives the same numeric gradient, bit
    for bit, as one scalar evaluation per perturbed input."""
    batched = verification.numerical_gradient
    compared = []

    def both(f, x0):
        g = batched(f, x0)
        reference = numerical_gradient_per_entry(lambda x: float(f(x)), x0, FD_STEP)
        compared.append(g.tobytes() == reference.tobytes())
        return g

    monkeypatch.setattr(verification, "numerical_gradient", both)
    for seed in range(30):
        LOSS_CHECKS[name](seed)
    assert compared == [True] * 30


def test_corruptible_ops_are_the_ops_the_checks_record(monkeypatch):
    """``cli`` refuses a ``--corrupt-op`` outside CORRUPTIBLE_OPS before any
    check runs, so the list must name exactly the ops on the checks' tapes."""
    recorded = set()

    def recording(loss):
        recorded.update(node.op for node in tape().nodes)
        backward(loss)

    monkeypatch.setattr(verification, "backward", recording)
    verification.run_gradcheck(n_seeds=1)
    assert recorded == set(verification.CORRUPTIBLE_OPS)


def test_stack_rows_perturb_one_entry_each():
    x0 = np.arange(6.0).reshape(2, 3)
    calls = []

    def f(stack):
        calls.append(stack.copy())
        return stack.sum(axis=(-2, -1))

    g = verification.numerical_gradient(f, x0, h=0.5)
    np.testing.assert_allclose(g, np.ones((2, 3)), rtol=1e-12)
    assert [c.shape for c in calls] == [(6, 2, 3), (6, 2, 3)]
    first = calls[0].reshape(6, 6) - x0.ravel()
    np.testing.assert_array_equal(first, np.vstack([0.5 * np.eye(3, 6), -0.5 * np.eye(3, 6)]))


# A leg stacks one leading-axis slice of its 8x8x3 logits per call (48
# inputs of 1.5 KiB) and peaks at 0.39-0.88 MiB; stacking all 384 at once
# gave the same bits at 2.5-6.5 MiB.
LEG_PEAK_BOUND_MIB = 1.5


@pytest.mark.parametrize("name", list(LOSS_CHECKS))
def test_gradient_check_memory_is_bounded(name):
    for seed in range(3):
        _, peak = traced_peak(lambda: LOSS_CHECKS[name](seed))
        assert peak < LEG_PEAK_BOUND_MIB * 2 ** 20, f"seed {seed}: {peak / 2 ** 20:.2f} MiB"
