"""A finite-difference check of the whole training objective: the gradient
that ``step_objective`` leaves on the student's parameters, through the
convolutions with their fused ReLUs, both softmaxes, the three losses and
the weighted total, with the labeled and mixed-image forwards sharing the
weights.

The teacher predicts under ``no_grad``, so its predictions are constants
of the objective: the differences move the student's weights only, the
teacher's staying where they were, also when the teacher is the student
itself (``ema_teacher=False``).

**ReLU kinks.** A central difference whose segment takes a pre-activation
across 0 averages two slopes, and errs by up to half their jump. A
first-layer bias shifts a whole channel of 288 pre-activations, each
carrying about 1/288 of the bias's gradient, so one crossing errs by up to
about 1/600 of it, and with that many, one within FD_STEP of 0 is likely.
So the differences are taken with every ReLU held in the state it has at
the unperturbed weights (``FrozenReLUs``). That function is smooth, and it
equals the objective on a neighbourhood of those weights, where no
pre-activation is 0 (asserted) and so no ReLU changes state; the two share
their gradient there.

**Tolerance.** The relaxed CE's log floor of 1e-12 lies far below any
softmax output here, so a central difference at ``FD_STEP`` differs from
the derivative by its truncation, about FD_STEP**2 / 6 = 2e-7 times the
third derivative, and by rounding, about eps * |f| / FD_STEP, which
``max_rel_error`` floors. ``GRAD_TOLERANCE`` (1e-4) sits well above both
(the clean errors are about 1.5e-6) and below what a 1.01 scaling of one
node's backward shows, 1e-2 times that node's share of the gradient (at
least 5.6e-4 here).
"""

import numpy as np
import pytest

from structseg import model, tensor
from structseg.model import SegNet
from structseg.tensor import Tensor, backward, tape
from structseg.trainer import TrainConfig, Trainer, step_objective
from structseg.verification import FD_STEP, GRAD_TOLERANCE, max_rel_error

# A 1.01 scaling of one node's backward moves the gradient by 1% of that
# node's share of it, so the control fails only for a share above 1%. An
# untrained net predicts near-uniform maps whose pairwise cosines barely
# differ: at the default structured weight of 3 that loss's share here is
# about 0.6%, so the weight is 30.
TINY = dict(height=12, width=12, num_classes=3, n_labeled=2, n_unlabeled=4,
            n_validation=1, model_widths=(4, 4), num_boxes=4, num_active_boxes=2,
            epochs=2, ema_decay=0.5, structured_weight=30.0, seed=11)
VARIANTS = {
    "exact": dict(pair_budget=144 ** 2),  # m*m <= 144**2 for any box: never binds
    "sampled": dict(pair_budget=8),
    "shared_teacher": dict(pair_budget=8, ema_teacher=False),
}
ENTRIES_PER_TENSOR = 6
OPS = {"softmax", "conv2d", "relaxed_ce", "consistency", "structured_box", "weighted_sum"}


def _drawn_step(variant):
    """A trainer two steps in (the EMA teacher has moved off the student),
    the inputs of its next step and the weights its teacher predicts with."""
    tr = Trainer(TrainConfig(**TINY, **VARIANTS[variant]))
    for _ in range(2):
        tr.train_step()
    teacher = tr.ema.teacher_params if tr.config.ema_teacher else tr.student.params
    return tr, tr.draw_inputs(), teacher


def _analytic(tr, inputs, teacher, corrupt=None):
    """The gradient ``step_objective`` leaves on the student's parameters
    and the ops of its nodes in tape order; the node at index ``corrupt``
    scales its incoming gradient by 1.01."""
    loss_t, _ = step_objective(tr.student, teacher, inputs, tr.config)
    nodes = tape().nodes
    if corrupt is not None:
        nodes[corrupt].backward = lambda g, inner=nodes[corrupt].backward: inner(g * 1.01)
    ops = [node.op for node in nodes]
    backward(loss_t)
    grads = [p.grad for p in tr.student.params]
    for p in tr.student.params:
        p.grad = None
    return grads, ops


class FrozenReLUs:
    """Stands in for ``model.conv2d``. Until ``freeze`` every ReLU records
    its state; after it, each forward's ReLUs take the recorded states in
    call order."""

    def __init__(self):
        self.states, self.replay = [], None

    def __call__(self, x, kernel, bias, relu=False):
        out = tensor.conv2d(x, kernel, bias)
        if relu:
            if self.replay is None:
                assert (out.data != 0.0).all()  # no ReLU at its kink
                state = out.data > 0.0
                self.states.append(state)
            else:
                state = next(self.replay)
            out.data = np.where(state, out.data, 0.0)
        return out

    def freeze(self):
        self.replay = iter(self.states)


def _numeric(tr, inputs, teacher, monkeypatch):
    """The loss value and central differences on a fixed random subset of
    entries of each parameter tensor, the teacher predicting with its
    unperturbed weights and every ReLU held in its unperturbed state."""
    relus = FrozenReLUs()
    monkeypatch.setattr(model, "conv2d", relus)
    weights = [p.data.copy() for p in tr.student.params]
    fixed_teacher = [Tensor(t.data.copy()) for t in teacher]

    def f(ws):
        net = SegNet(tr.student.descriptor, [Tensor(w) for w in ws])
        return step_objective(net, fixed_teacher, inputs, tr.config)[0].item()

    value = f(weights)
    rng = np.random.default_rng(0)
    chosen, numeric = [], []
    for i, w in enumerate(weights):
        idx = rng.permutation(w.size)[:ENTRIES_PER_TENSOR]
        g = []
        for flat in idx:
            ends = []
            for h in (FD_STEP, -FD_STEP):
                ws = list(weights)
                ws[i] = w.copy()
                ws[i].flat[flat] += h
                relus.freeze()
                ends.append(f(ws))
            g.append((ends[0] - ends[1]) / (2.0 * FD_STEP))
        chosen.append(idx)
        numeric.append(np.array(g))
    return chosen, numeric, value


def _worst_error(grads, chosen, numeric, value):
    return max(max_rel_error(g.flat[idx], n, value)
               for g, idx, n in zip(grads, chosen, numeric))


@pytest.mark.parametrize("variant", list(VARIANTS))
def test_objective_gradient_matches_central_differences(variant, monkeypatch):
    """The step's parameter gradients match central differences, and
    scaling the backward of any one node of the objective by 1.01 breaks
    the match."""
    tr, inputs, teacher = _drawn_step(variant)
    assert any(bp.q is not None for bp in inputs.pairs.per_box) == (variant != "exact")
    grads, ops = _analytic(tr, inputs, teacher)
    assert set(ops) == OPS
    with monkeypatch.context() as m:
        chosen, numeric, value = _numeric(tr, inputs, teacher, m)
    assert len(tape()) == 0
    assert _worst_error(grads, chosen, numeric, value) < GRAD_TOLERANCE
    for k, op in enumerate(ops):
        corrupted, _ = _analytic(tr, inputs, teacher, corrupt=k)
        assert _worst_error(corrupted, chosen, numeric, value) > GRAD_TOLERANCE, (k, op)
