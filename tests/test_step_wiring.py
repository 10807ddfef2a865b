"""A training step's wiring, pinned on its drawn inputs: which arrays feed
which loss, which weights the teacher predicts with, and which generator
draws what.

``Trainer.draw_inputs`` is the only reader of the trainer's generators, so
a deep copy of a trainer draws exactly the inputs its next ``train_step``
will use. Each test runs a few steps on 24x24 scenes.
"""

import copy

import numpy as np
import pytest

from structseg.losses import (PredictionMap, consistency_loss, relaxed_cross_entropy,
                              structured_consistency_box)
from structseg.model import SegNet
from structseg.synthdata import augment_pair
from structseg.tensor import Tensor, backward
from structseg.trainer import EMA_VARIANTS, TrainConfig, Trainer, step_objective

SMALL = dict(height=24, width=24, num_classes=3, n_labeled=4, n_unlabeled=6,
             n_validation=3, model_widths=(6, 6), num_boxes=6, num_active_boxes=3,
             pair_budget=64, epochs=2)


def _generators(tr: Trainer):
    return (tr.rng_model, tr.rng_labeled, tr.rng_unlabeled, tr.rng_augment,
            tr.rng_boxes, tr.rng_pairs)


def _mask_select(mask: np.ndarray, base: np.ndarray, pasted: np.ndarray) -> np.ndarray:
    """CutMix by definition: the pasted map where the mask is 1, the base
    map elsewhere."""
    return np.where(mask.astype(bool)[:, :, None], pasted, base)


@pytest.mark.parametrize("ema_teacher", [True, False])
def test_step_losses_follow_the_method_on_the_drawn_inputs(ema_teacher):
    """The teacher predicts on each augmented image, the guessed label is
    the mask-select of those predictions, and the student predicts on the
    same mask-select of the images. Recomputed here, the three losses and
    their weighted total equal the step's to the last bit."""
    cfg = TrainConfig(**SMALL, seed=5, ema_decay=0.5, ema_teacher=ema_teacher)
    tr = Trainer(cfg)
    for _ in range(2):  # the EMA teacher moves away from the student
        tr.train_step()
    inputs = copy.deepcopy(tr).draw_inputs()
    student = [p.data.copy() for p in tr.student.params]
    teacher = [t.data.copy() for t in tr.ema.teacher_params] if ema_teacher else student
    assert ema_teacher == any(not np.array_equal(s, t) for s, t in zip(student, teacher))
    losses = tr.train_step().losses

    net = SegNet(tr.student.descriptor, [Tensor(w) for w in student])

    def predict(image, weights):  # no weight tracks gradients, so nothing is recorded
        return PredictionMap.from_logits(net.forward(image, params=[Tensor(w) for w in weights]))

    mask, (ua, ub) = inputs.boxset.mask, (inputs.pair.ua, inputs.pair.ub)
    guessed = PredictionMap(Tensor(_mask_select(mask, predict(ua, teacher).probs.data,
                                                predict(ub, teacher).probs.data)))
    student_mixed = predict(_mask_select(mask, ua, ub), student)
    l_x = relaxed_cross_entropy(predict(inputs.labeled.image, student),
                                inputs.labeled.labels, cfg.relax_window).item()
    l_c = consistency_loss(student_mixed, guessed).item()
    l_sc = structured_consistency_box(student_mixed, guessed, inputs.boxset,
                                      inputs.pairs).item()
    l_tot = l_x * 1.0 + l_c * cfg.consistency_weight + l_sc * cfg.structured_weight
    assert tuple(losses) == (l_x, l_c, l_sc, l_tot)


def test_the_objective_reads_only_its_arguments():
    """The objective of a twin's drawn inputs is the step's loss, and
    computing it draws from no generator."""
    tr = Trainer(TrainConfig(**SMALL, seed=8))
    twin = copy.deepcopy(tr)
    inputs = twin.draw_inputs()
    states = [g.bit_generator.state for g in _generators(twin)]
    loss_t, losses = step_objective(twin.student, twin.ema.teacher_params, inputs, twin.config)
    backward(loss_t)  # the objective's nodes leave the tape
    assert [g.bit_generator.state for g in _generators(twin)] == states
    assert tr.train_step().losses == losses


@pytest.mark.parametrize("variant", list(EMA_VARIANTS))
def test_ema_weights_move_whenever_a_consumer_reads_them(variant):
    """The EMA weights are kept up when either the teacher or validation
    reads them, also when the teacher is the student itself (X/O)."""
    cfg = TrainConfig(**{**SMALL, **EMA_VARIANTS[variant]}, seed=5)
    tr = Trainer(cfg)
    before = [t.data.copy() for t in tr.ema.teacher_params]
    tr.train_step()
    moved = [not np.array_equal(b, t.data) for b, t in zip(before, tr.ema.teacher_params)]
    kept = cfg.ema_teacher or cfg.ema_eval
    assert moved == [kept] * len(moved) and tr.ema.step_count == int(kept)


def test_the_drawn_pair_is_the_augmented_unlabeled_pair():
    """Each step's pair is ``augment_pair`` on the two raw unlabeled scenes,
    run from a copy of the augmentation stream."""
    tr = Trainer(TrainConfig(**SMALL, seed=6))
    changed = 0
    for _ in range(4):
        ia, ib = copy.deepcopy(tr)._next_unlabeled_pair()
        rng = np.random.default_rng()
        rng.bit_generator.state = tr.rng_augment.bit_generator.state
        raw = (tr.dataset.unlabeled_image(ia), tr.dataset.unlabeled_image(ib))
        pair = tr.draw_inputs().pair
        expected = augment_pair(rng, *raw)
        assert np.array_equal(pair.ua, expected.ua) and np.array_equal(pair.ub, expected.ub)
        changed += not (np.array_equal(pair.ua, raw[0]) and np.array_equal(pair.ub, raw[1]))
    assert changed  # the augmentation fired, so a raw pair would fail above


def test_the_structured_loss_draws_from_its_own_stream():
    """Switching the structured loss on leaves the first steps' labeled
    order, augmented pairs and box sets as they are with it off."""
    on, off = (Trainer(TrainConfig(**SMALL, seed=7, structured_weight=w)) for w in (3.0, 0.0))
    for _ in range(3):
        a, b = on.draw_inputs(), off.draw_inputs()
        assert a.pairs is not None and b.pairs is None
        assert a.boxset.boxes == b.boxset.boxes
        for x, y in [(a.labeled.image, b.labeled.image), (a.labeled.labels, b.labeled.labels),
                     (a.pair.ua, b.pair.ua), (a.pair.ub, b.pair.ub),
                     (a.boxset.mask, b.boxset.mask)]:
            assert np.array_equal(x, y)
