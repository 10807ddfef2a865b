"""Training loop: branch toggles, determinism, schedules, evaluation."""

import copy
import gc
import json
import tracemalloc
import weakref
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from structseg import synthdata
from structseg import trainer as trainer_mod
from structseg.losses import PredictionMap, relaxed_cross_entropy
from structseg.model import SegNet
from structseg.optim import poly_lr, sgd_step
from structseg.tensor import NonFiniteError, backward
from structseg.trainer import (ConfigError, EMA_VARIANTS, LOSS_VARIANTS,
                               TrainConfig, Trainer, ablation_csv_rows, evaluate_net,
                               load_checkpoint, run_ablation, save_checkpoint)
from memory_helpers import traced_peak

# small geometry so unit tests stay fast
TINY = dict(height=24, width=24, num_classes=3, n_labeled=4, n_unlabeled=6,
            n_validation=3, model_widths=(6, 6), num_boxes=6, num_active_boxes=3,
            pair_budget=64, epochs=2)


def _cfg(**kw):
    merged = {**TINY, **kw}
    return TrainConfig(**merged)


class TestConfig:
    def test_unknown_key_rejected_by_name(self):
        with pytest.raises(ConfigError, match="lambda_typo"):
            TrainConfig.from_dict({"lambda_typo": 3})

    def test_round_trip(self):
        cfg = _cfg(seed=5)
        assert TrainConfig.from_dict(cfg.to_dict()) == cfg

    def test_validation_rules(self):
        with pytest.raises(ConfigError, match="num_active_boxes"):
            _cfg(num_active_boxes=10, num_boxes=4).validate()
        with pytest.raises(ConfigError, match="pair_budget"):
            _cfg(pair_budget=0).validate()
        with pytest.raises(ConfigError, match="odd"):
            _cfg(relax_window=2).validate()
        with pytest.raises(ConfigError, match="weights"):
            _cfg(consistency_weight=-1).validate()
        for lr0 in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ConfigError, match="lr0"):
                _cfg(lr0=lr0).validate()
        for field, value, message in [
                ("momentum", float("inf"), "momentum"), ("momentum", 1.0, "momentum"),
                ("epochs", "ten", "epochs"), ("epochs", True, "epochs"),
                ("height", 8.0, "height"), ("height", 4, "height"),
                ("ema_teacher", 1, "ema_teacher"), ("num_classes", 1, "num_classes"),
                ("model_widths", (6.5,), "model_widths"),
                ("model_widths", (200, 200), "cap"), ("kernel_size", 2, "odd"),
                ("seed", -1, "seed"), ("texture_sigma", -1.0, "texture_sigma"),
                ("eval_every", -1, "eval_every"), ("num_boxes", 24 * 24 + 1, "num_boxes"),
                ("power", -1.0, "power"), ("weight_decay", -0.1, "weight_decay")]:
            with pytest.raises(ConfigError, match=message):
                _cfg(**{field: value}).validate()
        # dump's CutMix preview reads two unlabeled scenes, branch on or off
        with pytest.raises(ConfigError, match="n_unlabeled"):
            _cfg(consistency_weight=0.0, structured_weight=0.0, n_unlabeled=1).validate()

    def test_list_and_tuple_widths_are_one_config(self):
        as_list, as_tuple = _cfg(model_widths=[8, 8]), _cfg(model_widths=(8, 8))
        as_list.validate()
        assert as_list == as_tuple and as_list.config_hash() == as_tuple.config_hash()
        with pytest.raises(ConfigError,
                           match=r"^model_widths must be a list of integers, got \(8, 'x'\)$"):
            _cfg(model_widths=[8, "x"]).validate()

    def test_hash_is_stable_and_key_order_free(self):
        cfg = _cfg(seed=1)
        d = cfg.to_dict()
        reordered = dict(reversed(list(d.items())))
        assert TrainConfig.from_dict(reordered).config_hash() == cfg.config_hash()


# Up to three known keys set either to values of their own type or to
# values of every type a JSON config can hold, nan and inf included.
TYPED_VALUE = {"int": st.integers(-2, 64), "float": st.floats(-1.0, 64.0),
               "bool": st.booleans(), "tuple": st.lists(st.integers(-2, 16), max_size=3)}
ANY_VALUE = st.one_of(st.integers(-2, 64), st.floats(), st.booleans(), st.none(),
                      st.text(max_size=4), st.lists(st.integers(-2, 16), max_size=3))


def _overrides(value_of):
    return st.lists(st.one_of([st.tuples(st.just(f.name), value_of(f))
                               for f in fields(TrainConfig)]), max_size=3).map(dict)


CONFIG_OVERRIDES = st.one_of(_overrides(lambda f: TYPED_VALUE[f.type]),
                             _overrides(lambda f: ANY_VALUE))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(CONFIG_OVERRIDES)
def test_known_keys_raise_config_error_or_train_one_step(overrides):
    """Whatever values up to three known keys take, the config is rejected
    with ConfigError before anything runs, or its first step trains (or
    stops with NonFiniteError). Kept to runs of <= 4096 pixels, <= 3 steps
    and <= 20 unlabeled scenes."""
    try:
        cfg = TrainConfig.from_dict({**_cfg(epochs=1, n_labeled=2).to_dict(), **overrides})
    except ConfigError:
        return
    assume(cfg.height * cfg.width <= 4096 and cfg.epochs * cfg.n_labeled <= 3
           and cfg.n_unlabeled <= 20)
    tr = Trainer(cfg)
    try:
        for _ in range(min(1, tr.max_steps)):
            tr.train_step()
    except NonFiniteError:
        pass


class TestBranchToggles:
    def test_supervised_only_skips_unlabeled_branch(self):
        tr = Trainer(_cfg(consistency_weight=0.0, structured_weight=0.0, seed=0))
        state_before = copy.deepcopy(tr.rng_unlabeled.bit_generator.state)
        rec = tr.train_step()
        assert rec.losses.l_c == 0.0 and rec.losses.l_sc == 0.0
        assert rec.losses.l_tot == rec.losses.l_x
        assert rec.pair_counts == []
        # the unlabeled stream was never consumed: no unlabeled forward happened
        assert tr.rng_unlabeled.bit_generator.state == state_before
        assert tr._unlabeled_queue == []

    def test_zero_weights_bitwise_identical_to_supervised_only(self):
        """Zero weights leave exactly the supervised step: the relaxed cross
        entropy of the labeled scene and one SGD update on its gradient."""
        cfg = _cfg(consistency_weight=0.0, structured_weight=0.0, seed=3)
        tr = Trainer(cfg)
        ref = Trainer(cfg)
        for step in range(4):
            tr.train_step()
            sample = ref.dataset.labeled(ref._next_labeled_index())
            probs = PredictionMap.from_logits(ref.student.forward(sample.image))
            backward(relaxed_cross_entropy(probs, sample.labels, cfg.relax_window))
            sgd_step(ref.student.params, poly_lr(step, ref.max_steps, cfg.lr0, cfg.power),
                     cfg.momentum, cfg.weight_decay, ref.velocity)
        for pa, pb in zip(tr.student.params, ref.student.params):
            assert np.array_equal(pa.data, pb.data)

    def test_consistency_only_branch(self):
        tr = Trainer(_cfg(structured_weight=0.0, seed=1))
        rec = tr.train_step()
        assert rec.losses.l_c > 0.0
        assert rec.losses.l_sc == 0.0
        assert rec.pair_counts == []

    def test_full_branch_populates_everything(self):
        tr = Trainer(_cfg(seed=1))
        rec = tr.train_step()
        assert rec.losses.l_c > 0.0
        assert rec.losses.l_sc >= 0.0
        assert len(rec.pair_counts) == tr.config.num_active_boxes


class TestStepMechanics:
    def test_lr_follows_polynomial_schedule(self):
        cfg = _cfg(seed=0, epochs=2)
        tr = Trainer(cfg)
        recs = tr.run()
        assert len(recs) == cfg.epochs * cfg.n_labeled
        for rec in recs:
            assert rec.lr == poly_lr(rec.step, tr.max_steps, cfg.lr0, cfg.power)
        assert recs[0].lr == cfg.lr0
        assert poly_lr(tr.max_steps, tr.max_steps, cfg.lr0, cfg.power) == 0.0

    def test_logged_total_is_the_graph_loss(self, monkeypatch):
        handed = []
        real_backward = trainer_mod.backward

        def spy(loss):
            handed.append(loss.item())
            real_backward(loss)

        monkeypatch.setattr(trainer_mod, "backward", spy)
        cfg = _cfg(seed=4)
        tr = Trainer(cfg)
        for k in range(4):
            lb = tr.train_step().losses
            assert lb.l_c > 0.0 and lb.l_sc > 0.0
            assert lb.l_tot == handed[k]
            expected = (lb.l_x + cfg.consistency_weight * lb.l_c
                        + cfg.structured_weight * lb.l_sc)
            assert abs(lb.l_tot - expected) <= 1e-12 * expected

    def test_one_step_records_one_node_for_the_weighted_total(self, monkeypatch):
        ops = []
        real_backward = trainer_mod.backward

        def spy(loss):
            ops.extend(node.op for node in trainer_mod.tape().nodes)
            real_backward(loss)

        monkeypatch.setattr(trainer_mod, "backward", spy)
        Trainer(_cfg(seed=4, model_widths=(6, 6, 6))).train_step()
        forward = ["conv2d", "relu"] * 3 + ["conv2d", "softmax"]
        assert ops == (forward + ["relaxed_ce"] + forward
                       + ["consistency", "structured_box", "weighted_sum"])

    def test_pair_counts_respect_budget(self):
        cfg = _cfg(seed=2, pair_budget=17)
        tr = Trainer(cfg)
        for _ in range(6):
            rec = tr.train_step()
            assert sum(rec.pair_counts) <= cfg.num_active_boxes * cfg.pair_budget

    def test_teacher_params_never_hold_gradients(self):
        tr = Trainer(_cfg(seed=0))
        for _ in range(4):
            tr.train_step()
            for t in tr.ema.teacher_params:
                assert t.grad is None
                assert not t.requires_grad

    def test_losses_decrease_over_first_50_steps(self):
        # 10-step moving average of the total loss trends downward
        cfg = _cfg(height=64, width=64, num_classes=4, n_labeled=20,
                   n_unlabeled=200, n_validation=50, model_widths=(8, 8, 8),
                   num_boxes=32, num_active_boxes=16, pair_budget=512, epochs=3,
                   seed=0)
        tr = Trainer(cfg)
        tots = [tr.train_step().losses.l_tot for _ in range(50)]
        ma = np.convolve(tots, np.ones(10) / 10, mode="valid")
        assert ma[-1] < ma[0]
        assert np.polyfit(np.arange(len(ma)), ma, 1)[0] < 0

    def test_nan_guard_aborts_with_step_index(self):
        tr = Trainer(_cfg(seed=0))
        tr.train_step()
        tr.student.params[0].data[0] = np.nan
        with pytest.raises(NonFiniteError, match="step 1"):
            tr.train_step()

    def test_deterministic_trajectories(self):
        a = Trainer(_cfg(seed=9))
        b = Trainer(_cfg(seed=9))
        ra = [r.losses.l_tot for r in (a.train_step() for _ in range(5))]
        rb = [r.losses.l_tot for r in (b.train_step() for _ in range(5))]
        assert ra == rb


class TestEvaluate:
    def test_ema_eval_equals_student_eval_at_step_zero(self):
        tr = Trainer(_cfg(seed=4))
        ema, stu = (evaluate_net(tr.student, tr.ema, replace(tr.config, ema_eval=flag),
                                 tr.dataset) for flag in (True, False))
        assert (ema.variant, stu.variant) == ("ema", "student")
        assert ema[:2] == stu[:2]

    def test_ema_eval_scores_the_teacher(self):
        tr = Trainer(_cfg(seed=4))
        for _ in range(3):
            tr.train_step()
        teacher = tr.evaluate()
        tr.config = replace(tr.config, ema_eval=False)
        student = tr.evaluate()
        for p, t in zip(tr.student.params, tr.ema.teacher_params):
            p.data = t.data.copy()
        student_as_teacher = tr.evaluate()
        assert (teacher.variant, student.variant) == ("ema", "student")
        assert teacher[:2] == student_as_teacher[:2] != student[:2]

    def test_constant_class_predictor_confusion_arithmetic(self):
        cfg = _cfg(seed=0, ema_eval=False)
        tr = Trainer(cfg)
        for p in tr.student.params:
            p.data[:] = 0.0
        tr.student.params[-1].data[1] = 10.0  # the last bias: always predict class 1
        m = tr.evaluate().miou
        # expected from the confusion matrix: class 1 IoU = (its truth pixel
        # count) / (total pixels), other present classes 0
        counts = np.zeros(cfg.num_classes)
        total = 0
        for i in range(cfg.n_validation):
            labels = tr.dataset.validation(i).labels
            for c in range(cfg.num_classes):
                counts[c] += (labels == c).sum()
            total += labels.size
        present = counts > 0
        expected_ious = np.zeros(cfg.num_classes)
        expected_ious[1] = counts[1] / total
        assert m == pytest.approx(expected_ious[present].mean())

    def test_evaluation_consumes_no_training_randomness(self):
        tr = Trainer(_cfg(seed=5))
        tr.train_step()
        state = copy.deepcopy(tr.rng_boxes.bit_generator.state)
        tr.evaluate()
        assert tr.rng_boxes.bit_generator.state == state


class TestAblation:
    def test_loss_grid_emits_three_rows(self):
        rows = run_ablation(_cfg(epochs=1), LOSS_VARIANTS, seeds=[0, 1, 2])
        assert [r[0] for r in rows] == ["sup", "sup+c", "sup+c+sc"]
        lines = ablation_csv_rows(rows)
        assert len(lines) == 4  # header + 3 rows
        assert lines[0].startswith("variant,mean_miou")

    def test_ema_grid_emits_four_rows(self):
        rows = run_ablation(_cfg(epochs=0), EMA_VARIANTS, seeds=[0, 1, 2])
        assert [r[0] for r in rows] == ["X/X", "X/O", "O/X", "O/O"]

    def test_requires_three_seeds(self):
        with pytest.raises(ConfigError, match="3 seeds"):
            run_ablation(_cfg(epochs=1), LOSS_VARIANTS, seeds=[0, 1])

    def test_identical_seed_and_variant_reproduce_miou(self):
        rows1 = run_ablation(_cfg(epochs=1), {"sup": LOSS_VARIANTS["sup"]},
                             seeds=[0, 1, 2])
        rows2 = run_ablation(_cfg(epochs=1), {"sup": LOSS_VARIANTS["sup"]},
                             seeds=[0, 1, 2])
        assert rows1 == rows2


class TestCheckpointIntegration:
    def test_save_load_round_trip(self, tmp_path):
        tr = Trainer(_cfg(seed=6))
        for _ in range(3):
            tr.train_step()
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, tr)
        net, ema_state, meta = load_checkpoint(path)
        assert isinstance(net, SegNet)
        for pa, pb in zip(net.params, tr.student.params):
            assert np.array_equal(pa.data, pb.data)
        for ta, tb in zip(ema_state.teacher_params, tr.ema.teacher_params):
            assert np.array_equal(ta.data, tb.data)
        assert meta == {"config": tr.config, "step": 3}
        assert (ema_state.decay, ema_state.step_count) == (tr.config.ema_decay, 3)
        header = json.loads(path.read_bytes().split(b"\n", 1)[0])
        assert set(header["meta"]) == {"config", "step", "ema_steps"}

    def test_loaded_net_reproduces_forward(self, tmp_path):
        tr = Trainer(_cfg(seed=7))
        tr.train_step()
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, tr)
        net, _, _ = load_checkpoint(path)
        img = tr.dataset.validation(0).image
        np.testing.assert_array_equal(net.forward(img).data,
                                      tr.student.forward(img).data)


class TestScenesAreNotKept:
    """Every step generates its labeled scene and its two unlabeled images
    and keeps none of them."""

    def test_generated_arrays_die_after_the_steps(self, monkeypatch):
        refs, generate = [], synthdata.generate_scene

        def generate_and_watch(*args, **kwargs):
            scene = generate(*args, **kwargs)
            refs.extend([weakref.ref(scene.image), weakref.ref(scene.labels)])
            return scene

        monkeypatch.setattr(synthdata, "generate_scene", generate_and_watch)
        tr = Trainer(_cfg())
        for _ in range(3):
            tr.train_step()
        gc.collect()
        assert len(refs) == 3 * 3 * 2
        assert all(ref() is None for ref in refs)

    def test_memory_does_not_grow_over_preset_steps(self):
        tr = Trainer(TrainConfig.ablation_preset())
        tr.train_step()  # warm-up: one-off first-step allocations stay out
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(30):
                tr.train_step()
            gc.collect()
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        one_image = 64 * 64 * 3 * 8
        assert grown < one_image, f"grew {grown / 2 ** 10:.1f} KiB over 30 steps"


class TestStepMemory:
    """The backward pass frees each node's arrays once it has run. A step
    that keeps every array until the tape is cleared peaks at about 40.7 MiB
    at the defaults and 20.4 MiB under the preset; freeing as the pass goes,
    it peaks at about 24.1 and 11.0 MiB."""

    @pytest.mark.parametrize("config, bound_mib", [
        (TrainConfig(), 32), (TrainConfig.ablation_preset(), 15)],
        ids=["default", "preset"])
    def test_one_step_stays_under_the_memory_bound(self, config, bound_mib):
        tr = Trainer(config)
        tr.train_step()  # warm-up: one-off first-step allocations stay out of the peak
        rec, peak = traced_peak(tr.train_step)
        assert rec.step == 1 and all(map(np.isfinite, rec.losses))
        assert peak < bound_mib * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MiB"
