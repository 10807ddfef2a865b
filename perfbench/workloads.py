"""The four workloads: what one operation is, how a run sets up, and the
checks applied to each operation's outputs.

Importing this module imports structseg, so the set-up clock starts just
before it is imported. Every workload offers:

    setup()           build state; runs inside the set-up clock
    op(k)             the k-th operation of the seeded sequence (timed)
    prepare(k)        snapshot taken before a checked operation (not timed)
    check(k, result)  failure messages for one operation (not timed)
    final_checks()    failure messages once the timed loop ends
    exhausted()       true when the sequence has no further operation
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import replace

import numpy as np

import structseg
from structseg import cli, cutmix, losses, metrics, model, synthdata
from structseg import tensor, trainer, verification
from structseg.trainer import TrainConfig, Trainer, save_checkpoint

import checks
from tracing import Tracer

WARMUP_OPS = 2
CHECKPOINT_STEPS = 4      # training steps behind the evaluation checkpoint
ORACLE_SEEDS_PER_OP = 10  # run_oracle seeds in one verify operation
SEED_STRIDE = 100_000     # keeps the verification seeds of two runs apart


def data_seed(seed: int) -> int:
    return 100 + seed


def instrument(tracer: Tracer) -> None:
    """Spans around every call the per-layer metrics name. Does nothing
    when tracing is off."""
    if not tracer.enabled:
        return
    w = tracer.wrap

    def forward_span(a, kw):
        if tracer.inside("trainer.evaluate"):
            return "model.eval_forward"
        params = a[2] if len(a) > 2 else kw.get("params")
        return "model.student_forward" if params is None else "model.teacher_forward"

    w(model.SegNet, "forward", forward_span,
      after=lambda a, kw, out: tracer.count("model.forward_calls"))
    w(model, "conv2d", "tensor.conv2d_fwd")
    w(Trainer, "__init__", "trainer.build")
    w(Trainer, "evaluate", "trainer.evaluate")
    w(synthdata, "generate_scene", "synthdata.scene",
      after=lambda a, kw, out: tracer.count("synthdata.scenes"))
    w(metrics.ConfusionMatrix, "accumulate", "metrics.accumulate")
    w(structseg.checkpoint, "read_blob", "checkpoint.read",
      after=lambda a, kw, out: tracer.count(
          "checkpoint.bytes", sum(arr.nbytes for arr in out[0].values())))
    w(cutmix, "_sample_boxes", None,
      after=lambda a, kw, out: tracer.count("cutmix.box_draws"))

    def count_pairs(a, kw, out):
        tracer.count("losses.pairs", a[3].total_pairs)

    # The trainer and the verification code import these names into their
    # own namespaces, so each namespace is wrapped.
    for ns in (trainer, verification):
        w(ns, "relaxed_cross_entropy", "losses.relaxed_ce")
        w(ns, "consistency_loss", "losses.consistency")
        w(ns, "structured_consistency_box", "losses.structured", after=count_pairs)
        w(ns, "generate_boxes", "cutmix.generate_boxes",
          after=lambda a, kw, out: tracer.count("cutmix.box_sets"))
        w(ns, "drop_pairs", "cutmix.drop_pairs")
        tracer.wrap_backward(ns, "backward", tensor.tape)
    w(trainer, "compose_image", "cutmix.compose")
    w(trainer, "compose_predictions", "cutmix.compose")
    w(trainer, "augment_pair", "synthdata.augment")
    w(trainer, "sgd_step", "optim.sgd_step")
    w(trainer, "ema_update", "ema.update")
    w(verification, "structured_consistency_full", "losses.structured_full")
    for name in ("relaxed_cross_entropy", "consistency_loss",
                 "structured_consistency_box", "structured_consistency_full"):
        w(verification, name, None,
          after=lambda a, kw, out: tracer.count("verification.loss_evals"))
    for name in ("check_relaxed_ce", "check_consistency", "check_structured_box"):
        w(verification, name, "verification.gradcheck")
    w(verification, "run_oracle", "verification.oracle")


class Workload:
    """Defaults: nothing to set up, snapshot or check at the end, and an
    endless sequence of operations."""

    def setup(self) -> None:
        pass

    def exhausted(self) -> bool:
        return False

    def prepare(self, k: int) -> None:
        pass

    def final_checks(self):
        return []


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

class TrainWorkload(Workload):
    """One operation is one ``Trainer.train_step()``."""

    def __init__(self, config: TrainConfig, seed: int, tracer: Tracer):
        self.config = replace(config, seed=seed, data_seed=data_seed(seed))
        self.captured: dict = {}
        self.checked_recompute = False
        cap = self.captured
        w = tracer.wrap
        w(trainer, "generate_boxes", None,
          after=lambda a, kw, out: cap.__setitem__("boxset", out))
        w(trainer, "drop_pairs", None,
          after=lambda a, kw, out: cap.__setitem__("pairs", out))
        w(trainer, "consistency_loss", None,
          after=lambda a, kw, out: cap.__setitem__("consistency_args", a))
        w(trainer, "backward", None,
          after=lambda a, kw, out: cap.__setitem__("graph_total", float(a[0].data)))

    def setup(self) -> None:
        self.trainer = Trainer(self.config)
        ds = self.trainer.dataset
        for i in range(self.config.n_labeled):
            ds.labeled(i)
        for i in range(self.config.n_unlabeled):
            ds.unlabeled_image(i)
        for i in range(self.config.n_validation):
            ds.validation(i)

    def exhausted(self) -> bool:
        return self.trainer.step_index >= self.trainer.max_steps

    def op(self, k: int):
        return self.trainer.train_step()

    def prepare(self, k: int) -> None:
        self.captured.clear()
        self.teacher_before = [t.data.copy() for t in self.trainer.ema.teacher_params]

    def check(self, k: int, rec):
        cfg = self.config
        cap = self.captured
        lb = rec.losses
        fails = checks.check_losses(lb.l_x, lb.l_c, lb.l_sc, lb.l_tot,
                                    cfg.consistency_weight, cfg.structured_weight,
                                    cap["graph_total"])
        boxset = cap["boxset"]
        fails += checks.check_mask(boxset.boxes, boxset.mask, cfg.height, cfg.width)
        per_box = [(bp.paste_index, bp.i, bp.j) for bp in cap["pairs"].per_box]
        fails += checks.check_pairs(boxset.boxes, boxset.active_range, cfg.height,
                                    cfg.width, per_box, cfg.pair_budget)
        fails += checks.check_ema(self.teacher_before,
                                  [p.data for p in self.trainer.student.params],
                                  [t.data for t in self.trainer.ema.teacher_params],
                                  cfg.ema_decay)
        if not self.checked_recompute:
            self.checked_recompute = True
            student, guessed = (m.probs.data for m in cap["consistency_args"])
            fails += checks.check_recomputed(
                "l_c", lb.l_c, checks.consistency_value(student, guessed))
            fails += checks.check_recomputed(
                "l_sc", lb.l_sc, checks.structured_value(student, guessed, per_box))
        return [f"step {rec.step}: {f}" for f in fails]

    def final_checks(self):
        return [] if self.checked_recompute else ["no step was checked"]


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def checkpoint_config(seed: int) -> TrainConfig:
    return replace(TrainConfig.ablation_preset(), seed=seed, data_seed=data_seed(seed))


def make_checkpoint(path, seed: int) -> None:
    """Train a few preset steps with the program and save the checkpoint
    the evaluate workload scores."""
    tr = Trainer(checkpoint_config(seed))
    for _ in range(CHECKPOINT_STEPS):
        tr.train_step()
    save_checkpoint(path, tr)


def expected_scores_path(checkpoint_path) -> str:
    return checkpoint_path + ".expected.json"


def own_scores(path):
    """Logits of the program and of the numpy convolution on every
    validation scene of a checkpoint, and IoU from confusion counts made
    here. Returns the failure messages and (per_class, miou, step, variant)."""
    arrays, meta = checks.read_checkpoint(path)
    cfg = TrainConfig.from_dict(meta["config"])
    use_ema = cfg.ema_eval
    layers = checks.checkpoint_layers(arrays, "teacher/" if use_ema else "student/")
    net, ema_state, _ = trainer.load_checkpoint(path)
    params = ema_state.teacher_params if use_ema else None
    dataset = cfg.make_dataset()
    counts = np.zeros((cfg.num_classes, cfg.num_classes), dtype=np.int64)
    fails = []
    for i in range(cfg.n_validation):
        scene = dataset.validation(i)
        own = checks.conv_net_logits(layers, scene.image)
        with tensor.no_grad():
            program = net.forward(scene.image, params=params).data
        fails += [f"scene {i}: {f}" for f in checks.check_logits(program, own)]
        counts += checks.confusion_counts(np.argmax(own, axis=2), scene.labels,
                                          cfg.num_classes)
    per_class, miou = checks.iou_from_counts(counts)
    variant = "ema" if use_ema else "student"
    return fails, (per_class, miou, int(meta["step"]), variant)


def write_expected_scores(checkpoint_path) -> None:
    """Run ``own_scores`` in the process that made the checkpoint, so that
    its allocations stay out of the measuring process's peak RSS."""
    fails, expected = own_scores(checkpoint_path)
    with open(expected_scores_path(checkpoint_path), "w") as f:
        json.dump({"fails": fails, "expected": expected}, f)


class EvaluateWorkload(Workload):
    """One operation is one in-process ``structseg evaluate --checkpoint``."""

    def __init__(self, checkpoint_path: str):
        self.path = checkpoint_path
        self.expected = None

    def op(self, k: int):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["evaluate", "--checkpoint", self.path])
        return code, out.getvalue()

    def check(self, k: int, result):
        code, text = result
        fails = []
        if self.expected is None:
            with open(expected_scores_path(self.path)) as f:
                saved = json.load(f)
            fails, self.expected = saved["fails"], tuple(saved["expected"])
        if code != 0:
            fails.append(f"evaluate exited {code}")
        fails += checks.check_eval_printout(text, *self.expected)
        return [f"evaluate {k}: {f}" for f in fails]

    def final_checks(self):
        return [] if self.expected is not None else ["no evaluation was checked"]


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

class VerifyWorkload(Workload):
    """One operation is one seed of ``run_gradcheck``'s four gradient
    checks and a fixed number of ``run_oracle`` seeds.

    On about one seed in 2000, every 3x3 label window of the window-3
    relaxed cross entropy holds every class, so the loss is constant and
    its gradient zero. ``max_rel_error`` then divides finite-difference
    rounding (~1e-15) by its 1e-12 floor and reports an error near 3e-3
    for a correct gradient. On those seeds the check asks instead that
    the program's gradient be zero.
    """

    def __init__(self, seed: int):
        self.base = seed * SEED_STRIDE
        self.constant_loss_seeds = []

    def seeds(self, k: int):
        return self.base + k, self.base + ORACLE_SEEDS_PER_OP * k

    def op(self, k: int):
        grad_seed, oracle_seed = self.seeds(k)
        report = {
            "relaxed_ce_w1": verification.check_relaxed_ce(grad_seed, window=1),
            "relaxed_ce_w3": verification.check_relaxed_ce(grad_seed, window=3),
            "consistency": verification.check_consistency(grad_seed),
            "structured_box": verification.check_structured_box(grad_seed),
        }
        deviation = verification.run_oracle(n_seeds=ORACLE_SEEDS_PER_OP, seed0=oracle_seed)
        return report, deviation

    def check(self, k: int, result):
        report, deviation = result
        grad_seed, oracle_seed = self.seeds(k)
        fails = []
        logits, labels = relaxed_ce_inputs(grad_seed)
        if checks.every_window_holds_every_class(labels, 3, logits.shape[2]):
            self.constant_loss_seeds.append(grad_seed)
            report = dict(report)
            del report["relaxed_ce_w3"]
            fails += checks.check_zero_gradient(relaxed_ce_gradient(logits, labels, 3))
        fails += checks.check_gradcheck(report) + checks.check_oracle(deviation)
        fails += self.check_enumeration(oracle_seed)
        return [f"verify {k}: {f}" for f in fails]

    @staticmethod
    def check_enumeration(seed: int, height: int = 6, width: int = 6,
                          num_classes: int = 3, n_strips: int = 3):
        """``structured_consistency_box`` with a budget that never binds,
        against brute-force enumeration, on the oracle's inputs for one
        seed: two softmaxed normal fields and horizontal strips."""
        rng = np.random.default_rng(seed)
        student = checks.softmax(rng.normal(size=(height, width, num_classes)))
        guessed = checks.softmax(rng.normal(size=(height, width, num_classes)))
        sh = height // n_strips
        boxes = [cutmix.Box(0, s * sh, width, sh, paste_index=s + 1) for s in range(n_strips)]
        boxset = cutmix.boxset_from_boxes(boxes, height, width, n_box=n_strips)
        pairs = cutmix.drop_pairs(boxset, (height * width) ** 2 + 1, rng)
        program = losses.structured_consistency_box(
            losses.PredictionMap(tensor.Tensor(student)),
            losses.PredictionMap(tensor.Tensor(guessed)), boxset, pairs).item()
        regions = [[y * width + x for y in range(s * sh, (s + 1) * sh) for x in range(width)]
                   for s in range(n_strips)]
        return checks.check_brute_force(
            program, checks.brute_force_structured(student, guessed, regions))


def relaxed_ce_inputs(seed: int, shape=(8, 8, 3)):
    """The logits and labels ``verification.check_relaxed_ce`` draws for
    a seed, drawn again in the same order."""
    rng = np.random.default_rng(seed)
    h, w, c = shape
    logits = rng.normal(size=shape)
    labels = rng.integers(0, c, size=(h, w))
    if rng.random() < 0.5:
        labels[rng.integers(0, h), rng.integers(0, w)] = losses.IGNORE
    return logits, labels


def relaxed_ce_gradient(logits, labels, window: int):
    """The program's gradient of relaxed cross entropy in the logits."""
    t = tensor.Tensor(logits, requires_grad=True)
    tensor.backward(losses.relaxed_cross_entropy(
        losses.PredictionMap.from_logits(t), labels, window))
    return t.grad


def make(name: str, seed: int, tracer: Tracer, checkpoint_path=None):
    if name == "train_preset":
        return TrainWorkload(TrainConfig.ablation_preset(), seed, tracer)
    if name == "train_default":
        return TrainWorkload(TrainConfig(), seed, tracer)
    if name == "evaluate":
        return EvaluateWorkload(checkpoint_path)
    if name == "verify":
        return VerifyWorkload(seed)
    raise ValueError(f"unknown workload {name!r}")
