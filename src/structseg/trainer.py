"""Semi-supervised training loop. A step is draw, objective, update:
``Trainer.draw_inputs`` draws the labeled scene, the augmented unlabeled
pair, the CutMix boxes and the box pairs; ``step_objective`` computes the
relaxed CE and both consistency losses from them alone, the teacher
predicting under ``no_grad``; the update is backward, SGD with polynomial
LR decay and the EMA. Epochs are counted over the labeled split. Each
generator serves one purpose and is spawned off the run seed, so disabling
a branch never perturbs the others.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
from dataclasses import dataclass, fields, replace
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from . import checkpoint
from .checkpoint import CheckpointError
from .cutmix import BoxSet, PairSet, compose_image, compose_predictions, drop_pairs, generate_boxes
from .ema import EmaState, ema_init, ema_update
from .losses import (PredictionMap, consistency_loss, relaxed_cross_entropy,
                     structured_consistency_box)
from .metrics import ConfusionMatrix, miou
from .model import SegNet, SegNetDescriptor, init_segnet
from .optim import make_velocity, poly_lr, sgd_step
from .synthdata import AugmentedPair, SceneDataset, SceneSample, augment_pair
from .tensor import (NonFiniteError, Tensor, backward, no_grad, parameters_finite, tape,
                     weighted_sum)


class ConfigError(ValueError):
    """Invalid or unknown configuration key/value."""


def _is_int(v) -> bool:
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


_BOOL_TEXT = {"1": True, "true": True, "yes": True, "on": True,
              "0": False, "false": False, "no": False, "off": False}


class FieldKind(NamedTuple):
    """How a TrainConfig field of one annotation is read and type-checked."""
    parse: Callable[[str], object]      # flag text; KeyError or ValueError if foreign
    accepts: Callable[[object], bool]   # the type check of ``validate``
    phrase: str                         # what ``validate`` says when it fails
    from_json: Callable[[object], object] = lambda v: v
    to_json: Callable[[object], object] = lambda v: v


# Keyed by the field's annotation. A float must also be finite.
FIELD_KINDS: Dict[str, FieldKind] = {
    "float": FieldKind(float, lambda v: isinstance(v, numbers.Real) and not isinstance(v, bool),
                       "must be a number"),
    "int": FieldKind(int, _is_int, "must be an integer"),
    "bool": FieldKind(lambda text: _BOOL_TEXT[text.strip().lower()],
                      lambda v: isinstance(v, bool), "must be true or false"),
    "tuple": FieldKind(lambda text: tuple(int(tok) for tok in text.split(",") if tok),
                       lambda v: isinstance(v, tuple) and all(map(_is_int, v)),
                       "must be a list of integers",
                       from_json=lambda v: tuple(v) if isinstance(v, list) else v,
                       to_json=list),
}


def _model_error(c: TrainConfig) -> Optional[str]:
    try:
        c.model_descriptor().validate()
    except ValueError as e:
        return f"model: {e}"


# The range rules, checked in order once every field has passed its type
# check. Each returns its message when the config breaks it, else a false value.
RANGE_RULES: Tuple[Callable[[TrainConfig], object], ...] = (
    lambda c: c.lr0 <= 0 and f"lr0 must be > 0, got {c.lr0}",
    lambda c: (c.power < 0 or c.weight_decay < 0) and "power and weight_decay must be >= 0",
    lambda c: not 0.0 <= c.momentum < 1.0 and f"momentum must be in [0, 1), got {c.momentum}",
    lambda c: ((c.height < 8 or c.width < 8)
               and f"height and width must be >= 8, got {c.height}x{c.width}"),
    lambda c: c.num_classes < 2 and f"num_classes must be >= 2, got {c.num_classes}",
    _model_error,
    lambda c: (c.seed < 0 or c.data_seed < 0) and "seed and data_seed must be >= 0",
    lambda c: c.texture_sigma < 0 and f"texture_sigma must be >= 0, got {c.texture_sigma}",
    lambda c: ((c.checkpoint_every < 0 or c.eval_every < 0)
               and "checkpoint_every and eval_every must be >= 0"),
    lambda c: (c.num_boxes > c.height * c.width
               and f"num_boxes {c.num_boxes} exceeds the {c.height * c.width} pixels"),
    lambda c: (not 1 <= c.num_active_boxes <= c.num_boxes
               and f"num_active_boxes {c.num_active_boxes} outside [1, num_boxes={c.num_boxes}]"),
    lambda c: c.pair_budget < 1 and f"pair_budget must be >= 1, got {c.pair_budget}",
    lambda c: (c.consistency_weight < 0 or c.structured_weight < 0) and "loss weights must be >= 0",
    lambda c: ((c.relax_window < 1 or c.relax_window % 2 == 0)
               and f"relax_window must be odd, got {c.relax_window}"),
    lambda c: not 0.0 <= c.ema_decay <= 1.0 and f"ema_decay must be in [0, 1], got {c.ema_decay}",
    lambda c: c.epochs < 0 and f"epochs must be >= 0, got {c.epochs}",
    lambda c: ((c.n_labeled < 1 or c.n_validation < 1)
               and "need at least one labeled and one validation scene"),
    # the unlabeled branch and dump's CutMix preview each read two unlabeled scenes
    lambda c: c.n_unlabeled < 2 and f"n_unlabeled must be >= 2, got {c.n_unlabeled}",
)


@dataclass
class TrainConfig:
    """Every knob of a run; serializes to a flat JSON object."""
    # optimization
    lr0: float = 0.002
    power: float = 1.0
    weight_decay: float = 0.001
    momentum: float = 0.9
    epochs: int = 175
    # cutmix geometry and structured-loss budget
    num_boxes: int = 32
    num_active_boxes: int = 16
    pair_budget: int = 9000
    # loss weights (0 switches a loss off)
    consistency_weight: float = 20.0
    structured_weight: float = 3.0
    relax_window: int = 3
    # teacher
    ema_decay: float = 0.999
    ema_teacher: bool = True
    ema_eval: bool = True
    # data
    seed: int = 0
    data_seed: int = 100
    height: int = 64
    width: int = 64
    num_classes: int = 4
    n_labeled: int = 20
    n_unlabeled: int = 200
    n_validation: int = 50
    texture_sigma: float = 0.08
    # model
    model_widths: tuple = (32, 32, 32)
    kernel_size: int = 3
    # io cadence (0 = final only)
    checkpoint_every: int = 0
    eval_every: int = 0

    def __post_init__(self) -> None:
        # one form in memory however a value came in: a list of widths is a tuple
        for f in fields(self):
            setattr(self, f.name, FIELD_KINDS[f.type].from_json(getattr(self, f.name)))

    def validate(self) -> None:
        """Reject, before any output exists, every value that would fail
        later in the run: wrong types, non-finite floats and values outside
        what the data, box and model code accept."""
        for f in sorted(fields(self), key=lambda f: f.type == "tuple"):  # model_widths last
            v, kind = getattr(self, f.name), FIELD_KINDS[f.type]
            if not kind.accepts(v):
                raise ConfigError(f"{f.name} {kind.phrase}, got {v!r}")
            if f.type == "float" and not math.isfinite(v):
                raise ConfigError(f"{f.name} must be finite, got {v}")
        for rule in RANGE_RULES:
            message = rule(self)
            if message:
                raise ConfigError(message)

    def to_dict(self) -> dict:
        return {f.name: FIELD_KINDS[f.type].to_json(getattr(self, f.name))
                for f in fields(self)}

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        names = {f.name for f in fields(cls)}
        for key in d:
            if key not in names:
                raise ConfigError(f"unknown config key: {key}")
        cfg = cls(**d)
        cfg.validate()
        return cfg

    def config_hash(self) -> str:
        canon = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()

    @classmethod
    def ablation_preset(cls) -> "TrainConfig":
        """Desk-scale recipe for the three-variant loss ablation: the default
        corpus, a narrower net, fewer epochs, a shorter EMA horizon and
        smaller loss weights than the production-scale defaults (which
        assume a pretrained backbone and overwhelm training from random
        init at this scale)."""
        return cls(model_widths=(16, 16, 16), epochs=40, ema_decay=0.99,
                   pair_budget=1024, texture_sigma=0.15,
                   consistency_weight=1.0, structured_weight=0.75,
                   data_seed=100)

    def model_descriptor(self) -> SegNetDescriptor:
        return SegNetDescriptor(
            widths=tuple(self.model_widths) + (self.num_classes,),
            kernel_size=self.kernel_size)

    def make_dataset(self) -> SceneDataset:
        return SceneDataset(
            self.data_seed, height=self.height, width=self.width,
            num_classes=self.num_classes, n_labeled=self.n_labeled,
            n_unlabeled=self.n_unlabeled, n_validation=self.n_validation,
            texture_sigma=self.texture_sigma)


# Loss ablation rows (a zero weight switches a loss off) and the EMA
# teacher/validation grid.
LOSS_VARIANTS: Dict[str, dict] = {
    "sup": {"consistency_weight": 0.0, "structured_weight": 0.0},
    "sup+c": {"structured_weight": 0.0},
    "sup+c+sc": {},
}
EMA_VARIANTS: Dict[str, dict] = {
    "X/X": {"ema_teacher": False, "ema_eval": False},
    "X/O": {"ema_teacher": False, "ema_eval": True},
    "O/X": {"ema_teacher": True, "ema_eval": False},
    "O/O": {"ema_teacher": True, "ema_eval": True},
}


class Evaluation(NamedTuple):
    """Validation IoU and the weights scored (``ema`` or ``student``)."""
    per_class: List[float]
    miou: float
    variant: str


def validation_predictions(net: SegNet, ema: EmaState, config: TrainConfig,
                           dataset: SceneDataset,
                           count: int) -> Iterator[Tuple[SceneSample, np.ndarray]]:
    """The first ``count`` validation scenes and their argmax labels under
    the weights evaluation scores: the EMA teacher's when
    ``config.ema_eval``, else the student's."""
    params = ema.teacher_params if config.ema_eval else None
    for i in range(count):
        scene = dataset.validation(i)
        with no_grad():
            logits = net.forward(scene.image, params=params)
        yield scene, np.argmax(logits.data, axis=2)


def evaluate_net(net: SegNet, ema: EmaState, config: TrainConfig,
                 dataset: SceneDataset) -> Evaluation:
    """Per-class IoU and mIoU on the validation split; the one scoring path
    of ``train``, ``evaluate`` and ablations."""
    cm = ConfusionMatrix(config.num_classes)
    for scene, pred in validation_predictions(net, ema, config, dataset,
                                              config.n_validation):
        cm.accumulate(pred, scene.labels)
    per_class, m = miou(cm)
    return Evaluation(per_class, m, "ema" if config.ema_eval else "student")


class LossBreakdown(NamedTuple):
    """One step's loss values in metrics.csv column order; l_tot is the
    graph loss the backward pass starts from."""
    l_x: float
    l_c: float
    l_sc: float
    l_tot: float


@dataclass
class StepRecord:
    step: int
    lr: float
    losses: LossBreakdown


class StepInputs(NamedTuple):
    """What one step draws; a part is None when every loss reading it is off."""
    labeled: SceneSample
    pair: Optional[AugmentedPair]
    boxset: Optional[BoxSet]
    pairs: Optional[PairSet]


def step_objective(net: SegNet, teacher_params: Sequence[Tensor], inputs: StepInputs,
                   config: TrainConfig) -> Tuple[Tensor, LossBreakdown]:
    """The step's graph loss, left on the tape for ``backward``, and its
    values. The student's prediction on the CutMix-composed image must match
    the same composition of the teacher's predictions on the two images."""
    student_labeled = PredictionMap.from_logits(net.forward(inputs.labeled.image))
    l_x = relaxed_cross_entropy(student_labeled, inputs.labeled.labels, config.relax_window)
    terms = {"l_x": (l_x, 1.0)}
    if inputs.pair is not None:
        ua, ub, boxset = inputs.pair.ua, inputs.pair.ub, inputs.boxset
        with no_grad():
            pred_a = PredictionMap.from_logits(net.forward(ua, params=teacher_params))
            pred_b = PredictionMap.from_logits(net.forward(ub, params=teacher_params))
        guessed = compose_predictions(pred_a, pred_b, boxset)
        student_probs = PredictionMap.from_logits(net.forward(compose_image(ua, ub, boxset)))
        if config.consistency_weight > 0:
            terms["l_c"] = consistency_loss(student_probs, guessed), config.consistency_weight
        if inputs.pairs is not None:
            terms["l_sc"] = (structured_consistency_box(student_probs, guessed, boxset,
                                                        inputs.pairs), config.structured_weight)
    loss_t = weighted_sum(*zip(*terms.values()))  # l_x + w_c * l_c + w_sc * l_sc
    values = {"l_c": 0.0, "l_sc": 0.0, **{name: t.item() for name, (t, _) in terms.items()}}
    return loss_t, LossBreakdown(**values, l_tot=loss_t.item())


class Trainer:
    def __init__(self, config: TrainConfig):
        config.validate()
        self.config = config
        self.dataset = config.make_dataset()
        (self.rng_model, self.rng_labeled, self.rng_unlabeled, self.rng_augment,
         self.rng_boxes, self.rng_pairs) = map(
            np.random.default_rng, np.random.SeedSequence(config.seed).spawn(6))
        self.student = init_segnet(self.rng_model, config.model_descriptor())
        self.velocity = make_velocity(self.student.params)
        self.ema = ema_init(self.student.params, config.ema_decay)
        self.step_index = 0
        self.max_steps = config.epochs * config.n_labeled
        self._labeled_queue: List[int] = []
        self._unlabeled_queue: List[int] = []

    # -- sampling order ----------------------------------------------------
    def _next_labeled_index(self) -> int:
        if not self._labeled_queue:
            self._labeled_queue = list(self.rng_labeled.permutation(self.config.n_labeled))
        return int(self._labeled_queue.pop(0))

    def _next_unlabeled_pair(self) -> Tuple[int, int]:
        def take() -> int:
            if not self._unlabeled_queue:
                self._unlabeled_queue = list(
                    self.rng_unlabeled.permutation(self.config.n_unlabeled))
            return int(self._unlabeled_queue.pop(0))

        a = take()
        b = take()
        while b == a:  # only possible across a reshuffle boundary
            b = take()
        return a, b

    def draw_inputs(self) -> StepInputs:
        """Everything the next step reads from the generators, drawn in the
        order labeled index, unlabeled pair, augmentation, boxes, pairs."""
        cfg = self.config
        labeled = self.dataset.labeled(self._next_labeled_index())
        if cfg.consistency_weight == 0 and cfg.structured_weight == 0:  # 0 switches a loss off
            return StepInputs(labeled, None, None, None)
        ia, ib = self._next_unlabeled_pair()
        pair = augment_pair(self.rng_augment, self.dataset.unlabeled_image(ia),
                            self.dataset.unlabeled_image(ib))
        boxset = generate_boxes(self.rng_boxes, cfg.height, cfg.width,
                                cfg.num_boxes, n_box=cfg.num_active_boxes)
        pairs = (drop_pairs(boxset, cfg.pair_budget, self.rng_pairs)
                 if cfg.structured_weight > 0 else None)
        return StepInputs(labeled, pair, boxset, pairs)

    # -- one optimization step ---------------------------------------------
    def train_step(self) -> StepRecord:
        cfg = self.config
        inputs = self.draw_inputs()
        teacher_params = self.ema.teacher_params if cfg.ema_teacher else self.student.params
        loss_t, losses = step_objective(self.student, teacher_params, inputs, cfg)
        for name, v in losses._asdict().items():
            if not math.isfinite(v):
                tape().clear()  # drop the recorded step so a caller can recover
                raise NonFiniteError(f"step {self.step_index}: non-finite loss {name}={v}")
        lr = poly_lr(self.step_index, self.max_steps, cfg.lr0, cfg.power)
        backward(loss_t)
        sgd_step(self.student.params, lr, cfg.momentum, cfg.weight_decay, self.velocity)
        if not parameters_finite(self.student.params):
            raise NonFiniteError(f"step {self.step_index}: non-finite parameter after update")
        # EMA weights are maintained whenever either consumer (teacher or
        # validation) is switched on.
        if cfg.ema_teacher or cfg.ema_eval:
            ema_update(self.ema, self.student.params)
        assert all(t.grad is None for t in self.ema.teacher_params), \
            "teacher parameters must never accumulate gradients"

        rec = StepRecord(step=self.step_index, lr=lr, losses=losses)
        self.step_index += 1
        return rec

    # -- evaluation ----------------------------------------------------------
    def evaluate(self) -> Evaluation:
        return evaluate_net(self.student, self.ema, self.config, self.dataset)

    def run(self, on_step: Optional[Callable[[StepRecord], None]] = None) -> List[StepRecord]:
        records = []
        for _ in range(self.max_steps):
            rec = self.train_step()
            records.append(rec)
            if on_step is not None:
                on_step(rec)
        return records


def run_ablation(config_base: TrainConfig, variants: Dict[str, dict],
                 seeds: Sequence[int]) -> List[Tuple[str, float, List[float]]]:
    """Train variants x seeds and report mean mIoU per variant. Data stays
    fixed across variants (data_seed is shared) so comparisons are paired."""
    if len(seeds) < 3:
        raise ConfigError(f"run_ablation: need at least 3 seeds, got {len(seeds)}")
    rows = []
    for name, overrides in variants.items():
        scores = []
        for seed in seeds:
            tr = Trainer(replace(config_base, seed=seed, **overrides))
            tr.run()
            scores.append(tr.evaluate().miou)
        rows.append((name, float(np.mean(scores)), scores))
    return rows


def ablation_csv_rows(rows: List[Tuple[str, float, List[float]]]) -> List[str]:
    n_seeds = len(rows[0][2]) if rows else 0
    header = "variant,mean_miou," + ",".join(f"miou_seed{i}" for i in range(n_seeds))
    lines = [header]
    for name, mean, scores in rows:
        lines.append(",".join([name, repr(mean)] + [repr(s) for s in scores]))
    return lines


def save_checkpoint(path, trainer: Trainer) -> None:
    """Student and teacher weights in one blob; the header's config
    describes the net."""
    arrays = {}
    for role, params in (("student", trainer.student.params),
                         ("teacher", trainer.ema.teacher_params)):
        for (name, _), p in zip(trainer.student.descriptor.param_shapes(), params):
            arrays[f"{role}/{name}"] = p.data
    meta = {
        "config": trainer.config.to_dict(),
        "step": trainer.step_index,
        "ema_steps": trainer.ema.step_count,
    }
    checkpoint.write_blob(path, arrays, meta=meta)


def load_checkpoint(path) -> Tuple[SegNet, EmaState, dict]:
    """The student net, the EMA state and ``{"config": TrainConfig, "step":
    int}``. Raises CheckpointError unless the header's config is valid, its
    step counts are integers >= 0 and each tensor has the shape of the
    config's net; older headers' ``descriptor`` and ``ema_decay`` are unread."""
    arrays, meta = checkpoint.read_blob(path)
    try:
        config = TrainConfig.from_dict(meta["config"])
    except (KeyError, TypeError, ValueError) as e:
        raise CheckpointError(f"{path}: no usable config in the header ({e!r})") from None
    steps = [meta.get(key) for key in ("step", "ema_steps")]
    if not all(_is_int(n) and n >= 0 for n in steps):
        raise CheckpointError(f"{path}: step and ema_steps must be integers >= 0, "
                              f"got {steps[0]!r} and {steps[1]!r}")
    descriptor = config.model_descriptor()
    params = {"student": [], "teacher": []}
    for name, shape in descriptor.param_shapes():
        for role, loaded in params.items():
            key = f"{role}/{name}"
            if key not in arrays or arrays[key].shape != shape:
                found = f"of shape {arrays[key].shape}" if key in arrays else "missing"
                raise CheckpointError(f"{path}: tensor {key} is {found}; the net needs {shape}")
            loaded.append(Tensor(arrays[key], requires_grad=role == "student"))
    net = SegNet(descriptor, params["student"])
    ema_state = EmaState(decay=config.ema_decay, teacher_params=params["teacher"],
                         step_count=steps[1])
    return net, ema_state, {"config": config, "step": steps[0]}
