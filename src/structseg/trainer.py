"""Semi-supervised training loop: supervised branch on labeled scenes,
unlabeled branch through teacher prediction, CutMix composition and both
consistency losses, SGD with polynomial LR decay, and EMA teacher updates.

One step consumes one labeled scene and one unlabeled image pair; epochs
are counted over the labeled split. All randomness flows from independent
per-purpose generators spawned off the run seed, so disabling a branch
never perturbs the others.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from . import checkpoint
from .checkpoint import CheckpointError
from .cutmix import compose_image, compose_predictions, drop_pairs, generate_boxes
from .ema import EmaState, ema_init, ema_update
from .losses import (PredictionMap, consistency_loss, relaxed_cross_entropy,
                     structured_consistency_box)
from .metrics import ConfusionMatrix, miou
from .model import SegNet, SegNetDescriptor, init_segnet
from .optim import make_velocity, poly_lr, sgd_step
from .synthdata import SceneDataset, SceneSample, augment_pair
from .tensor import NonFiniteError, Tensor, backward, no_grad, parameters_finite, tape


class ConfigError(ValueError):
    """Invalid or unknown configuration key/value."""


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

    def validate(self) -> None:
        """Reject, before any output exists, every value that would fail
        later in the run: wrong types, non-finite floats and values outside
        what the data, box and model code accept."""
        def is_int(v) -> bool:
            return isinstance(v, numbers.Integral) and not isinstance(v, bool)

        for f in fields(self):
            v = getattr(self, f.name)
            if f.type == "float":
                if isinstance(v, bool) or not isinstance(v, numbers.Real):
                    raise ConfigError(f"{f.name} must be a number, got {v!r}")
                if not math.isfinite(v):
                    raise ConfigError(f"{f.name} must be finite, got {v}")
            elif f.type == "int" and not is_int(v):
                raise ConfigError(f"{f.name} must be an integer, got {v!r}")
            elif f.type == "bool" and not isinstance(v, bool):
                raise ConfigError(f"{f.name} must be true or false, got {v!r}")
        if not (isinstance(self.model_widths, tuple) and all(map(is_int, self.model_widths))):
            raise ConfigError(f"model_widths must be a list of integers, got {self.model_widths!r}")
        if self.lr0 <= 0:
            raise ConfigError(f"lr0 must be > 0, got {self.lr0}")
        if self.power < 0 or self.weight_decay < 0:
            raise ConfigError("power and weight_decay must be >= 0")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.height < 8 or self.width < 8:
            raise ConfigError(f"height and width must be >= 8, got {self.height}x{self.width}")
        if self.num_classes < 2:
            raise ConfigError(f"num_classes must be >= 2, got {self.num_classes}")
        try:
            self.model_descriptor().validate()
        except ValueError as e:
            raise ConfigError(f"model: {e}") from None
        if self.seed < 0 or self.data_seed < 0:
            raise ConfigError("seed and data_seed must be >= 0")
        if self.texture_sigma < 0:
            raise ConfigError(f"texture_sigma must be >= 0, got {self.texture_sigma}")
        if self.checkpoint_every < 0 or self.eval_every < 0:
            raise ConfigError("checkpoint_every and eval_every must be >= 0")
        if self.num_boxes > self.height * self.width:
            raise ConfigError(
                f"num_boxes {self.num_boxes} exceeds the {self.height * self.width} pixels")
        if self.num_active_boxes > self.num_boxes or self.num_active_boxes < 1:
            raise ConfigError(
                f"num_active_boxes {self.num_active_boxes} outside [1, num_boxes={self.num_boxes}]")
        if self.pair_budget < 1:
            raise ConfigError(f"pair_budget must be >= 1, got {self.pair_budget}")
        if self.consistency_weight < 0 or self.structured_weight < 0:
            raise ConfigError("loss weights must be >= 0")
        if self.relax_window < 1 or self.relax_window % 2 == 0:
            raise ConfigError(f"relax_window must be odd, got {self.relax_window}")
        if not 0.0 <= self.ema_decay <= 1.0:
            raise ConfigError(f"ema_decay must be in [0, 1], got {self.ema_decay}")
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        if self.n_labeled < 1 or self.n_validation < 1:
            raise ConfigError("need at least one labeled and one validation scene")
        if self.unlabeled_branch_active() and self.n_unlabeled < 2:
            raise ConfigError("unlabeled branch needs at least two unlabeled scenes")

    def unlabeled_branch_active(self) -> bool:
        """A zero weight switches its loss off entirely."""
        return self.consistency_weight > 0 or self.structured_weight > 0

    def to_dict(self) -> dict:
        d = asdict(self)
        d["model_widths"] = list(self.model_widths)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        known = {f.name for f in fields(cls)}
        for key in d:
            if key not in known:
                raise ConfigError(f"unknown config key: {key}")
        d = dict(d)
        if isinstance(d.get("model_widths"), list):
            d["model_widths"] = tuple(d["model_widths"])
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
    pair_counts: List[int] = field(default_factory=list)


class Trainer:
    def __init__(self, config: TrainConfig):
        config.validate()
        self.config = config
        self.dataset = config.make_dataset()
        streams = np.random.SeedSequence(config.seed).spawn(6)
        self.rng_model = np.random.default_rng(streams[0])
        self.rng_labeled = np.random.default_rng(streams[1])
        self.rng_unlabeled = np.random.default_rng(streams[2])
        self.rng_augment = np.random.default_rng(streams[3])
        self.rng_boxes = np.random.default_rng(streams[4])
        self.rng_pairs = np.random.default_rng(streams[5])
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

    def _teacher_params(self):
        if self.config.ema_teacher:
            return self.ema.teacher_params
        return [p.detach() for p in self.student.params]

    # -- one optimization step ---------------------------------------------
    def train_step(self) -> StepRecord:
        cfg = self.config
        sample = self.dataset.labeled(self._next_labeled_index())
        student_logits = self.student.forward(sample.image)
        l_x_t = relaxed_cross_entropy(
            PredictionMap.from_logits(student_logits), sample.labels, cfg.relax_window)
        loss_t = l_x_t
        l_c = 0.0
        l_sc = 0.0
        pair_counts: List[int] = []

        if cfg.unlabeled_branch_active():
            ia, ib = self._next_unlabeled_pair()
            pair = augment_pair(self.rng_augment,
                                self.dataset.unlabeled_image(ia),
                                self.dataset.unlabeled_image(ib))
            teacher_params = self._teacher_params()
            with no_grad():
                pred_a = PredictionMap.from_logits(
                    self.student.forward(pair.ua, params=teacher_params))
                pred_b = PredictionMap.from_logits(
                    self.student.forward(pair.ub, params=teacher_params))
            boxset = generate_boxes(self.rng_boxes, cfg.height, cfg.width,
                                    cfg.num_boxes, n_box=cfg.num_active_boxes)
            guessed = compose_predictions(pred_a, pred_b, boxset)
            mixed = compose_image(pair.ua, pair.ub, boxset)
            student_probs = PredictionMap.from_logits(self.student.forward(mixed))
            if cfg.consistency_weight > 0:
                l_c_t = consistency_loss(student_probs, guessed)
                loss_t = loss_t + cfg.consistency_weight * l_c_t
                l_c = l_c_t.item()
            if cfg.structured_weight > 0:
                pairs = drop_pairs(boxset, cfg.pair_budget, self.rng_pairs)
                pair_counts = pairs.counts()
                l_sc_t = structured_consistency_box(student_probs, guessed, boxset, pairs)
                loss_t = loss_t + cfg.structured_weight * l_sc_t
                l_sc = l_sc_t.item()

        losses = LossBreakdown(l_x_t.item(), l_c, l_sc, loss_t.item())
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

        rec = StepRecord(step=self.step_index, lr=lr, losses=losses,
                         pair_counts=pair_counts)
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
            cfg = replace(config_base, seed=seed, **overrides)
            tr = Trainer(cfg)
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
    if not all(isinstance(n, int) and not isinstance(n, bool) and n >= 0 for n in steps):
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
