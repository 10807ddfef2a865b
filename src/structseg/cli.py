"""Command-line entry point.

Subcommands: train, evaluate, ablate, gradcheck, oracle, dump. Each takes
only the flags it reads. train, ablate and dump take a JSON ``--config``
file whose keys mirror TrainConfig, and override any field with a
``--key value`` flag (dump --checkpoint starts from the checkpoint's config
instead of the defaults); evaluate takes its whole config from the
checkpoint; gradcheck and oracle take their seed range. Unknown config
keys and flags are hard errors.

Exit codes: 0 success, 1 check failure, 2 usage/config error (including
an unreadable or malformed --config or --checkpoint file, and bad --seeds
or --seeds-count values), 3 numeric abort (non-finite loss or parameters).
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import sys
import time
from dataclasses import fields
from pathlib import Path
from typing import Optional

import numpy as np

from . import verification
from .checkpoint import CheckpointError
from .cutmix import generate_boxes, compose_image
from .synthdata import save_pgm, save_ppm
from .tensor import HEAP_KEEPS_FREED_BLOCKS, NonFiniteError
from .trainer import (ConfigError, EMA_VARIANTS, FIELD_KINDS, LOSS_VARIANTS, Evaluation,
                      StepRecord, TrainConfig, Trainer, ablation_csv_rows, evaluate_net,
                      load_checkpoint, run_ablation, save_checkpoint,
                      validation_predictions)
from .verification import (GRAD_TOLERANCE, ORACLE_TOLERANCE,
                           pair_reduction_report, run_gradcheck, run_oracle)

METRICS_HEADER = "step,lr,l_x,l_c,l_sc,l_tot"


class UsageError(ValueError):
    """A subcommand argument outside its accepted values (exit 2)."""


_ERROR_KINDS = {ConfigError: "config", UsageError: "usage", CheckpointError: "checkpoint"}


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def resolve_config(args: argparse.Namespace, defaults: Optional[dict] = None) -> TrainConfig:
    """TrainConfig's defaults (or ``defaults``, such as a checkpoint's
    config), then the config file, then command-line overrides read by
    their fields' kinds. A run manifest is accepted wherever a config is:
    its resolved config is used, which makes any run reproducible from it."""
    base = {}
    if args.config:
        with open(args.config) as f:
            try:
                base = json.load(f)
            except ValueError as e:  # JSONDecodeError and UnicodeDecodeError
                raise ConfigError(f"{args.config} is not valid JSON ({e})") from None
        if isinstance(base, dict) and "config_hash" in base and "config" in base:
            base = base["config"]  # a run manifest
        if not isinstance(base, dict):
            raise ConfigError(f"{args.config} does not hold a JSON config object")
    overrides = {}
    for f in fields(TrainConfig):
        text, kind = getattr(args, f.name), FIELD_KINDS[f.type]
        if text is not None:
            try:
                overrides[f.name] = kind.parse(text)
            except (KeyError, ValueError):
                raise ConfigError(f"{_flag(f.name)} {kind.phrase}, got {text!r}") from None
    return TrainConfig.from_dict({**(defaults or {}), **base, **overrides})


def _environment() -> dict:
    """What produced a run's bits: interpreter, numpy and its BLAS, the
    thread settings, the CPU count, and whether the heap keeps freed blocks
    (see ``tensor``)."""
    blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_thread_env": {k: os.environ.get(k) for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "cpu_count": os.cpu_count(),
        "heap_keeps_freed_blocks": HEAP_KEEPS_FREED_BLOCKS,
    }


def _peak_rss_mb() -> Optional[float]:
    """The process's peak resident set in MiB; None where ``resource`` is missing."""
    try:
        import resource
    except ImportError:
        return None
    unit = 2 ** 20 if sys.platform == "darwin" else 2 ** 10  # ru_maxrss: bytes, else KiB
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / unit


def _make_out_dir(path: str) -> Path:
    """The output directory, made before a subcommand does any work."""
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise UsageError(f"cannot make --out-dir {path}: {e.strerror}") from None
    return Path(path)


def _timestamp() -> str:
    return datetime.datetime.now().isoformat(timespec="seconds")


def _metrics_row(rec: StepRecord) -> str:
    vals = [repr(rec.lr)] + [repr(v) for v in rec.losses]
    return ",".join([str(rec.step)] + vals)


def _eval_row(step: int, ev: Evaluation) -> str:
    return ",".join([str(step), ev.variant] + [repr(v) for v in ev.per_class] + [repr(ev.miou)])


def _eval_header(num_classes: int) -> str:
    return "step,variant," + ",".join(f"iou_{c}" for c in range(num_classes)) + ",miou"


def cmd_train(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    cfg = resolve_config(args)
    out_dir = _make_out_dir(args.out_dir or f"runs/train-seed{cfg.seed}")
    started = _timestamp()

    trainer = Trainer(cfg)
    metrics_path = out_dir / "metrics.csv"
    eval_path = out_dir / "eval.csv"
    ckpt_path = out_dir / "checkpoint.bin"

    with open(metrics_path, "w") as mf, open(eval_path, "w") as ef:
        mf.write(METRICS_HEADER + "\n")
        ef.write(_eval_header(cfg.num_classes) + "\n")

        def on_step(rec: StepRecord) -> None:
            mf.write(_metrics_row(rec) + "\n")
            step_no = rec.step + 1
            if cfg.eval_every and step_no % cfg.eval_every == 0 and step_no < trainer.max_steps:
                ef.write(_eval_row(rec.step, trainer.evaluate()) + "\n")
            if cfg.checkpoint_every and step_no % cfg.checkpoint_every == 0:
                save_checkpoint(out_dir / f"checkpoint-step{step_no}.bin", trainer)

        trainer.run(on_step=on_step)
        final = trainer.evaluate()
        ef.write(_eval_row(trainer.step_index, final) + "\n")

    save_checkpoint(ckpt_path, trainer)
    manifest = {
        "config": cfg.to_dict(),
        "config_hash": cfg.config_hash(),
        "seed": cfg.seed,
        "started": started,
        "finished": _timestamp(),
        "outputs": {
            "metrics": metrics_path.name,
            "eval": eval_path.name,
            "checkpoint": ckpt_path.name,
        },
        "final_miou": final.miou,
        "environment": _environment(),
        "wall_time_s": time.perf_counter() - t0,
        "peak_rss_mb": _peak_rss_mb(),
    }
    with open(out_dir / "manifest.json", "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
    print(f"final mIoU {final.miou:.4f} (run dir: {out_dir})")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    net, ema_state, meta = load_checkpoint(args.checkpoint)
    cfg = meta["config"]
    ev = evaluate_net(net, ema_state, cfg, cfg.make_dataset())
    print(_eval_header(cfg.num_classes))
    print(_eval_row(meta["step"], ev))
    return 0


def _parse_seeds(text: str) -> list:
    try:
        seeds = [int(tok) for tok in text.split(",")]
    except ValueError:
        raise UsageError(f"--seeds must be comma-separated integers, got {text!r}") from None
    if min(seeds) < 0 or len(seeds) < 3:  # run_ablation's count, checked before --out-dir
        raise UsageError(f"--seeds must be 3 or more integers >= 0, got {text!r}")
    return seeds


def _seed_range(args: argparse.Namespace) -> tuple:
    """(n_seeds, seed0) of the gradcheck and oracle subcommands."""
    if args.seeds_count < 1:
        raise UsageError(f"--seeds-count must be >= 1, got {args.seeds_count}")
    if args.seed < 0:
        raise UsageError(f"--seed must be >= 0, got {args.seed}")
    return args.seeds_count, args.seed


def cmd_ablate(args: argparse.Namespace) -> int:
    seeds = _parse_seeds(args.seeds)
    cfg = resolve_config(args)
    out_dir = _make_out_dir(args.out_dir or "runs")
    variants = LOSS_VARIANTS if args.grid == "loss" else EMA_VARIANTS
    lines = ablation_csv_rows(run_ablation(cfg, variants, seeds))
    out_path = out_dir / f"ablation-{args.grid}.csv"
    out_path.write_text("\n".join(lines) + "\n")
    for line in lines:
        print(line)
    print(f"wrote {out_path}")
    return 0


def cmd_gradcheck(args: argparse.Namespace) -> int:
    n_seeds, seed0 = _seed_range(args)
    verification.CORRUPT_OP, verification.CORRUPTED_NODES = args.corrupt_op, 0
    try:
        report = run_gradcheck(n_seeds=n_seeds, seed0=seed0)
    finally:
        verification.CORRUPT_OP = None
    if args.corrupt_op is not None and verification.CORRUPTED_NODES == 0:
        raise UsageError(f"--corrupt-op: no checked loss records an op named {args.corrupt_op!r}")
    for name, err in report.items():
        status = "PASS" if err < GRAD_TOLERANCE else "FAIL"
        print(f"{name}: max relative error {err:.3e} ({status}, tolerance {GRAD_TOLERANCE})")
    return 0 if all(err < GRAD_TOLERANCE for err in report.values()) else 1


def cmd_oracle(args: argparse.Namespace) -> int:
    n_seeds, seed0 = _seed_range(args)
    deviation = run_oracle(n_seeds=n_seeds, seed0=seed0)
    status = "PASS" if deviation < ORACLE_TOLERANCE else "FAIL"
    print(f"box-restricted vs full-enumeration pairwise loss: max absolute "
          f"deviation {deviation:.3e} ({status}, tolerance {ORACLE_TOLERANCE})")
    for line in pair_reduction_report():
        print(line)
    return 0 if deviation < ORACLE_TOLERANCE else 1


def cmd_dump(args: argparse.Namespace) -> int:
    """With --checkpoint, the checkpoint's config is the base that --config
    and flags override, they must keep the net it holds, and the predicted
    masks come from the weights ``evaluate`` scores."""
    if args.count < 0:
        raise UsageError(f"--count must be >= 0, got {args.count}")
    net, ema_state, defaults = None, None, None
    if args.checkpoint:
        net, ema_state, meta = load_checkpoint(args.checkpoint)
        defaults = meta["config"].to_dict()
    cfg = resolve_config(args, defaults)
    if net is not None and cfg.model_descriptor() != net.descriptor:
        raise ConfigError(f"the config describes the net {cfg.model_descriptor()}, "
                          f"but the checkpoint holds {net.descriptor}")
    out_dir = _make_out_dir(args.out_dir or "dumps")
    ds = cfg.make_dataset()
    for i in range(min(args.count, cfg.n_labeled)):
        s = ds.labeled(i)
        save_ppm(out_dir / f"labeled{i}.ppm", s.image)
        save_pgm(out_dir / f"labeled{i}-labels.pgm", s.labels, cfg.num_classes)
    rng = np.random.default_rng(cfg.seed)
    boxset = generate_boxes(rng, cfg.height, cfg.width, cfg.num_boxes,
                            n_box=cfg.num_active_boxes)
    composed = compose_image(ds.unlabeled_image(0), ds.unlabeled_image(1), boxset)
    save_ppm(out_dir / "cutmix-composed.ppm", composed)
    save_pgm(out_dir / "cutmix-mask.pgm", boxset.mask.astype(np.int64), 2)
    (out_dir / "cutmix-boxes.json").write_text(boxset.to_json())
    if net is not None:
        count = min(args.count, cfg.n_validation)
        for i, (scene, pred) in enumerate(validation_predictions(net, ema_state, cfg, ds, count)):
            save_pgm(out_dir / f"val{i}-pred.pgm", pred, cfg.num_classes)
            save_pgm(out_dir / f"val{i}-truth.pgm", scene.labels, cfg.num_classes)
    print(f"wrote dumps to {out_dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="structseg",
        description="Semi-supervised segmentation with CutMix-restricted "
                    "structured consistency at desk scale.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--out-dir", help="output directory")
        for f in fields(TrainConfig):  # parsed by resolve_config
            p.add_argument(_flag(f.name), dest=f.name, default=None)

    def seed_range(p: argparse.ArgumentParser, count: int) -> None:
        p.add_argument("--seed", type=int, default=0, help="first seed")
        p.add_argument("--seeds-count", type=int, default=count)

    p_train = sub.add_parser("train", help="run a training job")
    common(p_train)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("evaluate", help="score a checkpoint on validation data")
    p_eval.add_argument("--checkpoint", required=True,
                        help="checkpoint to score under the config it was trained with")
    p_eval.set_defaults(func=cmd_evaluate)

    p_abl = sub.add_parser("ablate", help="run an ablation grid")
    common(p_abl)
    p_abl.add_argument("--grid", choices=("loss", "ema"), default="loss")
    p_abl.add_argument("--seeds", default="0,1,2", help="comma-separated run seeds")
    p_abl.set_defaults(func=cmd_ablate)

    p_gc = sub.add_parser("gradcheck", help="finite-difference check of all losses")
    seed_range(p_gc, 20)
    p_gc.add_argument("--corrupt-op", help="test hook: corrupt one op's backward rule")
    p_gc.set_defaults(func=cmd_gradcheck)

    p_or = sub.add_parser("oracle", help="compare fast pairwise loss to enumeration")
    seed_range(p_or, 50)
    p_or.set_defaults(func=cmd_oracle)

    p_dump = sub.add_parser("dump", help="write PPM/PGM artifact dumps")
    common(p_dump)
    p_dump.add_argument("--count", type=int, default=4)
    p_dump.add_argument("--checkpoint",
                        help="also dump predicted masks, under the checkpoint's config")
    p_dump.set_defaults(func=cmd_dump)

    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, UsageError, CheckpointError) as e:
        print(f"{_ERROR_KINDS[type(e)]} error: {e}", file=sys.stderr)
        return 2
    except NonFiniteError as e:
        print(f"numeric abort: {e}", file=sys.stderr)
        return 3
    except OSError as e:
        inputs = (getattr(args, "config", None), getattr(args, "checkpoint", None))
        if e.filename is None or e.filename not in inputs:
            raise
        print(f"cannot read {e.filename}: {e.strerror}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
