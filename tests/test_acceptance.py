"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` for the live report.
Criterion 7 trains nine full runs and dominates the runtime (a few
minutes); everything else finishes in seconds.
"""

import json
import math
import time

import numpy as np
import pytest

from structseg.cli import main as cli_main
from structseg.cutmix import drop_pairs, generate_boxes
from structseg.ema import ema_init, ema_update
from structseg.losses import (consistency_loss, relaxed_cross_entropy,
                              structured_consistency_box)
from structseg.maps import PredictionMap
from structseg.tensor import Tensor
from structseg.trainer import (EMA_VARIANTS, LOSS_VARIANTS, TrainConfig,
                               Trainer, ablation_csv_rows, run_ablation)
from structseg.verification import run_gradcheck, run_oracle


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def test_criterion_1_gradient_suite():
    t0 = time.perf_counter()
    report = run_gradcheck(n_seeds=20)
    elapsed = time.perf_counter() - t0
    worst = max(report.values())
    ok = worst < 1e-4 and elapsed < 60.0
    detail = (", ".join(f"{k}={v:.2e}" for k, v in report.items())
              + f"; tolerance 1e-4, {elapsed:.1f}s (< 60s)")
    _report("1 gradient suite (relaxed CE w1/w3, consistency, structured)", ok, detail)


def test_criterion_2_oracle_equivalence():
    t0 = time.perf_counter()
    deviation = run_oracle(n_seeds=50)
    elapsed = time.perf_counter() - t0
    ok = deviation < 1e-10 and elapsed < 30.0
    _report("2 oracle equivalence (6x6, C=3, exhaustive boxes, full budget)", ok,
            f"max abs deviation {deviation:.2e} (< 1e-10), {elapsed:.1f}s (< 30s)")


def test_criterion_3_reduction_to_standard_ce():
    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        pm = PredictionMap.from_logits(Tensor(rng.normal(size=(8, 8, 4))))
        labels = rng.integers(0, 4, size=(8, 8))
        relaxed = relaxed_cross_entropy(pm, labels, 1).item()
        standard = -np.mean([math.log(pm.probs.data[y, x, labels[y, x]])
                             for y in range(8) for x in range(8)])
        worst = max(worst, abs(relaxed - standard))
    _report("3 relaxed CE at w=1 reduces to standard cross entropy", worst < 1e-12,
            f"max |difference| {worst:.2e} (< 1e-12)")


def test_criterion_4_ema_closed_form():
    rng = np.random.default_rng(0)
    worst = 0.0
    for k in (1, 10, 1000):
        student = [Tensor(rng.normal(size=(4, 3))), Tensor(rng.normal(size=(7,)))]
        state = ema_init([Tensor(rng.normal(size=p.data.shape)) for p in student], 0.999)
        teacher0 = [t.data.copy() for t in state.teacher_params]
        for _ in range(k):
            ema_update(state, student)
        for t, s, t0 in zip(state.teacher_params, student, teacher0):
            expected = s.data + 0.999 ** k * (t0 - s.data)
            worst = max(worst, np.abs(t.data - expected).max())
    _report("4 EMA closed form (k in {1,10,1000}, decay 0.999)", worst < 1e-12,
            f"max |teacher - closed form| {worst:.2e} (< 1e-12)")


def test_criterion_5_cutmix_geometry_1000_seeds():
    height = width = 64
    n_boxes, n_active, budget = 32, 16, 9000
    worst_cov = (1.0, 0.0)
    for seed in range(1000):
        bs = generate_boxes(seed, height, width, n_boxes, n_box=n_active)
        cov = bs.coverage
        worst_cov = (min(worst_cov[0], cov), max(worst_cov[1], cov))
        assert 0.45 <= cov <= 0.55, f"seed {seed}: coverage {cov}"
        # effective regions tile the mask disjointly
        all_idx = np.concatenate(bs.effective_regions)
        assert len(np.unique(all_idx)) == len(all_idx), f"seed {seed}: overlap"
        np.testing.assert_array_equal(np.sort(all_idx),
                                      np.flatnonzero(bs.mask.reshape(-1)))
        # every excluded pixel is covered by a later-pasted box
        owner = np.zeros((height, width), dtype=np.int64)
        for b in bs.boxes:
            owner[b.y0:b.y0 + b.h, b.x0:b.x0 + b.w] = b.paste_index
        owner = owner.reshape(-1)
        for b in bs.boxes:
            region = set(bs.effective_regions[b.paste_index - 1].tolist())
            ys, xs = np.mgrid[b.y0:b.y0 + b.h, b.x0:b.x0 + b.w]
            for p in (ys * width + xs).reshape(-1):
                if p not in region:
                    assert owner[p] > b.paste_index, f"seed {seed}: pixel {p}"
        pairs = drop_pairs(bs, budget, np.random.default_rng(seed))
        assert pairs.total_pairs <= n_active * budget, f"seed {seed}: budget"
    _report("5 CutMix geometry over 1000 seeds", True,
            f"coverage range [{worst_cov[0]:.3f}, {worst_cov[1]:.3f}] within "
            f"[0.45, 0.55]; regions tile; exclusion by later boxes; "
            f"pairs <= {n_active * budget}")


def test_criterion_6_fixpoint_zeros_and_detached_teacher():
    rng = np.random.default_rng(3)
    student = PredictionMap.from_logits(Tensor(rng.normal(size=(16, 16, 4))))
    guessed = student.detach()
    bs = generate_boxes(5, 16, 16, 8, n_box=4)
    pairs = drop_pairs(bs, 200, rng)
    l_c = consistency_loss(student, guessed).item()
    l_sc = structured_consistency_box(student, guessed, bs, pairs).item()
    fix_ok = l_c == 0.0 and l_sc == 0.0
    cfg = TrainConfig(height=24, width=24, num_classes=3, n_labeled=4,
                      n_unlabeled=6, n_validation=3, model_widths=(6, 6),
                      num_boxes=6, num_active_boxes=3, pair_budget=64,
                      epochs=1, seed=0)
    tr = Trainer(cfg)
    teacher_ok = True
    for _ in range(tr.max_steps):
        tr.train_step()
        teacher_ok = teacher_ok and all(
            t.grad is None and not t.requires_grad for t in tr.ema.teacher_params)
    _report("6 fixpoint zeros and gradient-free teacher", fix_ok and teacher_ok,
            f"L_c={l_c}, L_sc={l_sc} at student==guessed; teacher grads absent "
            f"through {tr.max_steps} steps")


@pytest.mark.slow
def test_criterion_7_directional_ablation():
    base = TrainConfig.ablation_preset()
    assert (base.height, base.width, base.num_classes) == (64, 64, 4)
    assert (base.n_labeled, base.n_unlabeled) == (20, 200)
    t0 = time.perf_counter()
    rows = run_ablation(base, LOSS_VARIANTS, seeds=[0, 1, 2])
    elapsed = time.perf_counter() - t0
    means = {name: mean for name, mean, _ in rows}
    ordered = (means["sup+c+sc"] >= means["sup+c"]
               and means["sup+c"] >= means["sup"] - 0.005
               and means["sup+c+sc"] > means["sup"])
    ok = ordered and elapsed < 900.0
    _report("7 directional ablation (3 seeds per variant)", ok,
            f"mean mIoU sup={means['sup']:.4f} <= sup+c={means['sup+c']:.4f} "
            f"<= sup+c+sc={means['sup+c+sc']:.4f} (tolerance 0.5 pts on the "
            f"first step, strict overall); {elapsed:.0f}s (< 900s)")


def test_criterion_8_bit_identical_reruns(tmp_path):
    cfg = {"height": 32, "width": 32, "num_classes": 3, "n_labeled": 5,
           "n_unlabeled": 8, "n_validation": 4, "model_widths": [8, 8],
           "num_boxes": 8, "num_active_boxes": 4, "pair_budget": 256,
           "epochs": 2, "seed": 11}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert cli_main(["train", "--config", str(cfg_path),
                         "--out-dir", str(out)]) == 0
        outs.append(out)
    same_metrics = (outs[0] / "metrics.csv").read_bytes() == (outs[1] / "metrics.csv").read_bytes()
    same_eval = (outs[0] / "eval.csv").read_bytes() == (outs[1] / "eval.csv").read_bytes()
    hashes = [json.loads((o / "manifest.json").read_text())["config_hash"] for o in outs]
    ok = same_metrics and same_eval and hashes[0] == hashes[1]
    _report("8 determinism: identical manifests give bit-identical CSVs", ok,
            f"metrics identical={same_metrics}, eval identical={same_eval}, "
            f"config hash {hashes[0][:12]}... shared")


def test_criterion_9_ema_grid(tmp_path):
    base = TrainConfig(height=24, width=24, num_classes=3, n_labeled=4,
                       n_unlabeled=6, n_validation=3, model_widths=(6, 6),
                       num_boxes=6, num_active_boxes=3, pair_budget=64,
                       epochs=0)
    rows = run_ablation(base, EMA_VARIANTS, seeds=[0, 1, 2])
    lines = ablation_csv_rows(rows, [0, 1, 2])
    (tmp_path / "ablation-ema.csv").write_text("\n".join(lines) + "\n")
    by_name = {name: scores for name, _, scores in rows}
    ok = (len(rows) == 4 and len(lines) == 5
          and [r[0] for r in rows] == ["X/X", "X/O", "O/X", "O/O"]
          and by_name["X/X"] == by_name["O/O"])
    _report("9 EMA teacher/validation grid", ok,
            f"4 CSV rows emitted; at step 0 X/X == O/O "
            f"({by_name['X/X']} vs {by_name['O/O']})")
