"""Negative controls for the benchmark's correctness checks: each check
passes on the program's real output and fails once one output is
perturbed.

    python3 -m pytest -q perfbench/test_checks.py
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from structseg import cutmix  # noqa: E402
from structseg.trainer import TrainConfig  # noqa: E402


# ---------------------------------------------------------------------------
# training step
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def step():
    """One checked preset step: its record, captures and the teacher
    before the step."""
    wl = workloads.TrainWorkload(TrainConfig.ablation_preset(), 3, tracing.Tracer(False))
    wl.setup()
    wl.op(0)
    wl.prepare(1)
    rec = wl.op(1)
    cap = dict(wl.captured)
    student, guessed = (m.probs.data for m in cap["consistency_args"])
    return {
        "wl": wl, "rec": rec, "cfg": wl.config, "boxset": cap["boxset"],
        "per_box": [(bp.paste_index, bp.i, bp.j) for bp in cap["pairs"].per_box],
        "graph_total": cap["graph_total"], "student": student, "guessed": guessed,
        "teacher_before": wl.teacher_before,
        "student_after": [p.data.copy() for p in wl.trainer.student.params],
        "teacher_after": [t.data.copy() for t in wl.trainer.ema.teacher_params],
    }


def loss_fails(step, scale_sc=1.0, scale_graph=1.0, l_x=None):
    lb, cfg = step["rec"].losses, step["cfg"]
    return checks.check_losses(lb.l_x if l_x is None else l_x, lb.l_c, lb.l_sc * scale_sc,
                               lb.l_tot, cfg.consistency_weight, cfg.structured_weight,
                               step["graph_total"] * scale_graph)


def test_whole_step_check_passes(step):
    wl = workloads.TrainWorkload(TrainConfig.ablation_preset(), 4, tracing.Tracer(False))
    wl.setup()
    wl.prepare(0)
    assert wl.check(0, wl.op(0)) == []
    assert wl.final_checks() == []


def test_loss_identity(step):
    assert loss_fails(step) == []
    assert loss_fails(step, scale_sc=1.01)
    assert loss_fails(step, scale_graph=1.01)
    assert loss_fails(step, l_x=math.nan)
    assert loss_fails(step, l_x=-step["rec"].losses.l_x)


def test_recomputed_losses(step):
    lb = step["rec"].losses
    l_c = checks.consistency_value(step["student"], step["guessed"])
    l_sc = checks.structured_value(step["student"], step["guessed"], step["per_box"])
    assert checks.check_recomputed("l_c", lb.l_c, l_c) == []
    assert checks.check_recomputed("l_sc", lb.l_sc, l_sc) == []
    assert checks.check_recomputed("l_c", lb.l_c * 1.01, l_c)
    assert checks.check_recomputed("l_sc", lb.l_sc * 1.01, l_sc)


def test_mask(step):
    cfg, bs = step["cfg"], step["boxset"]
    assert checks.check_mask(bs.boxes, bs.mask, cfg.height, cfg.width) == []
    mask = bs.mask.copy()
    mask[0, 0] = 1 - mask[0, 0]
    assert checks.check_mask(bs.boxes, mask, cfg.height, cfg.width)
    # a mask that matches its boxes but covers too much
    big = [cutmix.Box(0, 0, cfg.width, int(0.6 * cfg.height), 1)]
    own = checks.owner_map(big, cfg.height, cfg.width) > 0
    assert checks.check_mask(big, own, cfg.height, cfg.width)


def test_pairs(step):
    cfg, bs, per_box = step["cfg"], step["boxset"], step["per_box"]

    def fails(pb):
        return checks.check_pairs(bs.boxes, bs.active_range, cfg.height, cfg.width,
                                  pb, cfg.pair_budget)

    assert fails(per_box) == []
    k = max(range(len(per_box)), key=lambda n: len(per_box[n][1]))
    pi, i, j = per_box[k]
    outside = int(np.flatnonzero(checks.owner_map(bs.boxes, cfg.height, cfg.width).ravel()
                                 != pi)[0])
    dropped = list(per_box)
    dropped[k] = (pi, i[1:], j[1:])
    moved = list(per_box)
    moved[k] = (pi, np.concatenate([[outside], i[1:]]), j)
    repeated = list(per_box)
    repeated[k] = (pi, np.concatenate([i[:1], i[:-1]]), np.concatenate([j[:1], j[:-1]]))
    assert fails(dropped)
    assert fails(moved)
    assert fails(repeated)
    assert fails(per_box[1:])


def test_ema(step):
    decay = step["cfg"].ema_decay
    args = (step["teacher_before"], step["student_after"], step["teacher_after"])
    assert checks.check_ema(*args, decay) == []
    bumped = [t.copy() for t in step["teacher_after"]]
    bumped[0].ravel()[0] += 1e-9
    assert checks.check_ema(args[0], args[1], bumped, decay)
    assert checks.check_ema(*args, decay * 0.999)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def evaluation(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("ckpt") / "evaluate.bin")
    workloads.make_checkpoint(path, 5)
    workloads.write_expected_scores(path)
    wl = workloads.EvaluateWorkload(path)
    code, text = wl.op(0)
    fails, expected = workloads.own_scores(path)
    return {"wl": wl, "path": path, "code": code, "text": text, "fails": fails,
            "expected": expected}


def test_evaluate_passes(evaluation):
    assert evaluation["code"] == 0
    assert evaluation["fails"] == []
    assert checks.check_eval_printout(evaluation["text"], *evaluation["expected"]) == []
    wl = evaluation["wl"]
    assert wl.check(0, (evaluation["code"], evaluation["text"])) == []
    assert wl.final_checks() == []


def test_logits(evaluation):
    arrays, meta = checks.read_checkpoint(evaluation["path"])
    layers = checks.checkpoint_layers(arrays, "teacher/")
    image = TrainConfig.from_dict(meta["config"]).make_dataset().validation(0).image
    own = checks.conv_net_logits(layers, image)
    program = own.copy()
    assert checks.check_logits(program, own) == []
    program[3, 4, 1] += 1e-6
    assert checks.check_logits(program, own)


def test_confusion_counts():
    labels = np.array([[0, 1, 2], [2, 1, -1]])
    pred = np.array([[0, 2, 2], [1, 1, 0]])
    counts = checks.confusion_counts(pred, labels, 3)
    assert counts.tolist() == [[1, 0, 0], [0, 1, 1], [0, 1, 1]]
    per_class, miou = checks.iou_from_counts(counts)
    assert per_class == [1.0, 1 / 3, 1 / 3] and miou == pytest.approx(5 / 9)


def test_printout_one_pixel_moved(evaluation):
    per_class, miou, step, variant = evaluation["expected"]
    arrays, meta = checks.read_checkpoint(evaluation["path"])
    cfg = TrainConfig.from_dict(meta["config"])
    ds = cfg.make_dataset()
    counts = sum(checks.confusion_counts(
        np.argmax(checks.conv_net_logits(checks.checkpoint_layers(arrays, "teacher/"),
                                          ds.validation(i).image), axis=2),
        ds.validation(i).labels, cfg.num_classes) for i in range(cfg.n_validation))
    assert checks.iou_from_counts(counts)[1] == pytest.approx(miou, abs=1e-15)
    c = int(np.argmax(np.diag(counts)))
    counts[c, c] -= 1
    counts[c, (c + 1) % cfg.num_classes] += 1
    moved = checks.iou_from_counts(counts)
    text = evaluation["text"]
    assert checks.check_eval_printout(text, *moved, step, variant)
    assert checks.check_eval_printout(text, per_class, miou, step + 1, variant)
    assert checks.check_eval_printout(text.replace(",ema,", ",student,"),
                                      per_class, miou, step, variant)


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

def test_gradcheck_and_oracle():
    wl = workloads.VerifyWorkload(2)
    report, deviation = wl.op(0)
    assert wl.check(0, (report, deviation)) == []
    assert checks.check_gradcheck(dict(report, consistency=2e-4))
    assert checks.check_gradcheck({})
    assert checks.check_oracle(1e-9)


def test_constant_relaxed_ce_seed():
    # seed 2984: every 3x3 label window holds every class, the loss is
    # constant and run_gradcheck's relative error is a false 2.6e-3
    wl = workloads.VerifyWorkload(0)
    wl.base = 2984
    result = wl.op(0)
    assert result[0]["relaxed_ce_w3"] > checks.GRAD_TOL
    assert wl.check(0, result) == []
    assert wl.constant_loss_seeds == [2984]
    logits, labels = workloads.relaxed_ce_inputs(2984)
    assert checks.every_window_holds_every_class(labels, 3, 3)
    grad = workloads.relaxed_ce_gradient(logits, labels, 3)
    assert checks.check_zero_gradient(grad) == []
    grad.ravel()[0] += 1e-9
    assert checks.check_zero_gradient(grad)
    # one label changed so that a window misses a class: the usual check applies
    scored = labels >= 0
    y, x = np.argwhere(scored)[0]
    labels[max(0, y - 1):y + 2, max(0, x - 1):x + 2] = labels[y, x]
    assert not checks.every_window_holds_every_class(labels, 3, 3)
    assert checks.check_gradcheck(result[0])


def test_brute_force_enumeration():
    rng = np.random.default_rng(0)
    s = checks.softmax(rng.normal(size=(4, 4, 3)))
    t = checks.softmax(rng.normal(size=(4, 4, 3)))
    regions = [[0, 1, 4, 5], [10, 11, 14, 15]]
    per_box = [(k + 1, np.repeat(r, 4), np.tile(r, 4)) for k, r in enumerate(regions)]
    enumerated = checks.brute_force_structured(s, t, regions)
    assert enumerated == pytest.approx(checks.structured_value(s, t, per_box), abs=1e-15)
    assert workloads.VerifyWorkload.check_enumeration(7) == []
    assert checks.check_brute_force(enumerated, enumerated) == []
    assert checks.check_brute_force(enumerated * (1 + 1e-9), enumerated)


# ---------------------------------------------------------------------------
# the benchmark's own declaration
# ---------------------------------------------------------------------------

def test_per_layer_metrics_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    declared = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert declared == [(name, unit, better) for name, unit, better, _, _ in tracing.LAYERS]


def test_layer_metrics_self_time():
    tr = tracing.Tracer(True)
    tr.op = 0
    outer = tr.begin("model.student_forward")
    inner = tr.begin("tensor.conv2d_fwd")
    tr.end(inner)
    tr.end(outer)
    tr.starts[outer], tr.ends[outer] = 0.0, 0.010
    tr.starts[inner], tr.ends[inner] = 0.002, 0.006
    tr.count("model.forward_calls")
    m = tr.layer_metrics([0])
    assert m["model.student_forward_ms"]["value"] == pytest.approx(10.0)
    assert m["tensor.conv2d_fwd_ms"]["value"] == pytest.approx(4.0)
    assert m["model.forward_calls"]["value"] == 1
