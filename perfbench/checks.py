"""Correctness checks the benchmark applies to the program's outputs.

Each check compares an output of structseg with a computation made here
with numpy alone, or with a property the method must have. None of them
compares against a stored copy of earlier output. Every ``check_*``
function returns a list of failure messages; an empty list is a pass.
"""

from __future__ import annotations

import json
import math

import numpy as np

COVERAGE_LOW = 0.45
COVERAGE_HIGH = 0.55
LOSS_REL_TOL = 1e-12
RECOMPUTE_TOL = 1e-12
EMA_TOL = 1e-12
LOGIT_TOL = 1e-9
IOU_TOL = 1e-12
GRAD_TOL = 1e-4
ZERO_GRAD_TOL = 1e-12
ORACLE_TOL = 1e-10
BRUTE_FORCE_TOL = 1e-12


# ---------------------------------------------------------------------------
# training steps
# ---------------------------------------------------------------------------

def check_losses(l_x, l_c, l_sc, l_tot, lambda_c, lambda_sc, graph_total):
    """Finite, non-negative components whose weighted sum is the reported
    total and the value the backward pass started from."""
    fails = []
    for name, v in (("l_x", l_x), ("l_c", l_c), ("l_sc", l_sc), ("l_tot", l_tot)):
        if not math.isfinite(v) or v < 0:
            fails.append(f"{name}={v!r} is not a finite value >= 0")
    expected = l_x + lambda_c * l_c + lambda_sc * l_sc
    for name, v in (("l_tot", l_tot), ("graph total", graph_total)):
        if not abs(v - expected) <= LOSS_REL_TOL * max(1.0, abs(expected)):
            fails.append(f"{name}={v!r} but l_x + lc*l_c + lsc*l_sc = {expected!r}")
    return fails


def owner_map(boxes, height, width):
    """Paste index of the last box covering each pixel, 0 where none does."""
    owner = np.zeros((height, width), dtype=np.int64)
    for b in sorted(boxes, key=lambda b: b.paste_index):
        owner[b.y0:b.y0 + b.h, b.x0:b.x0 + b.w] = b.paste_index
    return owner


def check_mask(boxes, mask, height, width):
    """The composed mask is the union of the boxes and covers 45-55%."""
    own = owner_map(boxes, height, width) > 0
    fails = []
    if not np.array_equal(own, np.asarray(mask).astype(bool)):
        fails.append(f"mask differs from the union of its boxes at "
                     f"{int((own != np.asarray(mask).astype(bool)).sum())} pixels")
    coverage = own.mean()
    if not COVERAGE_LOW <= coverage <= COVERAGE_HIGH:
        fails.append(f"mask covers {coverage:.4f} of the image")
    return fails


def check_pairs(boxes, active_range, height, width, per_box, budget):
    """Every active box gets min(budget, m*m) distinct ordered pairs, all
    inside its effective region (the box minus boxes pasted later).

    ``per_box`` is a list of (paste_index, i, j) with flat pixel indices.
    """
    owner = owner_map(boxes, height, width).ravel()
    lo, hi = active_range
    fails = []
    if [pi for pi, _, _ in per_box] != list(range(lo, hi + 1)):
        return [f"pair lists cover boxes {[pi for pi, _, _ in per_box]}, "
                f"expected {lo}..{hi}"]
    n_pix = height * width
    for pi, i, j in per_box:
        i = np.asarray(i, dtype=np.int64)
        j = np.asarray(j, dtype=np.int64)
        m = int((owner == pi).sum())
        want = min(budget, m * m)
        if len(i) != want or len(j) != want:
            fails.append(f"box {pi}: {len(i)} pairs, expected min({budget}, {m}^2) = {want}")
            continue
        if want == 0:
            continue
        if (i.min() < 0 or j.min() < 0 or i.max() >= n_pix or j.max() >= n_pix
                or np.any(owner[i] != pi) or np.any(owner[j] != pi)):
            fails.append(f"box {pi}: a pair lies outside its effective region")
        elif np.unique(i * n_pix + j).size != want:
            fails.append(f"box {pi}: pairs repeat")
    return fails


def consistency_value(student, guessed):
    """Mean over pixels of the squared distance of class vectors."""
    h, w, _ = student.shape
    return float(((student - guessed) ** 2).sum()) / (h * w)


def _cosines(p, i, j):
    dots = np.einsum("nc,nc->n", p[i], p[j])
    norms = np.sqrt(np.einsum("nc,nc->n", p[i], p[i]) * np.einsum("nc,nc->n", p[j], p[j]))
    return dots / norms


def structured_value(student, guessed, per_box):
    """Mean over boxes with pairs of the mean squared difference of the
    pair cosines of student and guessed probabilities."""
    c = student.shape[2]
    s = student.reshape(-1, c)
    t = guessed.reshape(-1, c)
    box_means = [float(np.mean((_cosines(s, i, j) - _cosines(t, i, j)) ** 2))
                 for _, i, j in per_box if len(i) > 0]
    return sum(box_means) / len(box_means) if box_means else 0.0


def check_recomputed(name, reported, recomputed):
    if not abs(reported - recomputed) <= RECOMPUTE_TOL:
        return [f"{name}: program {reported!r}, recomputed {recomputed!r}"]
    return []


def check_ema(teacher_before, student_after, teacher_after, decay):
    """teacher <- decay * teacher + (1 - decay) * student after the update."""
    fails = []
    for k, (t0, s1, t1) in enumerate(zip(teacher_before, student_after, teacher_after)):
        expected = decay * t0 + (1.0 - decay) * s1
        err = float(np.max(np.abs(t1 - expected)))
        if not err <= EMA_TOL:
            fails.append(f"teacher tensor {k} is {err:.3e} from the EMA recurrence")
    if len(teacher_after) != len(student_after):
        fails.append("teacher and student have different tensor counts")
    return fails


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def read_checkpoint(path):
    """Tensors and meta of a checkpoint: one JSON header line, then raw
    little-endian float64 data at the offsets the header gives."""
    with open(path, "rb") as f:
        header = json.loads(f.readline().decode("utf-8"))
        data = f.read()
    arrays = {}
    for e in header["tensors"]:
        raw = data[e["offset"]:e["offset"] + e["nbytes"]]
        arrays[e["name"]] = np.frombuffer(raw, dtype="<f8").reshape(e["shape"]).copy()
    return arrays, header["meta"]


def conv_net_logits(layers, image):
    """Same-padded cross-correlations with ReLU between layers.

    ``layers`` is a list of (kernel (k,k,cin,cout), bias (cout,)); the
    image is (H,W,C). Each layer gathers k*k shifted copies of the padded
    input into one (H*W, k*k*cin) matrix.
    """
    x = np.asarray(image, dtype=np.float64)
    for n, (kernel, bias) in enumerate(layers):
        k = kernel.shape[0]
        p = k // 2
        h, w, cin = x.shape
        xp = np.zeros((h + 2 * p, w + 2 * p, cin))
        xp[p:p + h, p:p + w] = x
        cols = np.concatenate([xp[dy:dy + h, dx:dx + w].reshape(h * w, cin)
                               for dy in range(k) for dx in range(k)], axis=1)
        x = (cols @ kernel.reshape(k * k * cin, -1) + bias).reshape(h, w, -1)
        if n < len(layers) - 1:
            x = np.maximum(x, 0.0)
    return x


def checkpoint_layers(arrays, prefix):
    n = sum(1 for name in arrays if name.startswith(prefix) and name.endswith(".kernel"))
    return [(arrays[f"{prefix}conv{i}.kernel"], arrays[f"{prefix}conv{i}.bias"])
            for i in range(n)]


def check_logits(program, own):
    err = float(np.max(np.abs(np.asarray(program) - own)))
    if not err <= LOGIT_TOL:
        return [f"logits differ from the numpy convolution by {err:.3e}"]
    return []


def confusion_counts(predicted, truth, num_classes):
    """Rows ground truth, columns prediction; negative truth is not scored."""
    scored = truth >= 0
    flat = truth[scored] * num_classes + predicted[scored]
    return np.bincount(flat, minlength=num_classes * num_classes).reshape(
        num_classes, num_classes)


def iou_from_counts(counts):
    """Per-class IoU (nan where a class is in neither truth nor prediction)
    and their mean over the classes present."""
    per_class = []
    for c in range(counts.shape[0]):
        tp = int(counts[c, c])
        union = int(counts[c, :].sum()) + int(counts[:, c].sum()) - tp
        per_class.append(tp / union if union else math.nan)
    present = [v for v in per_class if not math.isnan(v)]
    return per_class, sum(present) / len(present)


def check_eval_printout(text, per_class, miou, step, variant):
    """The CLI prints a header and one row: step, variant, iou_0.., miou."""
    lines = text.strip().splitlines()
    n = len(per_class)
    header = "step,variant," + ",".join(f"iou_{c}" for c in range(n)) + ",miou"
    if len(lines) != 2 or lines[0] != header:
        return [f"evaluate printed {lines!r}"]
    row = lines[1].split(",")
    if len(row) != n + 3 or row[0] != str(step) or row[1] != variant:
        return [f"evaluate printed row {lines[1]!r}"]
    fails = []
    for c, (got, want) in enumerate(zip(row[2:2 + n], per_class)):
        got = float(got)
        same = (math.isnan(got) and math.isnan(want)) or abs(got - want) <= IOU_TOL
        if not same:
            fails.append(f"iou_{c}: printed {got!r}, counted {want!r}")
    if not abs(float(row[-1]) - miou) <= IOU_TOL:
        fails.append(f"miou: printed {row[-1]}, counted {miou!r}")
    return fails


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

def check_gradcheck(report):
    fails = [f"gradcheck {name}: error {err:.3e}" for name, err in report.items()
             if not err < GRAD_TOL]
    if not report:
        fails.append("gradcheck reported no losses")
    return fails


def every_window_holds_every_class(labels, window, num_classes):
    """True when the window around every scored pixel (label >= 0), clipped
    at the borders, holds a scored pixel of every class. Relaxed cross
    entropy is then log 1 = 0 whatever the logits, and its gradient zero."""
    h, w = labels.shape
    r = window // 2
    for y, x in zip(*np.nonzero(labels >= 0)):
        patch = labels[max(0, y - r):y + r + 1, max(0, x - r):x + r + 1]
        if np.unique(patch[patch >= 0]).size < num_classes:
            return False
    return True


def check_zero_gradient(grad):
    err = float(np.max(np.abs(grad)))
    if not err <= ZERO_GRAD_TOL:
        return [f"gradient of a constant loss reaches {err:.3e}"]
    return []


def check_oracle(deviation):
    if not deviation < ORACLE_TOL:
        return [f"oracle deviation {deviation:.3e}"]
    return []


def softmax(logits):
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def brute_force_structured(student, guessed, regions):
    """Enumerate every ordered pixel pair of each region in plain Python."""
    c = student.shape[2]
    s = student.reshape(-1, c).tolist()
    t = guessed.reshape(-1, c).tolist()

    def cos(p, a, b):
        dot = sum(x * y for x, y in zip(p[a], p[b]))
        return dot / math.sqrt(sum(x * x for x in p[a]) * sum(y * y for y in p[b]))

    box_means = []
    for region in regions:
        terms = [(cos(s, a, b) - cos(t, a, b)) ** 2 for a in region for b in region]
        box_means.append(sum(terms) / len(terms))
    return sum(box_means) / len(box_means)


def check_brute_force(program, enumerated):
    if not abs(program - enumerated) <= BRUTE_FORCE_TOL:
        return [f"structured loss {program!r}, brute-force enumeration {enumerated!r}"]
    return []
