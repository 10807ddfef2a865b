"""Loss stack vs independent brute-force oracles.

Oracles here are deliberately naive re-implementations (per-pixel loops,
per-pair double loops) kept separate from the library's vectorized paths.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from structseg.cutmix import (Box, BoxPairs, PairSet, boxset_from_boxes,
                              drop_pairs, generate_boxes)
from structseg.losses import (WindowTarget, consistency_loss,
                              relaxed_cross_entropy, structured_consistency_box,
                              structured_consistency_full, window_class_mask)
from structseg.maps import IGNORE, PredictionMap
from structseg.tensor import Tensor, backward, tape
from structseg.verification import (GRAD_TOLERANCE, ORACLE_TOLERANCE, max_rel_error,
                                    numerical_gradient, oracle_comparison)
from memory_helpers import traced_peak


def _probs(rng, shape):
    return PredictionMap.from_logits(Tensor(rng.normal(size=shape)))


def _probs_grad(rng, shape):
    logits = Tensor(rng.normal(size=shape), requires_grad=True)
    return PredictionMap.from_logits(logits), logits


# -- oracles -----------------------------------------------------------------

def cosine_similarity(pi, pj) -> float:
    """Cosine of the angle between two class vectors; in (0, 1] for
    probability vectors."""
    pi = np.asarray(pi, dtype=np.float64)
    pj = np.asarray(pj, dtype=np.float64)
    ni = math.sqrt(float(pi @ pi))
    nj = math.sqrt(float(pj @ pj))
    if ni == 0.0 or nj == 0.0:
        raise ValueError("cosine_similarity: zero-norm vector")
    return float(pi @ pj) / (ni * nj)


def _window_classes_oracle(labels, y, x, w):
    h_img, w_img = labels.shape
    r = w // 2
    classes = set()
    for yy in range(max(0, y - r), min(h_img, y + r + 1)):
        for xx in range(max(0, x - r), min(w_img, x + r + 1)):
            if labels[yy, xx] != IGNORE:
                classes.add(int(labels[yy, xx]))
    return classes


def _relaxed_ce_per_pixel_oracle(probs, labels, w):
    h_img, w_img = labels.shape
    out = np.full((h_img, w_img), np.nan)
    for y in range(h_img):
        for x in range(w_img):
            if labels[y, x] == IGNORE:
                continue
            mass = sum(probs[y, x, c] for c in _window_classes_oracle(labels, y, x, w))
            out[y, x] = -math.log(max(mass, 1e-12))
    return out


def _full_pairwise_oracle(ps, pt):
    """Independent double loop over all ordered pixel pairs."""
    h, w, _ = ps.shape
    flat_s = ps.reshape(h * w, -1)
    flat_t = pt.reshape(h * w, -1)
    total = 0.0
    for i in range(h * w):
        for j in range(h * w):
            total += (cosine_similarity(flat_s[i], flat_s[j])
                      - cosine_similarity(flat_t[i], flat_t[j])) ** 2
    return total / (h * w) ** 2


def _box_pairwise_oracle(ps, pt, boxset):
    """Per-box full-enumeration average over effective-region pixels."""
    h, w, _ = ps.shape
    flat_s = ps.reshape(h * w, -1)
    flat_t = pt.reshape(h * w, -1)
    terms = []
    lo, hi = boxset.active_range
    for pi in range(lo, hi + 1):
        region = boxset.effective_regions[pi - 1]
        if len(region) == 0:
            continue
        total = 0.0
        for i in region:
            for j in region:
                total += (cosine_similarity(flat_s[i], flat_s[j])
                          - cosine_similarity(flat_t[i], flat_t[j])) ** 2
        terms.append(total / len(region) ** 2)
    return float(np.mean(terms))


# -- relaxed cross entropy ---------------------------------------------------

class TestRelaxedCrossEntropy:
    def test_w1_equals_standard_cross_entropy(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            pm = _probs(rng, (6, 5, 4))
            labels = rng.integers(0, 4, size=(6, 5))
            got = relaxed_cross_entropy(pm, labels, 1).item()
            std = -np.mean([math.log(pm.probs.data[y, x, labels[y, x]])
                            for y in range(6) for x in range(5)])
            assert abs(got - std) < 1e-12

    def test_uniform_labels_any_window_equals_standard_ce(self):
        rng = np.random.default_rng(1)
        pm = _probs(rng, (5, 5, 3))
        labels = np.full((5, 5), 2)
        w1 = relaxed_cross_entropy(pm, labels, 1).item()
        w5 = relaxed_cross_entropy(pm, labels, 5).item()
        assert abs(w1 - w5) < 1e-12

    def test_two_class_checkerboard_hand_value(self):
        pm = PredictionMap(Tensor(np.full((2, 2, 3), 1.0 / 3.0)))
        labels = np.array([[0, 1], [0, 1]])
        got = relaxed_cross_entropy(pm, labels, 3).item()
        assert abs(got - (-math.log(2.0 / 3.0))) < 1e-12

    def test_matches_per_pixel_oracle(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            pm = _probs(rng, (7, 6, 4))
            labels = rng.integers(0, 4, size=(7, 6))
            labels[rng.integers(0, 7), rng.integers(0, 6)] = IGNORE
            for w in (1, 3, 5):
                per_pixel = _relaxed_ce_per_pixel_oracle(pm.probs.data, labels, w)
                expected = np.nanmean(per_pixel)
                got = relaxed_cross_entropy(pm, labels, w).item()
                assert abs(got - expected) < 1e-12

    def test_window_growth_never_increases_per_pixel_loss(self):
        for seed in range(5):
            rng = np.random.default_rng(100 + seed)
            pm = _probs(rng, (6, 6, 4))
            labels = rng.integers(0, 4, size=(6, 6))
            l1 = _relaxed_ce_per_pixel_oracle(pm.probs.data, labels, 1)
            l3 = _relaxed_ce_per_pixel_oracle(pm.probs.data, labels, 3)
            assert np.all(l3 <= l1 + 1e-15)
            # and the library means agree with both oracles
            assert abs(relaxed_cross_entropy(pm, labels, 3).item() - l3.mean()) < 1e-12

    def test_all_ignored_errors(self):
        pm = _probs(np.random.default_rng(0), (3, 3, 2))
        with pytest.raises(ValueError, match="ignored"):
            relaxed_cross_entropy(pm, np.full((3, 3), IGNORE), 1)

    def test_even_window_errors(self):
        pm = _probs(np.random.default_rng(0), (3, 3, 2))
        with pytest.raises(ValueError, match="odd"):
            relaxed_cross_entropy(pm, np.zeros((3, 3), dtype=int), 2)

    def test_ignored_pixels_excluded_from_mean(self):
        rng = np.random.default_rng(3)
        pm = _probs(rng, (4, 4, 3))
        labels = rng.integers(0, 3, size=(4, 4))
        base = relaxed_cross_entropy(pm, labels, 1).item()
        labels2 = labels.copy()
        labels2[0, 0] = IGNORE
        got = relaxed_cross_entropy(pm, labels2, 1).item()
        manual = -np.mean([math.log(pm.probs.data[y, x, labels[y, x]])
                           for y in range(4) for x in range(4) if (y, x) != (0, 0)])
        assert abs(got - manual) < 1e-12
        assert got != base

    def test_window_wider_than_image_spans_it(self):
        labels = np.random.default_rng(4).integers(0, 3, size=(16, 16))
        full = window_class_mask(labels, 31, 4)
        for window in (35, 65):
            np.testing.assert_array_equal(window_class_mask(labels, window, 4), full)
        # every pixel sees each class present anywhere in the image, and no other
        present = np.isin(np.arange(4), labels).astype(np.float64)
        np.testing.assert_array_equal(full, np.broadcast_to(present, full.shape))
        pm = _probs(np.random.default_rng(5), (16, 16, 4))
        expected = np.nanmean(_relaxed_ce_per_pixel_oracle(pm.probs.data, labels, 35))
        assert abs(relaxed_cross_entropy(pm, labels, 35).item() - expected) < 1e-12


def _ce_value_and_grad(logits0, labels, window):
    t = Tensor(logits0, requires_grad=True)
    loss = relaxed_cross_entropy(PredictionMap.from_logits(t), labels, window)
    backward(loss)
    return loss.item(), t.grad


class TestWindowTarget:
    def test_target_equals_label_map_call(self):
        """Value and gradient are bit-identical to the label-map call, for
        one target reused across evaluations."""
        rng = np.random.default_rng(20)
        for case in range(240):
            h, w, c = rng.integers(2, 10), rng.integers(2, 10), rng.integers(2, 6)
            window = (1, 3, 5)[case % 3]
            labels = rng.integers(0, c, size=(h, w))
            labels[rng.random(size=(h, w)) < 0.2] = IGNORE
            labels[0, 0] = rng.integers(0, c)  # at least one scored pixel
            target = WindowTarget(labels, window, c)
            for _ in range(2):
                logits0 = rng.normal(size=(h, w, c))
                v_map, g_map = _ce_value_and_grad(logits0, labels, window)
                v_target, g_target = _ce_value_and_grad(logits0, target, window)
                assert v_map == v_target
                assert np.array_equal(g_map, g_target)

    def test_mismatched_target_raises(self):
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 3, size=(6, 5))
        target = WindowTarget(labels, 3, 3)
        with pytest.raises(ValueError, match="window 3"):
            relaxed_cross_entropy(_probs(rng, (6, 5, 3)), target, 5)
        with pytest.raises(ValueError, match="do not match"):
            relaxed_cross_entropy(_probs(rng, (6, 6, 3)), target, 3)
        with pytest.raises(ValueError, match="do not match"):
            relaxed_cross_entropy(_probs(rng, (6, 5, 4)), target, 3)
        with pytest.raises(ValueError, match="odd"):
            WindowTarget(labels, 2, 3)
        with pytest.raises(ValueError, match="ignored"):
            WindowTarget(np.full((3, 3), IGNORE), 1, 3)


# -- pixel-wise consistency ----------------------------------------------------

class TestConsistencyLoss:
    def test_identity_is_zero(self):
        pm = _probs(np.random.default_rng(0), (5, 5, 3))
        assert consistency_loss(pm, pm.detach()).item() == 0.0

    def test_opposite_one_hots_give_two(self):
        a = np.zeros((3, 3, 2))
        a[..., 0] = 1.0
        b = np.zeros((3, 3, 2))
        b[..., 1] = 1.0
        got = consistency_loss(PredictionMap(Tensor(a)), PredictionMap(Tensor(b))).item()
        assert got == 2.0

    def test_matches_per_pixel_loop(self):
        rng = np.random.default_rng(5)
        s = _probs(rng, (3, 3, 3))
        g = _probs(rng, (3, 3, 3))
        manual = np.mean([np.sum((s.probs.data[y, x] - g.probs.data[y, x]) ** 2)
                          for y in range(3) for x in range(3)])
        assert abs(consistency_loss(s, g).item() - manual) < 1e-12

    def test_shape_mismatch_errors(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="consistency_loss"):
            consistency_loss(_probs(rng, (3, 3, 2)), _probs(rng, (3, 4, 2)))

    def test_guessed_label_must_be_detached(self):
        rng = np.random.default_rng(0)
        s = _probs(rng, (3, 3, 2))
        g, _ = _probs_grad(rng, (3, 3, 2))
        with pytest.raises(ValueError, match="gradient"):
            consistency_loss(s, g)
        tape().clear()  # g's softmax node, which no backward runs


# -- the scalar cosine reference -------------------------------------------------

class TestCosineSimilarity:
    def test_self_similarity_is_one(self):
        assert cosine_similarity([0.2, 0.8], [0.2, 0.8]) == 1.0

    def test_orthogonal_is_zero(self):
        assert cosine_similarity([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_hand_value(self):
        assert abs(cosine_similarity([0.5, 0.5], [1.0, 0.0]) - 1 / math.sqrt(2)) < 1e-15

    def test_zero_norm_errors(self):
        with pytest.raises(ValueError, match="zero-norm"):
            cosine_similarity([0.0, 0.0], [1.0, 0.0])

    def test_symmetry_is_exact(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a, b = rng.random(4) + 0.01, rng.random(4) + 0.01
            assert cosine_similarity(a, b) == cosine_similarity(b, a)

    def test_probability_vectors_land_in_unit_interval(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            a = rng.dirichlet(np.ones(5))
            b = rng.dirichlet(np.ones(5))
            s = cosine_similarity(a, b)
            assert 0.0 < s <= 1.0


# -- full-image structured consistency ------------------------------------------

class TestStructuredFull:
    def test_identity_is_zero(self):
        pm = _probs(np.random.default_rng(0), (4, 4, 3))
        assert structured_consistency_full(pm, pm.detach()).item() == 0.0

    def test_single_pixel_is_zero(self):
        # only the diagonal pair exists and self-similarity is 1 on both
        # sides; each side computes it to within an ulp, so the squared
        # difference is zero at float64 resolution
        a = PredictionMap(Tensor(np.full((1, 1, 3), 1.0 / 3.0)))
        b = PredictionMap(Tensor([[[0.7, 0.2, 0.1]]]))
        assert abs(structured_consistency_full(a, b).item()) < 1e-30

    def test_matches_independent_double_loop(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            s = _probs(rng, (4, 4, 3))
            t = _probs(rng, (4, 4, 3))
            got = structured_consistency_full(s, t).item()
            expected = _full_pairwise_oracle(s.probs.data, t.probs.data)
            assert abs(got - expected) < 1e-12

    def test_pixel_cap_enforced(self):
        rng = np.random.default_rng(0)
        big = _probs(rng, (17, 17, 2))  # 289 > 256
        with pytest.raises(ValueError, match="256"):
            structured_consistency_full(big, big.detach())


# -- box-restricted structured consistency ---------------------------------------

class TestStructuredBox:
    def test_identity_is_zero(self):
        rng = np.random.default_rng(0)
        s = _probs(rng, (8, 8, 3))
        bs = generate_boxes(3, 8, 8, 3)
        pairs = drop_pairs(bs, 50, np.random.default_rng(1))
        assert structured_consistency_box(s, s.detach(), bs, pairs).item() == 0.0

    def test_full_budget_exhaustive_boxes_match_enumeration(self):
        # non-overlapping strips covering the image, every pair kept
        boxes = [Box(0, 0, 6, 2, 1), Box(0, 2, 6, 2, 2), Box(0, 4, 6, 2, 3)]
        bs = boxset_from_boxes(boxes, 6, 6)
        for seed in range(5):
            rng = np.random.default_rng(seed)
            s = _probs(rng, (6, 6, 3))
            g = _probs(rng, (6, 6, 3))
            pairs = drop_pairs(bs, 10_000, rng)
            got = structured_consistency_box(s, g, bs, pairs).item()
            expected = _box_pairwise_oracle(s.probs.data, g.probs.data, bs)
            assert abs(got - expected) < 1e-12

    def test_sampled_subset_matches_manual_average(self):
        rng = np.random.default_rng(7)
        s = _probs(rng, (8, 8, 3))
        g = _probs(rng, (8, 8, 3))
        bs = generate_boxes(11, 8, 8, 4, n_box=2)
        pairs = drop_pairs(bs, 13, np.random.default_rng(5))
        flat_s = s.probs.data.reshape(64, 3)
        flat_g = g.probs.data.reshape(64, 3)
        terms = []
        for bp in pairs.per_box:
            if len(bp) == 0:
                continue
            t = np.mean([(cosine_similarity(flat_s[i], flat_s[j])
                          - cosine_similarity(flat_g[i], flat_g[j])) ** 2
                         for i, j in zip(bp.i, bp.j)])
            terms.append(t)
        expected = float(np.mean(terms))
        assert abs(structured_consistency_box(s, g, bs, pairs).item() - expected) < 1e-12

    def test_single_pixel_region_contributes_zero(self):
        # box 1 keeps one pixel after box 2 covers the rest of it
        boxes = [Box(0, 0, 2, 1, 1), Box(1, 0, 7, 8, 2)]
        bs = boxset_from_boxes(boxes, 8, 8)
        assert len(bs.effective_regions[0]) == 1
        rng = np.random.default_rng(0)
        s = _probs(rng, (8, 8, 3))
        g = _probs(rng, (8, 8, 3))
        pairs = drop_pairs(bs, 1000, rng)
        got = structured_consistency_box(s, g, bs, pairs).item()
        flat_s = s.probs.data.reshape(64, 3)
        flat_g = g.probs.data.reshape(64, 3)
        box2_term = np.mean([(cosine_similarity(flat_s[i], flat_s[j])
                              - cosine_similarity(flat_g[i], flat_g[j])) ** 2
                             for i, j in zip(pairs.per_box[1].i, pairs.per_box[1].j)])
        # box 1's only pair is the diagonal (similarity 1 on both sides)
        assert abs(got - (0.0 + box2_term) / 2) < 1e-12

    def test_all_empty_returns_zero_with_warning(self, caplog):
        boxes = [Box(0, 0, 2, 2, 1), Box(0, 0, 4, 4, 2)]
        bs = boxset_from_boxes(boxes, 8, 8, n_box=2)
        bs.effective_regions[1] = np.empty(0, dtype=np.int64)  # force both empty
        bs.effective_regions[0] = np.empty(0, dtype=np.int64)
        pairs = drop_pairs(bs, 10, np.random.default_rng(0))
        rng = np.random.default_rng(1)
        s = _probs(rng, (8, 8, 3))
        with caplog.at_level("WARNING"):
            got = structured_consistency_box(s, s.detach(), bs, pairs)
        assert got.item() == 0.0
        assert any("empty pair list" in r.message for r in caplog.records)

    def test_gradient_reaches_student_not_guessed(self):
        rng = np.random.default_rng(2)
        s, s_logits = _probs_grad(rng, (8, 8, 3))
        g = _probs(rng, (8, 8, 3))
        bs = generate_boxes(5, 8, 8, 3)
        pairs = drop_pairs(bs, 40, rng)
        loss = structured_consistency_box(s, g, bs, pairs)
        backward(loss)
        assert s_logits.grad is not None
        assert g.probs.grad is None

    def test_guessed_with_gradient_rejected(self):
        rng = np.random.default_rng(2)
        s = _probs(rng, (8, 8, 3))
        g, _ = _probs_grad(rng, (8, 8, 3))
        bs = generate_boxes(5, 8, 8, 3)
        pairs = drop_pairs(bs, 40, rng)
        with pytest.raises(ValueError, match="gradient"):
            structured_consistency_box(s, g, bs, pairs)
        tape().clear()  # g's softmax node, which no backward runs


# -- the exact per-box term and the sampled-pair term ----------------------------

def _explicit(pairs):
    """The same pairs, every box listing its flat pairs explicitly, so that
    all of them take the sampled-pair path."""
    return PairSet([BoxPairs(bp.paste_index, bp.region, np.arange(len(bp)))
                    for bp in pairs.per_box], pairs.budget)


def _value_and_grad(logits0, guessed, bs, pairs):
    t = Tensor(logits0, requires_grad=True)
    loss = structured_consistency_box(PredictionMap.from_logits(t), guessed, bs, pairs)
    backward(loss)
    return loss.item(), t.grad


class TestStructuredPaths:
    def test_explicit_pair_path_matches_enumeration(self):
        strips = boxset_from_boxes([Box(0, 0, 6, 2, 1), Box(0, 2, 6, 2, 2),
                                    Box(0, 4, 6, 2, 3)], 6, 6)
        for seed in range(5):
            rng = np.random.default_rng(seed)
            for bs in (strips, generate_boxes(rng, 8, 8, 4, n_box=3)):
                s = _probs(rng, (bs.height, bs.width, 3))
                g = _probs(rng, (bs.height, bs.width, 3))
                pairs = _explicit(drop_pairs(bs, 64 ** 2, rng))
                assert all(bp.q is not None for bp in pairs.per_box)
                got = structured_consistency_box(s, g, bs, pairs).item()
                expected = _box_pairwise_oracle(s.probs.data, g.probs.data, bs)
                assert abs(got - expected) < 1e-12

    def test_exact_path_matches_explicit_pairs(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            logits0 = rng.normal(size=(64, 64, 4))
            g = _probs(rng, (64, 64, 4))
            bs = generate_boxes(rng, 64, 64, 32, n_box=16)
            fits = PairSet([bp for bp in drop_pairs(bs, 9000, rng).per_box
                            if bp.q is None and len(bp) > 0], 9000)
            assert len(fits.per_box) >= 8
            exact, g_exact = _value_and_grad(logits0, g, bs, fits)
            pairwise, g_pairwise = _value_and_grad(logits0, g, bs, _explicit(fits))
            assert abs(exact - pairwise) <= 1e-14 * pairwise
            assert np.abs(g_exact - g_pairwise).max() <= 1e-14 * np.abs(g_pairwise).max()

    def test_exact_path_is_zero_at_fixpoint(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            t = Tensor(rng.normal(size=(64, 64, 4)), requires_grad=True)
            student = PredictionMap.from_logits(t)
            bs = generate_boxes(rng, 64, 64, 32, n_box=16)
            pairs = drop_pairs(bs, 64 ** 4, rng)
            loss = structured_consistency_box(student, student.detach(), bs, pairs)
            backward(loss)
            assert loss.item() == 0.0
            assert np.all(t.grad == 0.0)

    def test_mixed_box_set_is_one_node(self):
        """Each loss, the structured one on a mixed box set included, is
        one tape node."""
        rng = np.random.default_rng(3)
        s, _ = _probs_grad(rng, (64, 64, 4))
        g = _probs(rng, (64, 64, 4))
        bs = generate_boxes(rng, 64, 64, 32, n_box=16)
        pairs = drop_pairs(bs, 1024, rng)
        assert {bp.q is None for bp in pairs.per_box if len(bp) > 0} == {True, False}
        labels = rng.integers(0, 4, size=(64, 64))
        ops = []
        for loss_of in (lambda: relaxed_cross_entropy(s, labels, 3),
                        lambda: consistency_loss(s, g),
                        lambda: structured_consistency_box(s, g, bs, pairs)):
            before = len(tape())
            loss = loss_of()
            ops.append([node.op for node in tape().nodes[before:]])
            backward(loss)
        assert ops == [["relaxed_ce"], ["consistency"], ["structured_box"]]

    def test_every_box_sampled_is_zero_at_fixpoint(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            t = Tensor(rng.normal(size=(64, 64, 4)), requires_grad=True)
            student = PredictionMap.from_logits(t)
            bs = generate_boxes(rng, 64, 64, 32, n_box=16)
            pairs = drop_pairs(bs, 1, rng)
            assert all(bp.q is not None for bp in pairs.per_box if len(bp.region) > 1)
            loss = structured_consistency_box(student, student.detach(), bs, pairs)
            backward(loss)
            assert loss.item() == 0.0
            assert np.all(t.grad == 0.0)

    def test_boxes_that_fit_draw_nothing(self):
        for seed in range(5):
            bs = generate_boxes(seed, 64, 64, 32, n_box=16)
            rng = np.random.default_rng(seed)
            before = rng.bit_generator.state
            pairs = drop_pairs(bs, 64 ** 4, rng)
            assert rng.bit_generator.state == before
            lo, hi = bs.active_range
            assert pairs.counts() == [len(bs.effective_regions[k - 1]) ** 2
                                      for k in range(lo, hi + 1)]
            assert all(bp.q is None for bp in pairs.per_box)


def _paper_scale_value_and_backward(pair_budget):
    """The structured loss's value and backward on a 256x512x19 map with 16
    boxes of seed 0: its pair set and the traced peak, after checking the
    value and gradient are sane."""
    h, w, c = 256, 512, 19
    rng = np.random.default_rng(0)
    s = PredictionMap(Tensor(_probs(rng, (h, w, c)).probs.data, requires_grad=True))
    g = _probs(rng, (h, w, c))
    bs = generate_boxes(0, h, w, 32, n_box=16)
    pairs = drop_pairs(bs, pair_budget, rng)

    def value_and_backward():
        loss = structured_consistency_box(s, g, bs, pairs)
        backward(loss)
        return loss

    loss, peak = traced_peak(value_and_backward)
    assert 0.0 < loss.item() < 4.0 and np.isfinite(s.probs.grad).all()
    return pairs, peak


class TestExactGramsPerBox:
    """The exact term at the paper's 19 classes: three C x C Grams per box,
    also where a box has fewer pixels than classes and its Grams are
    rank-deficient."""

    # Value and backward at 256x512x19 with every box exact take about
    # 89 MiB; a form that builds (n, C, C) arrays over the exact boxes'
    # rows takes about 300 MiB and fails this bound.
    PEAK_BOUND_MIB = 150

    # With budget 9000, 15 boxes sample 135,000 pairs, so one (n, C) gather
    # of them is 135,000 x 19 float64 = 19.6 MiB. Value and backward take
    # about 104 MiB with at most two gathers alive at once; a form that keeps
    # s_i and s_j beside delta takes about 123 MiB and fails this bound.
    SAMPLED_PEAK_BOUND_MIB = 112

    def test_paper_classes_at_256x512_stay_under_the_memory_bound(self):
        pairs, peak = _paper_scale_value_and_backward((256 * 512) ** 2)
        assert all(bp.q is None for bp in pairs.per_box)
        assert peak < self.PEAK_BOUND_MIB * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MiB"

    def test_sampled_pairs_at_256x512_stay_under_the_memory_bound(self):
        pairs, peak = _paper_scale_value_and_backward(9000)
        assert len(pairs.layout.i) == 135_000 and len(pairs.layout.box_w) == 0
        assert peak < self.SAMPLED_PEAK_BOUND_MIB * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MiB"

    def test_oracle_at_19_classes(self):
        # 6x6 in three strips: 12 pixels per box against 19 classes
        for seed in range(20):
            fast, ref = oracle_comparison(seed, num_classes=19)
            assert abs(fast - ref) < ORACLE_TOLERANCE

    @pytest.mark.parametrize("seed", range(3))
    def test_gradient_at_19_classes_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        logits0 = rng.normal(size=(8, 8, 19))
        g = _probs(rng, (8, 8, 19))
        # regions of 23, 9 and 6 pixels, two of them fewer than the classes
        bs = boxset_from_boxes([Box(0, 0, 8, 4, 1), Box(1, 1, 3, 3, 2),
                                Box(5, 5, 2, 3, 3)], 8, 8)
        pairs = drop_pairs(bs, 64 ** 2, rng)
        assert [len(bp.region) for bp in pairs.per_box] == [23, 9, 6]
        assert all(bp.q is None for bp in pairs.per_box)
        value, analytic = _value_and_grad(logits0, g, bs, pairs)

        def f(x):
            return structured_consistency_box(
                PredictionMap.from_logits(Tensor(x)), g, bs, pairs).data

        assert max_rel_error(analytic, numerical_gradient(f, logits0), value) < GRAD_TOLERANCE

    def test_exactly_zero_at_fixpoint_with_19_classes(self):
        for seed in range(3):
            rng = np.random.default_rng(seed)
            t = Tensor(rng.normal(size=(32, 32, 19)), requires_grad=True)
            student = PredictionMap.from_logits(t)
            bs = generate_boxes(rng, 32, 32, 32, n_box=16)
            pairs = drop_pairs(bs, 32 ** 4, rng)
            assert {len(bp.region) < 19 for bp in pairs.per_box if len(bp) > 0} == {True, False}
            loss = structured_consistency_box(student, student.detach(), bs, pairs)
            backward(loss)
            assert loss.item() == 0.0
            assert np.all(t.grad == 0.0)


class TestPairLayout:
    """A pair set gathers its layout once; reusing it gives what a freshly
    built pair set gives, bit for bit."""

    @pytest.mark.parametrize("budget,kinds", [(16 ** 4, {True}), (1, {False}),
                                              (96, {True, False})],
                             ids=["exact", "sampled", "mixed"])
    def test_reused_pair_set_equals_fresh_ones(self, budget, kinds):
        for seed in range(3):
            rng = np.random.default_rng(seed)
            logits = [rng.normal(size=(16, 16, 3)) for _ in range(3)]
            g = _probs(rng, (16, 16, 3))
            bs = generate_boxes(seed, 16, 16, 8, n_box=6)

            def fresh():
                pairs = drop_pairs(bs, budget, np.random.default_rng(seed))
                # single-pixel boxes fit even budget 1, so list their pairs
                return _explicit(pairs) if budget == 1 else pairs

            reused = fresh()
            assert {bp.q is None for bp in reused.per_box if len(bp) > 0} == kinds
            for logits0 in logits:
                got = _value_and_grad(logits0, g, bs, reused)
                want = _value_and_grad(logits0, g, bs, fresh())
                assert got[0] == want[0]
                assert np.array_equal(got[1], want[1])
            assert reused.layout is reused.layout

    def test_empty_pair_set_warns_on_every_use(self, caplog):
        bs = boxset_from_boxes([Box(0, 0, 2, 2, 1), Box(0, 0, 4, 4, 2)], 8, 8, n_box=2)
        pairs = PairSet([BoxPairs(1, np.empty(0, dtype=np.int64)),
                         BoxPairs(2, np.empty(0, dtype=np.int64))], 10)
        s = _probs(np.random.default_rng(1), (8, 8, 3))
        with caplog.at_level("WARNING"):
            for _ in range(3):
                assert structured_consistency_box(s, s.detach(), bs, pairs).item() == 0.0
        assert sum("empty pair list" in r.message for r in caplog.records) == 3


# -- stacks of maps ----------------------------------------------------------

def _stacked_and_alone(loss_of, logits):
    """The loss of a stack of maps, and of each map alone, as bytes."""
    stacked = loss_of(PredictionMap.from_logits(Tensor(logits))).data
    assert stacked.shape == logits.shape[:1]
    alone = np.array([loss_of(PredictionMap.from_logits(Tensor(x))).item() for x in logits])
    return stacked.tobytes(), alone.tobytes()


STACKS = dict(seed=st.integers(0, 2 ** 32 - 1), batch=st.integers(1, 7))


class TestStacksOfMaps:
    """Each loss on a stack of maps (..., H, W, C) equals, byte for byte,
    the loss of each map alone: the form ``numerical_gradient`` feeds."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(window=st.sampled_from([1, 3]), h=st.integers(1, 9), w=st.integers(1, 9),
           **STACKS)
    def test_relaxed_ce(self, seed, batch, window, h, w):
        rng = np.random.default_rng(seed)
        labels = rng.integers(IGNORE, 3, size=(h, w))
        labels[0, 0] = 0
        target = WindowTarget(labels, window, 3)
        stacked, alone = _stacked_and_alone(
            lambda pm: relaxed_cross_entropy(pm, target, window),
            rng.normal(size=(batch, h, w, 3)))
        assert stacked == alone

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(h=st.integers(1, 9), w=st.integers(1, 9), c=st.sampled_from([3, 19]), **STACKS)
    def test_consistency(self, seed, batch, h, w, c):
        rng = np.random.default_rng(seed)
        guessed = _probs(rng, (h, w, c))
        stacked, alone = _stacked_and_alone(lambda pm: consistency_loss(pm, guessed),
                                            rng.normal(size=(batch, h, w, c)))
        assert stacked == alone

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(kind=st.sampled_from(["exact", "sampled", "mixed"]), c=st.sampled_from([3, 19]),
           **STACKS)
    def test_structured(self, seed, batch, kind, c):
        rng = np.random.default_rng(seed)
        guessed = _probs(rng, (8, 8, c))
        if kind == "mixed":
            # 32 pixels sample from budget 16, 4 pixels fit it
            bs = boxset_from_boxes([Box(0, 0, 8, 4, 1), Box(5, 5, 2, 2, 2)], 8, 8)
            pairs = drop_pairs(bs, 16, rng)
        else:
            bs = generate_boxes(rng, 8, 8, 4, n_box=2)
            pairs = drop_pairs(bs, 64 ** 2, rng)
            pairs = _explicit(pairs) if kind == "sampled" else pairs
        kinds = {"exact": {True}, "sampled": {False}, "mixed": {True, False}}[kind]
        assert {bp.q is None for bp in pairs.per_box if len(bp) > 0} <= kinds
        stacked, alone = _stacked_and_alone(
            lambda pm: structured_consistency_box(pm, guessed, bs, pairs),
            rng.normal(size=(batch, 8, 8, c)))
        assert stacked == alone

    def test_structured_with_no_pairs_is_zero_per_map(self):
        bs = boxset_from_boxes([Box(0, 0, 2, 2, 1)], 8, 8)
        pairs = PairSet([BoxPairs(1, np.empty(0, dtype=np.int64))], 10)
        rng = np.random.default_rng(2)
        s = PredictionMap.from_logits(Tensor(rng.normal(size=(3, 8, 8, 3))))
        loss = structured_consistency_box(s, _probs(rng, (8, 8, 3)), bs, pairs)
        np.testing.assert_array_equal(loss.data, np.zeros(3))

    @pytest.mark.parametrize("loss_name", ["relaxed_ce", "consistency", "structured_box"])
    def test_stack_carrying_gradient_is_refused(self, loss_name):
        rng = np.random.default_rng(4)
        s, _ = _probs_grad(rng, (2, 8, 8, 3))
        g = _probs(rng, (8, 8, 3))
        bs = boxset_from_boxes([Box(0, 0, 8, 4, 1), Box(5, 5, 2, 2, 2)], 8, 8)
        loss_of = {"relaxed_ce": lambda: relaxed_cross_entropy(s, np.zeros((8, 8), int), 3),
                   "consistency": lambda: consistency_loss(s, g),
                   "structured_box": lambda: structured_consistency_box(
                       s, g, bs, drop_pairs(bs, 16, rng))}[loss_name]
        try:
            with pytest.raises(ValueError, match=f"{loss_name}: output of shape \\(2,\\)"):
                loss_of()
        finally:
            tape().clear()
