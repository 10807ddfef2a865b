"""Box geometry: coverage, effective-region exclusion, composition, and
budgeted pair sampling (including its sampling distribution)."""

import json

import numpy as np
import pytest

from structseg.cutmix import (Box, BoxSet, _sample_distinct, _sorted_unique,
                              boxset_from_boxes, compose_image,
                              compose_predictions, drop_pairs, generate_boxes)
from structseg.maps import PredictionMap
from structseg.tensor import Tensor, tape


def _owner_grid(boxes, height, width):
    """Independent paint loop: topmost paste index per pixel, 0 = none."""
    owner = np.zeros((height, width), dtype=np.int64)
    for b in sorted(boxes, key=lambda b: b.paste_index):
        owner[b.y0:b.y0 + b.h, b.x0:b.x0 + b.w] = b.paste_index
    return owner


class TestBoxSetConstruction:
    def test_two_box_overlap_example(self):
        # box 1 is the top half; box 2 covers its right half, so box 1's
        # effective region is rows 0-4 of columns 0-4
        boxes = [Box(x0=0, y0=0, w=10, h=5, paste_index=1),
                 Box(x0=5, y0=0, w=5, h=5, paste_index=2)]
        bs = boxset_from_boxes(boxes, 10, 10)
        expected = {y * 10 + x for y in range(5) for x in range(5)}
        assert set(bs.effective_regions[0].tolist()) == expected
        expected2 = {y * 10 + x for y in range(5) for x in range(5, 10)}
        assert set(bs.effective_regions[1].tolist()) == expected2

    def test_out_of_bounds_box_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            boxset_from_boxes([Box(8, 8, 5, 5, 1)], 10, 10)

    def test_bad_paste_indices_rejected(self):
        with pytest.raises(ValueError, match="paste indices"):
            boxset_from_boxes([Box(0, 0, 2, 2, 1), Box(0, 0, 2, 2, 3)], 10, 10)

    def test_json_round_trip(self):
        bs = generate_boxes(np.random.default_rng(5), 16, 16, 4, n_box=2)
        d = json.loads(bs.to_json())
        lo, hi = d["active_range"]
        bs2 = boxset_from_boxes([Box(*b) for b in d["boxes"]], d["height"],
                                d["width"], n_box=hi - lo + 1)
        assert bs2.boxes == bs.boxes
        assert bs2.active_range == bs.active_range
        np.testing.assert_array_equal(bs2.mask, bs.mask)
        for r1, r2 in zip(bs.effective_regions, bs2.effective_regions):
            np.testing.assert_array_equal(r1, r2)


class TestGenerateBoxes:
    def test_deterministic_given_seed(self):
        a = generate_boxes(123, 32, 32, 8)
        b = generate_boxes(123, 32, 32, 8)
        assert a.boxes == b.boxes
        assert a.to_json() == b.to_json()

    @pytest.mark.parametrize("n", [1, 2, 8, 32])
    def test_coverage_in_band(self, n):
        for seed in range(40):
            bs = generate_boxes(seed, 64, 64, n)
            assert bs.coverage_warning is None
            assert 0.45 <= bs.coverage <= 0.55

    def test_regions_tile_mask_disjointly(self):
        for seed in range(40):
            bs = generate_boxes(seed, 48, 40, 16, n_box=8)
            total = sum(len(r) for r in bs.effective_regions)
            assert total == int(bs.mask.sum())
            all_idx = np.concatenate([r for r in bs.effective_regions])
            assert len(np.unique(all_idx)) == len(all_idx)
            np.testing.assert_array_equal(
                np.sort(all_idx), np.flatnonzero(bs.mask.reshape(-1)))

    def test_excluded_pixels_covered_by_later_box(self):
        for seed in range(20):
            bs = generate_boxes(seed, 32, 32, 8)
            owner = _owner_grid(bs.boxes, 32, 32).reshape(-1)
            for b in bs.boxes:
                inside = np.zeros((32, 32), dtype=bool)
                inside[b.y0:b.y0 + b.h, b.x0:b.x0 + b.w] = True
                inside = np.flatnonzero(inside.reshape(-1))
                excluded = np.setdiff1d(inside, bs.effective_regions[b.paste_index - 1])
                assert np.all(owner[excluded] > b.paste_index)

    def test_active_range_is_posterior_slice(self):
        bs = generate_boxes(0, 32, 32, 8, n_box=3)
        assert bs.active_range == (6, 8)
        lo, hi = bs.active_range
        assert [b.paste_index for b in bs.boxes if lo <= b.paste_index <= hi] == [6, 7, 8]

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError):
            generate_boxes(0, 4, 64, 2)
        with pytest.raises(ValueError):
            generate_boxes(0, 64, 64, 0)


class TestCompose:
    def _boxset_with_mask(self, mask):
        h, w = mask.shape
        return BoxSet(boxes=[], mask=mask.astype(np.uint8), effective_regions=[],
                      active_range=(1, 0), height=h, width=w)

    def test_empty_mask_returns_base_image(self):
        rng = np.random.default_rng(0)
        ua, ub = rng.random((6, 6, 3)), rng.random((6, 6, 3))
        bs = self._boxset_with_mask(np.zeros((6, 6)))
        np.testing.assert_array_equal(compose_image(ua, ub, bs), ua)

    def test_full_mask_returns_pasted_image(self):
        rng = np.random.default_rng(1)
        ua, ub = rng.random((6, 6, 3)), rng.random((6, 6, 3))
        bs = boxset_from_boxes([Box(0, 0, 6, 6, 1)], 6, 6)
        np.testing.assert_array_equal(compose_image(ua, ub, bs), ub)

    def test_single_box_changes_exactly_its_area(self):
        rng = np.random.default_rng(2)
        ua = rng.random((8, 8, 3))
        ub = ua + 1.0  # differs everywhere
        bs = boxset_from_boxes([Box(3, 2, 2, 2, 1)], 8, 8)
        out = compose_image(ua, ub, bs)
        assert int((out != ua).any(axis=2).sum()) == 4

    def test_idempotent_on_identical_inputs(self):
        rng = np.random.default_rng(3)
        x = rng.random((16, 16, 3))
        bs = generate_boxes(7, 16, 16, 4)
        np.testing.assert_array_equal(compose_image(x, x, bs), x)

    def test_shape_mismatch_errors(self):
        bs = boxset_from_boxes([Box(0, 0, 2, 2, 1)], 4, 4)
        with pytest.raises(ValueError, match="compose_image"):
            compose_image(np.zeros((4, 4, 3)), np.zeros((4, 5, 3)), bs)

    def test_compose_predictions_matches_image_selection(self):
        rng = np.random.default_rng(4)
        pa = PredictionMap.from_logits(Tensor(rng.normal(size=(8, 8, 3))))
        pb = PredictionMap.from_logits(Tensor(rng.normal(size=(8, 8, 3))))
        bs = generate_boxes(9, 8, 8, 2)
        mixed = compose_predictions(pa, pb, bs)
        sel = bs.mask.astype(bool)
        np.testing.assert_array_equal(mixed.probs.data[sel], pb.probs.data[sel])
        np.testing.assert_array_equal(mixed.probs.data[~sel], pa.probs.data[~sel])
        assert not mixed.probs.requires_grad

    def test_compose_predictions_detaches_gradient_tracking(self):
        rng = np.random.default_rng(5)
        logits = Tensor(rng.normal(size=(8, 8, 3)), requires_grad=True)
        pa = PredictionMap.from_logits(logits)
        pb = PredictionMap.from_logits(Tensor(rng.normal(size=(8, 8, 3))))
        bs = generate_boxes(9, 8, 8, 2)
        assert not compose_predictions(pa, pb, bs).probs.requires_grad
        tape().clear()  # pa's softmax node, which no backward runs


class TestDropPairs:
    def test_small_region_keeps_all_ordered_pairs(self):
        bs = boxset_from_boxes([Box(0, 0, 3, 1, 1)], 16, 16)  # |T| = 3
        ps = drop_pairs(bs, 100, np.random.default_rng(0))
        assert len(ps.per_box[0]) == 9
        region = set(bs.effective_regions[0].tolist())
        pairs = set(zip(ps.per_box[0].i.tolist(), ps.per_box[0].j.tolist()))
        assert pairs == {(i, j) for i in region for j in region}

    def test_budget_binds_to_exact_count_distinct(self):
        bs = boxset_from_boxes([Box(0, 0, 10, 10, 1)], 16, 16)  # |T| = 100
        ps = drop_pairs(bs, 50, np.random.default_rng(0))
        bp = ps.per_box[0]
        assert len(bp) == 50
        keys = set(zip(bp.i.tolist(), bp.j.tolist()))
        assert len(keys) == 50
        region = set(bs.effective_regions[0].tolist())
        assert all(i in region and j in region for i, j in keys)

    def test_empty_region_yields_empty_pairs(self):
        # box 1 fully covered by box 2
        boxes = [Box(0, 0, 2, 2, 1), Box(0, 0, 4, 4, 2)]
        bs = boxset_from_boxes(boxes, 8, 8)
        ps = drop_pairs(bs, 10, np.random.default_rng(0))
        assert len(ps.per_box[0]) == 0
        assert [len(bp) for bp in ps.per_box] == [0, 10]  # box 2 has 16 px, budget binds at 10

    def test_total_budget_invariant(self):
        for seed in range(25):
            rng = np.random.default_rng(seed)
            bs = generate_boxes(rng, 32, 32, 8, n_box=4)
            ps = drop_pairs(bs, 37, rng)
            assert ps.total_pairs <= 4 * 37
            for bp, pi in zip(ps.per_box, range(bs.active_range[0], bs.active_range[1] + 1)):
                region = set(bs.effective_regions[pi - 1].tolist())
                m = len(region)
                assert len(bp) == min(m * m, 37)
                assert all(v in region for v in bp.i.tolist())
                assert all(v in region for v in bp.j.tolist())

    def test_sampling_uniformity_chi_square(self):
        # |T| = 4, budget 1: each of the 16 ordered pairs should appear with
        # frequency 1/16 within 3 sigma of the binomial over 1e5 draws
        bs = boxset_from_boxes([Box(0, 0, 4, 1, 1)], 8, 8)
        rng = np.random.default_rng(2024)
        n_draws = 100_000
        counts = {}
        for _ in range(n_draws):
            bp = drop_pairs(bs, 1, rng).per_box[0]
            key = (int(bp.i[0]), int(bp.j[0]))
            counts[key] = counts.get(key, 0) + 1
        assert len(counts) == 16
        p = 1.0 / 16.0
        sigma = np.sqrt(n_draws * p * (1 - p))
        for key, c in counts.items():
            assert abs(c - n_draws * p) <= 3 * sigma, (key, c)

    def test_bad_budget_rejected(self):
        bs = boxset_from_boxes([Box(0, 0, 2, 2, 1)], 8, 8)
        with pytest.raises(ValueError, match="budget"):
            drop_pairs(bs, 0, np.random.default_rng(0))


class TestSampleDistinct:
    @pytest.mark.parametrize("n,k", [(100, 10), (100, 70), (100, 99), (10, 10), (7, 1)])
    def test_counts_and_range(self, n, k):
        for seed in range(10):
            out = _sample_distinct(np.random.default_rng(seed), n, k)
            assert len(out) == min(k, n)
            assert len(np.unique(out)) == len(out)
            assert out.min() >= 0 and out.max() < n

    def test_sorted_unique_is_numpy_unique(self):
        rng = np.random.default_rng(3)
        for size in (0, 1, 2, 50, 5000):
            v = rng.integers(0, max(1, size // 2), size=size, dtype=np.int64)
            out = _sorted_unique(v)
            np.testing.assert_array_equal(out, np.unique(v))
            assert out.dtype == np.int64

    def test_dense_branch_uniformity(self):
        # k > n/2 goes through complement sampling; check marginal inclusion
        n, k, trials = 10, 7, 20_000
        rng = np.random.default_rng(9)
        hits = np.zeros(n)
        for _ in range(trials):
            hits[_sample_distinct(rng, n, k)] += 1
        p = k / n
        sigma = np.sqrt(trials * p * (1 - p))
        assert np.all(np.abs(hits - trials * p) <= 4 * sigma)
