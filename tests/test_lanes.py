"""Lane-packed masks (``grid.Lanes``) and the checks that run on them,
against one mask at a time, at the lane boundaries: n = 1, n = 8 (whose
64 cells spill into a 9-byte lane), n = 9 and n = 10, masks with box
(n, n) or every cell set, the empty family and the empty AD of the
identity."""

import random

import pytest
from peaks import traced
from test_pipedreams import _tile_walk_trace

from pipedual import verification
from pipedual.grid import Lanes
from pipedual.permutations import Permutation, bruhat_geq, identity, parse_permutation
from pipedual.pipedreams import enumerate_rp, reduced_traces, trace_lanes
from pipedual.transversals import SetFamily
from pipedual.verification import CheckResult, _antidiagonal_steps, verify_permutation

SIZES = [1, 2, 3, 7, 8, 9, 10]


def edge_masks(n, rng, count=40):
    """The boundary masks (empty, box (n, n) alone, every cell, every cell
    but box (1, 1), boxes (1, 1) and (n, n)), then seeded random ones from
    sparse to dense."""
    every, corner = (1 << n * n) - 1, 1 << n * n - 1
    masks = [0, corner, every, every ^ 1, corner | 1]
    for _ in range(count):
        density = rng.choice([0.05, 0.2, 0.5, 0.9])
        masks.append(sum(1 << b for b in range(n * n) if rng.random() < density))
    return masks


def random_permutation(n, rng):
    return Permutation(tuple(rng.sample(range(1, n + 1), n)))


class TestLayout:
    @pytest.mark.parametrize("n,size", [(1, 1), (2, 1), (7, 7), (8, 9), (9, 11), (10, 13)])
    def test_lane_bytes(self, n, size):
        lanes = Lanes(n, [1 << n * n - 1])
        assert lanes.size == size
        assert 8 * size > n * n  # the top bit lies above every cell

    @pytest.mark.parametrize("n", SIZES)
    def test_pack_and_split(self, n):
        masks = edge_masks(n, random.Random(n))
        lanes = Lanes(n, masks)
        width = 8 * lanes.size
        assert lanes.packed == sum(m << i * width for i, m in enumerate(masks))
        assert lanes.ones == sum(1 << i * width for i in range(len(masks)))
        assert lanes.top == lanes.ones << width - 1
        assert lanes.split(lanes.packed) == masks
        assert lanes.split(lanes.nonzero(lanes.packed)) == [
            (m != 0) << width - 1 for m in masks
        ]
        assert lanes.select(lanes.packed) == [m for m in masks if m]

    @pytest.mark.parametrize("n", [1, 3, 8, 9])
    def test_a_lane_is_its_mask(self, n):
        # the lanes hold no list of masks: select reads them back from the
        # packed lanes, the empty mask and box (n, n) alone included
        masks = edge_masks(n, random.Random(50 + n))
        lanes = Lanes(n, masks)
        assert lanes.count == len(masks)
        assert all(type(v) is int for v in vars(lanes).values())
        assert lanes.select(lanes.top) == masks
        assert lanes.select(lanes.top & -lanes.top) == [0]
        assert lanes.select(lanes.top >> 8 * lanes.size) == masks[:-1]

    def test_packing_peak(self):
        # 74,256 lanes of 11 bytes: filling one buffer peaks at 3.4 MiB,
        # where joining one bytes object per mask peaked at 10.2 MiB
        masks = enumerate_rp(parse_permutation("124938765")).masks
        lanes, peak = traced(Lanes, 9, masks)
        assert lanes.count == len(masks) == 74256
        assert peak < 5, f"{peak:.2f} MiB"

    @pytest.mark.parametrize("n", SIZES)
    def test_empty_family(self, n):
        lanes = Lanes(n, [])
        assert (lanes.packed, lanes.ones, lanes.top) == (0, 0, 0)
        assert lanes.split(0) == lanes.select(0) == []
        slots, bad = trace_lanes(lanes)
        assert not any(slots) and bad == 0
        assert list(reduced_traces(n, [])) == []
        w = identity(n)
        passed = CheckResult(True)
        assert verification._check_transversality(lanes, SetFamily(n, [1])) == passed
        assert verification._check_rank_antidiagonal(w, lanes) == passed
        assert verification._check_dual_reducedness(w, lanes) == passed


class TestChecksPerLane:
    """Each lane-packed check against the same check run on one mask at a
    time."""

    @pytest.mark.parametrize("n", SIZES)
    def test_rank_rows(self, n):
        masks = edge_masks(n, random.Random(10 + n))
        lanes = Lanes(n, masks)
        for p in range(1, n + 1):
            rows = _antidiagonal_steps(n, lanes.packed, p, lanes.ones)
            assert lanes.split(rows) == [_antidiagonal_steps(n, m, p) for m in masks]

    @pytest.mark.parametrize("n", SIZES)
    def test_transversality(self, n):
        rng = random.Random(20 + n)
        masks = edge_masks(n, rng)
        families = [[], [0], [1 << n * n - 1], [(1 << n * n) - 1]]
        families += [rng.sample(masks, rng.randint(1, 4)) for _ in range(20)]
        failing = 0
        for members in families:
            ad = SetFamily(n, members)
            offenders = [m for m in masks if not all(m & a for a in ad.masks)]
            result = verification._check_transversality(Lanes(n, masks), ad)
            assert result == verification._result_from_offenders(n, offenders)
            failing += not result.passed
        assert failing >= 10

    @pytest.mark.parametrize("n", SIZES)
    def test_traces(self, n):
        masks = edge_masks(n, random.Random(30 + n))
        assert list(reduced_traces(n, masks)) == [_tile_walk_trace(n, m) for m in masks]

    @pytest.mark.parametrize("n", [8, 9, 10])
    def test_enumerated_dreams_with_boundary_masks(self, n):
        rng = random.Random(40 + n)
        w = random_permutation(n, rng)
        masks = sorted(enumerate_rp(w).masks)[:200] + edge_masks(n, rng, 10)
        rng.shuffle(masks)
        traces = [_tile_walk_trace(n, m) for m in masks]
        assert list(reduced_traces(n, masks)) == traces
        offenders = [
            m
            for m, images in zip(masks, traces)
            if images is None or not bruhat_geq(Permutation(images), w)
        ]
        result = verification._check_dual_reducedness(w, Lanes(n, masks))
        assert result == verification._result_from_offenders(n, offenders)
        assert not result.passed
        stats = verification._nonminimal_stats(SetFamily(n, masks))
        assert stats["reduced_nonminimal_transversals"] == len(
            {m for m, images in zip(masks, traces) if images is not None}
        )


@pytest.mark.parametrize("n", SIZES)
def test_identity_has_an_empty_ad(n):
    report = verify_permutation(identity(n))
    assert report.passed
    assert report.stats["antidiagonals_off_staircase"] == 0
