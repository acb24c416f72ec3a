"""Unit tests for the sequence scorers (LCV and DTW alignment)."""

import numpy as np
import pytest

from repro.video.scoring import (alignment_score, alignment_score_ref,
                                 lcv_run_length, lcv_run_length_ref,
                                 lcv_score)


class TestLCV:
    def test_identity_matrix_has_full_diagonal_run(self):
        assert lcv_run_length(np.eye(5), 0.5) == 5

    def test_empty_matrix(self):
        assert lcv_run_length(np.zeros((0, 0)), 0.5) == 0
        assert lcv_run_length(np.zeros((3, 0)), 0.5) == 0

    def test_nothing_clears_threshold(self):
        assert lcv_run_length(np.full((4, 4), 0.1), 0.5) == 0

    def test_run_is_diagonal_not_row(self):
        # A full row above threshold is still a run of 1: the common
        # view must advance through BOTH videos in lockstep.
        sim = np.zeros((3, 4))
        sim[1, :] = 0.9
        assert lcv_run_length(sim, 0.5) == 1

    def test_off_main_diagonal_run_found(self):
        # A run starting at (0, 2): videos aligned with a lag.
        sim = np.zeros((4, 6))
        for k in range(3):
            sim[k, k + 2] = 0.8
        assert lcv_run_length(sim, 0.5) == 3

    def test_broken_run_restarts(self):
        diag = np.diag([0.9, 0.9, 0.1, 0.9, 0.9, 0.9])
        assert lcv_run_length(diag, 0.5) == 3

    def test_threshold_is_inclusive(self):
        assert lcv_run_length([[0.5]], 0.5) == 1
        assert lcv_run_length([[0.4999]], 0.5) == 0

    def test_rectangular_both_orientations(self):
        sim = np.zeros((2, 5))
        sim[0, 3] = sim[1, 4] = 1.0
        assert lcv_run_length(sim, 0.5) == 2
        assert lcv_run_length(sim.T, 0.5) == 2

    def test_score_normalises_by_query_length(self):
        sim = np.eye(4)
        assert lcv_score(sim, 0.5) == pytest.approx(1.0)
        assert lcv_score(np.vstack([sim, np.zeros((4, 4))]), 0.5) == \
            pytest.approx(0.5)

    def test_matches_reference_on_random_matrices(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n, m = rng.integers(1, 12, size=2)
            sim = rng.random((n, m))
            thr = float(rng.random())
            assert lcv_run_length(sim, thr) == lcv_run_length_ref(sim, thr)

    def test_rejects_non_matrix(self):
        with pytest.raises(ValueError):
            lcv_run_length(np.zeros(4), 0.5)


class TestAlignment:
    def test_single_cell(self):
        assert alignment_score([[0.7]]) == pytest.approx(0.7)

    def test_all_ones_scores_one(self):
        # With every pair fully similar the best path is the longest
        # one -- the 2n-1-cell staircase -- so the normalised score
        # reaches exactly 1.0 (the normaliser is that path length).
        assert alignment_score(np.ones((5, 5))) == pytest.approx(1.0)
        assert alignment_score(np.ones((3, 7))) == pytest.approx(1.0)

    def test_empty_matrix(self):
        assert alignment_score(np.zeros((0, 3))) == 0.0

    def test_bounded_unit_interval(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n, m = rng.integers(1, 10, size=2)
            s = alignment_score(rng.random((n, m)))
            assert 0.0 <= s <= 1.0

    def test_monotonic_path_cannot_skip_both_ends(self):
        # Mass off the monotone corridor is unreachable: only the
        # corner-to-corner path counts.
        sim = np.zeros((3, 3))
        sim[0, 2] = sim[2, 0] = 1.0  # anti-diagonal corners
        sim[0, 0] = sim[1, 1] = sim[2, 2] = 0.2
        assert alignment_score(sim) == pytest.approx((1.0 + 0.2 + 0.2) / 5)

    def test_bit_identical_to_reference(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            n, m = rng.integers(1, 14, size=2)
            sim = rng.random((n, m))
            assert alignment_score(sim) == alignment_score_ref(sim)

    def test_row_and_column_vectors(self):
        row = np.array([[0.5, 0.25, 0.125]])
        # Single query segment: the path must traverse the whole row.
        assert alignment_score(row) == pytest.approx((0.5 + 0.25 + 0.125) / 3)
        assert alignment_score(row.T) == alignment_score(row)


def pad_stack(matrices, fill=0.0):
    """``(stack, lengths)`` of same-height matrices, padded with ``fill``."""
    lengths = [mat.shape[1] for mat in matrices]
    stack = np.full((len(matrices), matrices[0].shape[0], max(lengths)),
                    fill, dtype=float)
    for v, mat in enumerate(matrices):
        stack[v, :, :mat.shape[1]] = mat
    return stack, lengths


class TestStacked:
    """A stack reduces to exactly what each matrix reduces to alone."""

    def test_ragged_stack_equals_per_video_equals_reference(self):
        rng = np.random.default_rng(41)
        for _ in range(60):
            n = int(rng.integers(1, 13))
            mats = [rng.random((n, int(m)))
                    for m in rng.integers(1, 13, size=rng.integers(1, 9))]
            thr = float(rng.random())
            stack, lengths = pad_stack(mats)
            runs = lcv_run_length(stack, thr, lengths)
            scores = alignment_score(stack, lengths)
            assert runs.shape == scores.shape == (len(mats),)
            assert runs.dtype.kind == "i" and scores.dtype == np.float64
            for v, mat in enumerate(mats):
                sliced = stack[v, :, :lengths[v]]
                assert runs[v] == lcv_run_length(sliced, thr) \
                    == lcv_run_length_ref(mat, thr)
                # == on floats: same adds, same maxes, same division.
                assert scores[v] == alignment_score(sliced) \
                    == alignment_score_ref(mat)

    @pytest.mark.parametrize("fill", [0.0, 1.0, -7.0, 1e300, np.nan])
    def test_padding_values_never_reach_a_result(self, fill):
        rng = np.random.default_rng(43)
        mats = [rng.random((6, m)) for m in (1, 9, 4, 9, 2)]
        base, lengths = pad_stack(mats)
        stack, _ = pad_stack(mats, fill=fill)
        for thr in (0.0, 0.3, 1.0):
            assert lcv_run_length(stack, thr, lengths).tolist() == \
                lcv_run_length(base, thr, lengths).tolist()
        assert alignment_score(stack, lengths).tolist() == \
            alignment_score(base, lengths).tolist()

    def test_thresholds_at_zero_one_and_exact_cell_values(self):
        grid = np.array([[0.0, 0.25, 1.0], [0.25, 0.25, 0.5], [1.0, 0.0, 0.25]])
        mats = [grid, grid[:, :2], grid[:, 2:], grid.T.copy()]
        stack, lengths = pad_stack(mats)
        for thr in (0.0, 0.25, 0.5, 1.0):
            assert lcv_run_length(stack, thr, lengths).tolist() == \
                [lcv_run_length_ref(mat, thr) for mat in mats]
        # At threshold 0 every real cell clears; padding still must not.
        assert lcv_run_length(stack, 0.0, lengths).tolist() == [3, 2, 1, 3]

    def test_dead_video_beside_an_all_ones_video(self):
        stack, lengths = pad_stack([np.zeros((4, 2)), np.ones((4, 7)),
                                    np.full((4, 3), 0.2)])
        assert lcv_run_length(stack, 0.5, lengths).tolist() == [0, 4, 0]
        assert alignment_score(stack, lengths).tolist() == \
            [0.0, 1.0, alignment_score_ref(np.full((4, 3), 0.2))]
        # ... and when nothing anywhere clears, the early exit agrees.
        assert lcv_run_length(stack[[0, 2]], 0.5, [2, 3]).tolist() == [0, 0]

    def test_stack_of_one_is_the_matrix(self):
        sim = np.random.default_rng(47).random((5, 8))
        assert lcv_run_length(sim[None], 0.4, [8]).tolist() == \
            [lcv_run_length(sim, 0.4)]
        assert alignment_score(sim[None], [8]).tolist() == \
            [alignment_score(sim)]
        # A matrix in, a scalar out -- the pre-stack contract.
        assert type(lcv_run_length(sim, 0.4)) is int
        assert type(alignment_score(sim)) is float

    def test_empty_stack(self):
        none = np.zeros((0, 4, 3))
        assert lcv_run_length(none, 0.5, []).shape == (0,)
        assert alignment_score(none, []).shape == (0,)

    def test_rejects_malformed_input(self):
        stack = np.zeros((2, 3, 4))
        for bad in (np.zeros(4), np.zeros((1, 2, 3, 4))):
            with pytest.raises(ValueError):
                lcv_run_length(bad, 0.5)
            with pytest.raises(ValueError):
                alignment_score(bad)
        with pytest.raises(ValueError):
            lcv_run_length(stack, 0.5)              # a stack needs lengths
        with pytest.raises(ValueError):
            alignment_score(np.zeros((3, 4)), [4])  # a matrix takes none
        for lengths in ([4], [4, 5], [0, 4], [4, -1]):
            with pytest.raises(ValueError):
                lcv_run_length(stack, 0.5, lengths)
            with pytest.raises(ValueError):
                alignment_score(stack, lengths)
