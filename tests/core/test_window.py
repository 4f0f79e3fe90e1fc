"""Sliding-window scoring: exact truncation semantics in the core.

Windowed scoring is *defined* as full recompute on the truncated window
(re-based to position 0), so every test here compares the windowed fast
paths against literal truncate-and-recollate references.  The anchoring
function ``window_start`` is pure in the history length, which is what
lets warm and cold serving caches and these offline references all
agree on the same context.
"""

import numpy as np
import pytest

from repro.core import ENCODERS, RCKT, RCKTConfig, score_batch_targets
from repro.core.masking import check_window, window_start, window_starts
from repro.core.multi_target import column_banded_chunks
from repro.data import (SimulationConfig, StudentSimulator, build_dataset,
                        collate, expand_windowed_targets)
from repro.tensor import no_grad

ATOL = 1e-10


def make_dataset(num_students=6, lengths=(30, 60), seed=3):
    config = SimulationConfig(num_students=num_students, num_questions=40,
                              num_concepts=8, sequence_length=lengths)
    simulator = StudentSimulator(config, seed=seed)
    return build_dataset("window", simulator.simulate(seed=seed + 1),
                         config.num_questions, config.num_concepts,
                         min_length=2)


def make_model(encoder, dataset, **overrides):
    settings = dict(dim=8, layers=2, seed=1)
    settings.update(overrides)
    return RCKT(dataset.num_questions, dataset.num_concepts,
                RCKTConfig(encoder=encoder, **settings))


class TestWindowStart:
    def test_short_histories_are_not_windowed(self):
        assert window_start(0, 16) == 0
        assert window_start(16, 16) == 0
        assert window_start(100, None) == 0

    def test_hop_one_is_exact_last_window(self):
        for length in range(17, 80):
            start = window_start(length, 16, hop=1)
            assert length - start == 16

    def test_context_length_breathes_within_hop(self):
        window, hop = 16, 5
        for length in range(1, 200):
            start = window_start(length, window, hop)
            context = length - start
            assert 0 < context <= window
            if length > window:
                assert context > window - hop
                assert start % hop == 0

    def test_vectorized_matches_scalar(self):
        lengths = np.arange(0, 120)
        for window, hop in ((16, 1), (16, 5), (32, 8)):
            vectorized = window_starts(lengths, window, hop)
            scalar = [window_start(int(n), window, hop) for n in lengths]
            np.testing.assert_array_equal(vectorized, scalar)

    def test_invalid_pairs_rejected(self):
        with pytest.raises(ValueError):
            check_window(1, 1)
        with pytest.raises(ValueError):
            check_window(8, 0)
        with pytest.raises(ValueError):
            check_window(8, 8)
        with pytest.raises(ValueError):
            window_start(4, 1)
        with pytest.raises(ValueError):
            window_starts(np.array([3]), 8, 9)


class TestExpandWindowedTargets:
    def test_matches_manual_slice(self):
        dataset = make_dataset()
        sequences = list(dataset)
        base = collate(sequences)
        cols = np.array([len(s) - 1 for s in sequences])
        starts = window_starts(cols, 10, 3)
        rebased, new_cols = expand_windowed_targets(
            base, np.arange(len(cols)), cols, starts)
        np.testing.assert_array_equal(new_cols, cols - starts)
        for row, (sequence, col, start) in enumerate(
                zip(sequences, cols, starts)):
            manual = collate([sequence[start:col + 1]])
            width = col - start + 1
            np.testing.assert_array_equal(
                rebased.questions[row, :width], manual.questions[0])
            np.testing.assert_array_equal(
                rebased.responses[row, :width], manual.responses[0])
            np.testing.assert_array_equal(
                rebased.concept_counts[row, :width],
                manual.concept_counts[0])
            assert rebased.mask[row, :width].all()
            assert not rebased.mask[row, width:].any()

    def test_validates_inputs(self):
        base = collate(list(make_dataset(num_students=2)))
        with pytest.raises(ValueError):
            expand_windowed_targets(base, np.array([0]), np.array([5]),
                                    np.array([6]))
        with pytest.raises(ValueError):
            expand_windowed_targets(base, np.array([0]), np.array([5]),
                                    np.array([-1]))
        with pytest.raises(ValueError):
            expand_windowed_targets(base, np.array([0, 1]), np.array([5]),
                                    np.array([0]))


@pytest.mark.parametrize("encoder", ENCODERS)
class TestWindowedScoreParity:
    """Windowed fast paths == truncate-and-recollate references."""

    def truncated_reference(self, model, sequence, col, window, hop):
        start = window_start(int(col), window, hop)
        batch = collate([sequence[start:col + 1]])
        with no_grad():
            return score_batch_targets(model, batch,
                                       np.array([col - start]))[0]

    def test_score_batch_targets_window(self, encoder):
        dataset = make_dataset()
        sequences = list(dataset)
        model = make_model(encoder, dataset)
        model.eval()
        base = collate(sequences)
        cols = np.array([len(s) - 1 for s in sequences])
        window, hop = 12, 4
        with no_grad():
            windowed = score_batch_targets(model, base, cols,
                                           window=window, window_hop=hop)
        reference = np.array([
            self.truncated_reference(model, s, c, window, hop)
            for s, c in zip(sequences, cols)
        ])
        np.testing.assert_allclose(windowed, reference, atol=ATOL, rtol=0)

    def test_predict_dataset_window(self, encoder):
        dataset = make_dataset(num_students=4, lengths=(20, 40))
        model = make_model(encoder, dataset, layers=1)
        window, hop = 12, 4
        labels, scores = model.predict_dataset(dataset, stride=7,
                                               window=window,
                                               window_hop=hop)
        model.eval()
        ordered = sorted((s for s in dataset
                          if len(s) > model.config.min_history), key=len)
        specs = [(sequence, col) for sequence in ordered
                 for col in range(model.config.min_history,
                                  len(sequence), 7)]
        # The fast path scores each group's targets in stable
        # column-sorted order (one group here: batch_size default 32).
        specs.sort(key=lambda spec: spec[1])
        expected_labels = [sequence[col].correct for sequence, col in specs]
        expected_scores = [self.truncated_reference(model, sequence, col,
                                                    window, hop)
                           for sequence, col in specs]
        np.testing.assert_array_equal(labels, expected_labels)
        np.testing.assert_allclose(scores, expected_scores,
                                   atol=ATOL, rtol=0)


def test_window_none_is_bit_identical_to_unwindowed():
    dataset = make_dataset(num_students=4)
    model = make_model("dkt", dataset)
    plain = model.predict_dataset(dataset, stride=5)
    windowed_off = model.predict_dataset(dataset, stride=5, window=None)
    np.testing.assert_array_equal(plain[1], windowed_off[1])
    # A window wider than every history is also a no-op.
    wide = model.predict_dataset(dataset, stride=5, window=512)
    np.testing.assert_array_equal(plain[1], wide[1])


def test_legacy_path_rejects_window():
    dataset = make_dataset(num_students=2)
    model = make_model("dkt", dataset)
    with pytest.raises(ValueError):
        model.predict_dataset(dataset, legacy=True, window=16)


def test_chunking_respects_window_boundaries():
    # Once windowed targets are re-based, every chunk's width is bounded
    # by the window: no chunk mixes a windowed target with a far wider
    # full-history one.
    cols = np.array([3, 200, 450, 7, 900, 11, 300])
    window, hop = 16, 4
    starts = window_starts(cols, window, hop)
    rebased = cols - starts
    assert rebased.max() <= window
    for chunk in column_banded_chunks(rebased, target_batch=4):
        width = rebased[chunk].max() + 1
        assert width <= window + 1
