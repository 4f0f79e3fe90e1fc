"""Golden parity: the multi-target fast path must reproduce the legacy
per-prefix ``predict_dataset`` scores exactly (1e-10) for all encoders.

The legacy path (kept as ``predict_dataset(legacy=True)``) collates one
exact-length prefix batch per target bucket; the fast path collates each
sequence once and shares forward encoder streams across targets.  Cui et
al.'s answer-bias study shows evaluation-protocol bugs silently corrupt
reported KT accuracy — hence exact parity tests, not eyeballing.
"""

import numpy as np
import pytest

from repro.core import ENCODERS, RCKT, RCKTConfig
from repro.core.multi_target import (MultiTargetContext, score_targets)
from repro.data import (SimulationConfig, StudentSimulator, build_dataset,
                        collate)
from repro.tensor import no_grad

ATOL = 1e-10


def make_dataset(num_students=8, lengths=(4, 12), seed=3):
    config = SimulationConfig(num_students=num_students, num_questions=40,
                              num_concepts=8, sequence_length=lengths)
    simulator = StudentSimulator(config, seed=seed)
    return build_dataset("parity", simulator.simulate(seed=seed + 1),
                         config.num_questions, config.num_concepts,
                         min_length=2)


def make_model(encoder, dataset, **overrides):
    settings = dict(dim=8, layers=2, seed=1)
    settings.update(overrides)
    config = RCKTConfig(encoder=encoder, **settings)
    return RCKT(dataset.num_questions, dataset.num_concepts, config)


def legacy_reference_scores(model, sequence, cols):
    """One exact-length prefix batch per target: the golden definition."""
    return np.array([
        model.predict_scores(collate([sequence[:col + 1]]),
                             np.array([col]))[0]
        for col in cols
    ])


@pytest.mark.parametrize("encoder", ENCODERS)
class TestTargetAlignedParity:
    """Score-by-score comparison keyed on (sequence, target column)."""

    def test_context_matches_prefix_scores(self, encoder):
        dataset = make_dataset()
        model = make_model(encoder, dataset)
        sequences = list(dataset)[:4]
        model.eval()
        with no_grad():
            base = collate(sequences)
            context = MultiTargetContext(model, base)
            for row, sequence in enumerate(sequences):
                cols = np.arange(1, len(sequence))
                fast = context.scores_for(np.full(len(cols), row), cols)
                golden = legacy_reference_scores(model, sequence, cols)
                np.testing.assert_allclose(fast, golden, rtol=0, atol=ATOL)

    def test_score_targets_matches_prefix_scores(self, encoder):
        dataset = make_dataset()
        model = make_model(encoder, dataset)
        sequences = list(dataset)
        cols = [len(s) - 1 for s in sequences]
        model.eval()
        with no_grad():
            fast = score_targets(model, sequences, cols, target_batch=3)
        golden = np.array([
            legacy_reference_scores(model, s, [c])[0]
            for s, c in zip(sequences, cols)
        ])
        np.testing.assert_allclose(fast, golden, rtol=0, atol=ATOL)

    def test_padded_target_rejected(self, encoder):
        dataset = make_dataset(num_students=3)
        model = make_model(encoder, dataset)
        sequences = sorted(dataset, key=len)
        model.eval()
        with no_grad():
            base = collate(sequences)
            context = MultiTargetContext(model, base)
            bad_col = np.array([base.length - 1])  # padding on shortest row
            if not base.mask[0, bad_col[0]]:
                with pytest.raises(ValueError, match="real response"):
                    context.scores_for(np.array([0]), bad_col)

    def test_mono_ablation_parity(self, encoder):
        """The -mono flag flows through the shared forward streams too."""
        dataset = make_dataset(num_students=4)
        model = make_model(encoder, dataset, use_monotonicity=False)
        sequence = list(dataset)[0]
        cols = np.arange(1, len(sequence))
        model.eval()
        with no_grad():
            context = MultiTargetContext(model, collate([sequence]))
            fast = context.scores_for(np.zeros(len(cols), dtype=int), cols)
        golden = legacy_reference_scores(model, sequence, cols)
        np.testing.assert_allclose(fast, golden, rtol=0, atol=ATOL)


@pytest.mark.parametrize("encoder", ENCODERS)
def test_predict_dataset_paths_agree(encoder):
    """End to end: legacy and fast sweeps produce the same evaluation."""
    dataset = make_dataset()
    model = make_model(encoder, dataset)
    legacy_labels, legacy_scores = model.predict_dataset(dataset,
                                                         legacy=True)
    fast_labels, fast_scores = model.predict_dataset(dataset,
                                                     target_batch=7)
    assert len(legacy_scores) == len(fast_scores)
    # The paths order targets differently (length buckets vs sorted
    # groups); compare the (label, score) multisets.
    legacy_pairs = np.sort(legacy_labels + 1j * legacy_scores)
    fast_pairs = np.sort(fast_labels + 1j * fast_scores)
    np.testing.assert_allclose(fast_pairs.real, legacy_pairs.real,
                               rtol=0, atol=0)
    np.testing.assert_allclose(fast_pairs.imag, legacy_pairs.imag,
                               rtol=0, atol=ATOL)


def test_predict_dataset_stride_and_empty():
    dataset = make_dataset(num_students=4)
    model = make_model("dkt", dataset)
    legacy = model.predict_dataset(dataset, stride=3, legacy=True)
    fast = model.predict_dataset(dataset, stride=3)
    assert len(legacy[1]) == len(fast[1])
    np.testing.assert_allclose(np.sort(fast[1]), np.sort(legacy[1]),
                               rtol=0, atol=ATOL)
    # Sequences shorter than min_history produce empty results on both.
    tiny = make_dataset(num_students=2, lengths=(2, 2))
    short_model = make_model("dkt", tiny,
                             min_history=5)
    for legacy_flag in (True, False):
        labels, scores = short_model.predict_dataset(tiny,
                                                     legacy=legacy_flag)
        assert labels.size == 0 and scores.size == 0


@pytest.mark.slow
@pytest.mark.parametrize("encoder", ENCODERS)
def test_large_corpus_parity(encoder):
    """Opt-in (pytest -m slow): parity on a larger, longer corpus."""
    dataset = make_dataset(num_students=24, lengths=(10, 50), seed=9)
    model = make_model(encoder, dataset, dim=16)
    legacy_labels, legacy_scores = model.predict_dataset(dataset,
                                                         legacy=True)
    fast_labels, fast_scores = model.predict_dataset(dataset)
    np.testing.assert_allclose(np.sort(fast_scores),
                               np.sort(legacy_scores), rtol=0, atol=ATOL)
    assert np.array_equal(np.sort(legacy_labels), np.sort(fast_labels))
