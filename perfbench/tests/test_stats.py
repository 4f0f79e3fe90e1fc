"""Percentiles, the tail rule, AUC, and failure accounting."""

import json

import numpy as np
import pytest

from perfbench import drive, stats, workloads


@pytest.mark.parametrize("q", [0, 5, 50, 95, 99, 100])
def test_percentile_matches_numpy_linear(q):
    values = list(np.random.default_rng(3).exponential(size=257))
    assert stats.percentile(values, q) == pytest.approx(
        float(np.percentile(values, q)), rel=1e-12)


@pytest.mark.parametrize("q, needed", [(95, 200), (99, 1000), (90, 100)])
def test_tail_needs_ten_samples_beyond(q, needed):
    assert stats.min_samples_for(q) == needed
    assert stats.samples_beyond(needed, q) == stats.MIN_BEYOND
    assert stats.tail_is_valid(needed, q)
    assert not stats.tail_is_valid(needed - 1, q)
    with pytest.raises(ValueError, match="needs at least"):
        stats.tail(list(range(needed - 1)), q)
    assert stats.tail(list(range(needed)), q) == pytest.approx(
        float(np.percentile(range(needed), q)))


def test_auc_rank_sum_with_ties():
    assert stats.auc([0, 0, 1, 1], [0.1, 0.2, 0.3, 0.4]) == 1.0
    assert stats.auc([1, 1, 0, 0], [0.1, 0.2, 0.3, 0.4]) == 0.0
    assert stats.auc([0, 1, 0, 1], [0.5, 0.5, 0.5, 0.5]) == 0.5
    # One tie across classes: 3 of 4 pairs ordered, the tie counts half.
    assert stats.auc([0, 0, 1, 1], [0.1, 0.3, 0.3, 0.4]) == 0.875
    with pytest.raises(ValueError):
        stats.auc([1, 1], [0.2, 0.3])


def _phase(replies_per_request, latencies):
    phase = drive.Phase()
    for index, (replies, latency) in enumerate(zip(replies_per_request,
                                                   latencies)):
        phase.outcomes.append(drive.Outcome(
            index, 0, 0.0, 0.0, latency,
            result=json.dumps({"type": "batch_reply",
                               "replies": replies}).encode()))
    phase.end = max(latencies)
    return phase


def _log(types):
    return {"items": [{"conn": 0, "due": None, "requests": [{
        "route": "batch",
        "queries": [{"type": t, "student_id": "s"} for t in request],
        "labels": [None] * len(request)}]} for request in types]}


def test_error_frac_counts_error_values_and_wrong_replies():
    log = _log([["score", "record"], ["score", "explain"]])
    phase = _phase([
        [{"type": "score_reply", "score": 0.5},
         {"type": "record_reply", "history_length": 3}],
        [{"type": "error", "code": "unknown_student"},
         {"type": "score_reply", "score": 0.5}],    # wrong reply type
    ], [0.010, 0.020])
    verdict = workloads.Verdict()
    verdict.tally.attempted = workloads.attempted(log, phase)
    workloads._check_types(verdict, log, phase)
    assert verdict.tally.attempted == 4
    assert verdict.tally.failed == 2
    assert verdict.tally.error_frac == 0.5
    assert verdict.tally.reasons == {"unknown_student": 1,
                                     "wrong_type": 1}
    assert verdict.failed == {(1, 0): {0, 1}}


def test_oracle_mismatch_counts_as_failed_and_leaves_latency():
    verdict = workloads.Verdict()
    verdict.tally.attempted = 3
    verdict.fail((0, 0), 1, "reference_mismatch", "served != expected")
    verdict.fail((0, 0), 1, "reference_mismatch")     # counted once
    assert verdict.tally.failed == 1
    assert verdict.tally.succeeded == 2
    # A failed query misses every latency limit: it is attempted but
    # contributes no latency sample.
    log = _log([["score", "score", "record"]])
    phase = _phase([[{"type": "score_reply"}] * 2
                    + [{"type": "record_reply"}]], [0.004])
    reads, records = workloads.latencies(log, phase, verdict)
    assert reads == [4.0] and records == [4.0]


def test_transport_failure_fails_every_query_of_the_request():
    log = _log([["record"] * 3])
    phase = drive.Phase(outcomes=[drive.Outcome(0, 0, 0.0, 0.0, 0.5,
                                                error="TimeoutError")])
    verdict = workloads.Verdict()
    workloads._check_types(verdict, log, phase)
    assert verdict.tally.failed == 3
    assert verdict.tally.reasons == {"transport": 3}


def test_benchmark_json_names_every_reported_metric():
    from pathlib import Path
    spec = json.loads((Path(workloads.__file__).resolve().parent.parent
                       / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == \
        list(workloads.END_TO_END_UNITS)
    assert [m["unit"] for m in spec["end_to_end"]] == \
        list(workloads.END_TO_END_UNITS.values())
    assert [m["name"] for m in spec["per_layer"]] == \
        list(workloads.PER_LAYER)
    assert [m["unit"] for m in spec["per_layer"]] == \
        [workloads.PER_LAYER_UNITS[m] for m in workloads.PER_LAYER]
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
