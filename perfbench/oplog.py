"""Seeded operation logs: every input a workload sends, fixed up front.

A log is built from ``(workload, seed, seconds)`` and the fixed
fixture roster (plus, for ``cohort_batch``, the trained checkpoint that
sizes recourse thresholds) and written as canonical JSON lines, so the same seed gives
a byte-identical file.  The measured run, the correctness oracle and the
traced in-process replay all read the same file.

Layout: a header line (workload, seed, setup requests) followed by one
line per *item*.  An item is what one caller does at one point in time:
``{"conn": c, "due": t, "requests": [...]}`` where each request is one
call into the serving program (``route`` ``"query"`` is a single query,
``"batch"`` one envelope) carrying wire-format queries plus a parallel
``labels`` list — the simulated answer to each scored question, the free
label behind ``served_auc``.

Students answer from a per-student cursor into their simulated future:
a ``RecordEvent`` consumes the cursor step, and a ``ScoreQuery`` asks
about the cursor step without consuming it, so every served score is
labelled by the answer that student records next.
"""

from __future__ import annotations

import json
import math
from typing import List, Optional

import numpy as np

from . import fixture

#: Connections of the wire workloads: the benchmark box has 2 cores, and
#: each student is pinned to one connection so per-student order (and so
#: every reply and ``served_auc``) is deterministic.
CONNECTIONS = 2

# gateway_mixed: the live tutoring path, open loop.
GATEWAY_STUDENTS = 256
GATEWAY_OPS_PER_SECOND = 35.0
GATEWAY_ZIPF = 1.0
#: Arrival kinds; a live step is a ScoreQuery then a RecordEvent.
GATEWAY_MIX = (("live", 0.85), ("explain", 0.08), ("what_if", 0.05),
               ("recommend", 0.02))
RECOMMEND_CANDIDATES = 5
RECOMMEND_HORIZON = 1

# cohort_batch: a roster pass larger than the stream cache, closed loop.
COHORT_STUDENTS = 1024
COHORT_ENVELOPE = 32
COHORT_MIX = (("score", 0.59), ("explain", 0.25), ("what_if", 0.10),
              ("recommend", 0.06))
#: Share of visited students whose latest answer is ingested first.
COHORT_RECORD_SHARE = 0.5
COHORT_RECOURSE_EVERY = 4
RECOURSE_CANDIDATES = 4
RECOURSE_MAX_EDITS = 3
RECOURSE_BEAM = 2
#: Recourse searches run at threshold 1.0 to learn how far edits can
#: move a score on this checkpoint; thresholds are then placed at
#: baseline + gain x U(0.25, 1.75), so about half of the searches
#: cross theirs.
RECOURSE_CALIBRATION = 8

# cluster_ingest: durable record ingest through the router, closed loop.
CLUSTER_STUDENTS = 512
CLUSTER_RECORDS = 32
CLUSTER_SCORES = 4
#: Shorter preloaded histories than the read workloads: ingest cost does
#: not grow with history length, and set-up replays every prefix record
#: through the router and its journal.
CLUSTER_HISTORY = (10, 30)

PRELOAD_CHUNK = 512

#: Closed-loop logs hold more envelopes than any run can send; a run
#: consumes a prefix.  Generous per-second ceilings per connection.
MAX_COHORT_ENVELOPES_PER_SECOND = 12
MAX_CLUSTER_ENVELOPES_PER_SECOND = 40

WORKLOADS = ("gateway_mixed", "cohort_batch", "cluster_ingest")
ENCODER = {"gateway_mixed": "dkt", "cohort_batch": "akt",
           "cluster_ingest": "dkt"}
#: The cohort's stream cache holds this share of its roster, so a
#: sequential pass warm-builds nearly every read.
COHORT_CACHE_SHARE = 0.25


def student_name(index: int) -> str:
    return f"student-{index:04d}"


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


class _Cursor:
    """Per-student position in the simulated future."""

    def __init__(self, prefix, future):
        self.prefix = prefix
        self.future = future
        self.next = 0

    @property
    def length(self) -> int:
        return len(self.prefix) + self.next

    def peek(self):
        return self.future[self.next]

    def take(self):
        step = self.future[self.next]
        self.next += 1
        return step


def _wire(query) -> dict:
    from repro.serve import to_wire
    return to_wire(query)


def _score(name, step):
    from repro.serve import ScoreQuery
    question, _, concepts = step
    return _wire(ScoreQuery(name, question, concepts))


def _record(name, step):
    from repro.serve import RecordEvent
    question, correct, concepts = step
    return _wire(RecordEvent(name, question, correct, concepts))


def _candidates(sim, rng, count):
    from repro.serve import CandidateQuestion
    questions = rng.choice(np.arange(1, fixture.NUM_QUESTIONS + 1),
                           size=count, replace=False)
    return tuple(CandidateQuestion(int(q), sim.bank.concepts[int(q) - 1])
                 for q in questions)


def _read(kind, name, cursor, sim, rng):
    """One read query of ``kind`` and its label (scores only)."""
    from repro.serve import (ExplainQuery, HistoryEdit, RecommendQuery,
                             WhatIfQuery)
    if kind in ("score", "live"):
        return _score(name, cursor.peek()), cursor.peek()[1]
    if kind == "explain":
        return _wire(ExplainQuery(name)), None
    if kind == "what_if":
        question, _, concepts = cursor.peek()
        position = int(rng.integers(0, cursor.length))
        return _wire(WhatIfQuery(name, question, concepts,
                                 (HistoryEdit(position, "flip"),))), None
    return _wire(RecommendQuery(
        name, _candidates(sim, rng, RECOMMEND_CANDIDATES), top_k=3,
        horizon=RECOMMEND_HORIZON)), None


def _pick(rng, mix) -> str:
    kinds = [kind for kind, _ in mix]
    weights = np.array([weight for _, weight in mix])
    return kinds[int(rng.choice(len(kinds), p=weights / weights.sum()))]


def _setup_requests(cursors, warm: bool) -> List[dict]:
    """Preload every prefix (records) and optionally warm every cache."""
    records = [_record(name, step) for name, cursor in cursors.items()
               for step in cursor.prefix]
    requests = [{"route": "batch", "queries": records[k:k + PRELOAD_CHUNK]}
                for k in range(0, len(records), PRELOAD_CHUNK)]
    if warm:
        scores = [_score(name, cursor.peek())
                  for name, cursor in cursors.items()]
        requests += [{"route": "batch",
                      "queries": scores[k:k + PRELOAD_CHUNK]}
                     for k in range(0, len(scores), PRELOAD_CHUNK)]
    return requests


def _cursors(sim, demand, history_range=fixture.HISTORY_RANGE):
    students = fixture.roster(sim, demand, history_range)
    return {student_name(k): _Cursor(prefix, future)
            for k, (prefix, future) in enumerate(students)}


# ---------------------------------------------------------------------------
# gateway_mixed
# ---------------------------------------------------------------------------
def _gateway(seed: int, seconds: float, sim) -> dict:
    rng = np.random.default_rng([seed, 11])
    ops_per_arrival = sum(weight * (2 if kind == "live" else 1)
                          for kind, weight in GATEWAY_MIX)
    arrivals = max(1, round(GATEWAY_OPS_PER_SECOND * seconds
                            / ops_per_arrival))
    # A Poisson process conditioned on its count: sorted uniform times.
    dues = np.sort(rng.uniform(0.0, seconds, size=arrivals))
    # Student k is the k-th most popular: the roster is fixed, so the
    # hot set (and its history lengths) is the same under every seed.
    weights = 1.0 / (np.arange(1, GATEWAY_STUDENTS + 1) ** GATEWAY_ZIPF)
    chosen = rng.choice(GATEWAY_STUDENTS, size=arrivals,
                        p=weights / weights.sum())
    kinds = [_pick(rng, GATEWAY_MIX) for _ in range(arrivals)]
    # Only live steps consume the cursor; every kind peeks at it.
    demand = [1] * GATEWAY_STUDENTS
    for student, kind in zip(chosen, kinds):
        demand[student] += kind == "live"
    cursors = _cursors(sim, demand)
    items = []
    for due, student, kind in zip(dues, chosen, kinds):
        name = student_name(int(student))
        cursor = cursors[name]
        query, label = _read(kind, name, cursor, sim, rng)
        requests = [{"route": "query", "queries": [query],
                     "labels": [label]}]
        if kind == "live":
            requests.append({"route": "query",
                             "queries": [_record(name, cursor.take())],
                             "labels": [None]})
        items.append({"conn": int(student) % CONNECTIONS,
                      "due": round(float(due), 6), "requests": requests})
    return {"setup": _setup_requests(cursors, warm=True), "items": items}


# ---------------------------------------------------------------------------
# cohort_batch
# ---------------------------------------------------------------------------
def _cohort(seed: int, seconds: float, sim, checkpoint: str) -> dict:
    rng = np.random.default_rng([seed, 12])
    envelopes = int(math.ceil(seconds * MAX_COHORT_ENVELOPES_PER_SECOND))
    visits = [[(k * COHORT_ENVELOPE + j) % COHORT_STUDENTS
               for j in range(COHORT_ENVELOPE)] for k in range(envelopes)]
    demand = [1] * COHORT_STUDENTS
    for envelope in visits:
        for student in envelope:
            demand[student] += 1
    cursors = _cursors(sim, demand)
    items = []
    pending = []    # (item index, student name, history snapshot, query)
    # Every envelope carries the same number of each read kind (seeded
    # order), so envelope costs differ by their students, not by luck of
    # the draw.
    kinds = [kind for kind, share in COHORT_MIX
             for _ in range(round(share * COHORT_ENVELOPE))]
    ingested = round(COHORT_RECORD_SHARE * COHORT_ENVELOPE)
    for k, envelope in enumerate(visits):
        records, reads, labels = [], [], []
        order = rng.permutation(kinds)
        recording = set(rng.choice(COHORT_ENVELOPE, size=ingested,
                                   replace=False).tolist())
        for slot, student in enumerate(envelope):
            name = student_name(student)
            cursor = cursors[name]
            if slot in recording:
                records.append(_record(name, cursor.take()))
            query, label = _read(str(order[slot]), name, cursor, sim, rng)
            reads.append(query)
            labels.append(label)
        if k % COHORT_RECOURSE_EVERY == COHORT_RECOURSE_EVERY - 1:
            name = student_name(envelope[0])
            cursor = cursors[name]
            question, _, concepts = cursor.peek()
            history = cursor.prefix + cursor.future[:cursor.next]
            pending.append((k, name, history, question, concepts,
                            _candidates(sim, rng, RECOURSE_CANDIDATES),
                            float(rng.uniform(0.25, 1.75))))
        items.append({"conn": 0, "due": None, "requests": [{
            "route": "batch", "queries": records + reads,
            "labels": [None] * len(records) + labels}]})
    for index, query in _recourse_queries(pending, checkpoint):
        request = items[index]["requests"][0]
        request["queries"].append(_wire(query))
        request["labels"].append(None)
    return {"setup": _setup_requests(cursors, warm=False), "items": items}


def _recourse_queries(pending, checkpoint: str):
    """Recourse queries with thresholds sized on this checkpoint."""
    from repro.core.multi_target import score_targets
    from repro.data import Interaction, StudentSequence
    from repro.serve import (InferenceEngine, RecordEvent, RecourseQuery,
                             Service)
    from repro.tensor import no_grad

    engine = InferenceEngine.from_checkpoint(checkpoint)
    sequences = []
    for _, name, history, question, concepts, _, _ in pending:
        sequence = StudentSequence(name)
        for step_question, correct, step_concepts in history:
            sequence.append(Interaction(step_question, correct,
                                        step_concepts))
        sequence.append(Interaction(question, 0, concepts))
        sequences.append(sequence)
    with no_grad():
        baselines = score_targets(engine.model, sequences,
                                  np.array([len(s) - 1 for s in sequences]))
    # Calibrate on the first few searches: how far can the allowed
    # edits lift a score on this checkpoint?
    service = Service(engine)
    gains = []
    for k, (_, name, history, question, concepts, candidates, _) \
            in enumerate(pending[:RECOURSE_CALIBRATION]):
        probe = f"calibration-{k}"
        service.execute_batch([RecordEvent(probe, q, c, ks)
                               for q, c, ks in history])
        reply = service.execute(RecourseQuery(
            probe, question, concepts, threshold=1.0,
            max_edits=RECOURSE_MAX_EDITS, beam_width=RECOURSE_BEAM,
            candidates=candidates))
        gains.append(max(0.0, reply.final_score - reply.baseline_score))
    service.close()
    gain = float(np.median(gains)) if gains else 0.0
    gain = gain if gain > 0.0 else 1e-4
    for (index, name, _, question, concepts, candidates, scale), baseline \
            in zip(pending, baselines):
        threshold = min(1.0, float(baseline) + gain * scale)
        yield index, RecourseQuery(
            name, question, concepts, threshold=round(threshold, 12),
            max_edits=RECOURSE_MAX_EDITS, beam_width=RECOURSE_BEAM,
            candidates=candidates)


# ---------------------------------------------------------------------------
# cluster_ingest
# ---------------------------------------------------------------------------
def _cluster(seed: int, seconds: float, sim) -> dict:
    rng = np.random.default_rng([seed, 13])
    per_conn = int(math.ceil(seconds * MAX_CLUSTER_ENVELOPES_PER_SECOND))
    halves = [[s for s in range(CLUSTER_STUDENTS) if s % CONNECTIONS == c]
              for c in range(CONNECTIONS)]
    plan = []
    demand = [0] * CLUSTER_STUDENTS
    for k in range(per_conn):
        for conn in range(CONNECTIONS):
            picked = rng.choice(halves[conn],
                                size=CLUSTER_SCORES + CLUSTER_RECORDS,
                                replace=False)
            scored = [int(s) for s in picked[:CLUSTER_SCORES]]
            recorded = [int(s) for s in picked[CLUSTER_SCORES:]]
            for student in recorded:
                demand[student] += 1
            plan.append((conn, scored, recorded))
    # A scored student may be scored again before any record consumes
    # its cursor step; the future must still hold that step.
    demand = [count + 1 for count in demand]
    cursors = _cursors(sim, demand, CLUSTER_HISTORY)
    items = []
    for conn, scored, recorded in plan:
        records = [_record(student_name(s), cursors[student_name(s)].take())
                   for s in recorded]
        scores = [_score(student_name(s), cursors[student_name(s)].peek())
                  for s in scored]
        labels = [cursors[student_name(s)].peek()[1] for s in scored]
        items.append({"conn": conn, "due": None, "requests": [{
            "route": "batch", "queries": records + scores,
            "labels": [None] * len(records) + labels}]})
    return {"setup": _setup_requests(cursors, warm=True), "items": items}


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------
def build(workload: str, seed: int, seconds: float,
          checkpoint: Optional[str] = None) -> dict:
    """The operation log of one workload as a JSON-ready dict."""
    sim = fixture.simulator()
    if workload == "gateway_mixed":
        body = _gateway(seed, seconds, sim)
    elif workload == "cohort_batch":
        if checkpoint is None:
            raise ValueError("cohort_batch sizes recourse thresholds on "
                             "its checkpoint; pass checkpoint=")
        body = _cohort(seed, seconds, sim, checkpoint)
    elif workload == "cluster_ingest":
        body = _cluster(seed, seconds, sim)
    else:
        raise ValueError(f"unknown workload {workload!r} "
                         f"(expected one of {WORKLOADS})")
    return {"workload": workload, "seed": seed, "seconds": seconds, **body}


def write(log: dict, path) -> None:
    """Canonical JSON lines: header (everything but items), then items."""
    header = {key: value for key, value in log.items() if key != "items"}
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(canonical(header) + "\n")
        for item in log["items"]:
            handle.write(canonical(item) + "\n")


def read(path) -> dict:
    with open(path, encoding="utf-8") as handle:
        log = json.loads(handle.readline())
        log["items"] = [json.loads(line) for line in handle if line.strip()]
    return log


def decoded(request: dict) -> List[object]:
    """The typed queries of one request (for in-process callers)."""
    from repro.serve import query_from_wire
    return [query_from_wire(query) for query in request["queries"]]
