"""The three workloads: set-up, measured window, oracle and layer numbers.

``gateway_mixed``
    dkt behind one ``python -m repro.serve`` process; open-loop Poisson
    arrivals of live tutoring steps over two keep-alive connections.
``cohort_batch``
    akt in an in-process :class:`repro.serve.Service` whose stream cache
    holds a quarter of a 1024-student roster; one caller sends envelopes
    of ~32 reads, a recourse search riding every 4th.
``cluster_ingest``
    dkt behind ``python -m repro.cluster --shards 2 --journal-dir ...
    --fsync batch``; two closed-loop callers send envelopes of 32
    records and 4 scores.

:func:`run` returns the end-to-end metrics (untraced) or, with
``trace=True``, the per-layer metrics plus a stage ledger.
"""

from __future__ import annotations

import contextlib
import gc
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

from . import drive, oplog, procs, stats
from .fixture import MIN_VALIDATION_AUC
from .trace import Tracer, instrument, ledger, stage_totals

SETUP_REPEATS = 3
TAIL = 95
#: Recomputed scores must match served ones this closely (akt's cached
#: stream path and a from-scratch recompute agree to ~1e-12).
TOLERANCE = 1e-9
ORACLE_SAMPLE = 64

END_TO_END_UNITS = {
    "setup_s": "s", "read_p50_ms": "ms", "throughput_qps": "1/s",
    "peak_rss_mb": "MB", "served_auc": "auc",
}

#: Service-internal stages: spans of the traced entry points, from the
#: in-process replay (wire workloads) or the traced window (cohort).
SERVICE_STAGES = ("service", "engine.record", "forward_cache.build",
                  "multi_target.score", "multi_target.influence",
                  "recourse")


class Refused(RuntimeError):
    """The fixture or the run failed a sanity floor; nothing to report."""


@dataclass
class Context:
    root: Path
    work: Path
    seed: int
    seconds: float

    @property
    def src(self) -> Path:
        return self.root / "src"


@dataclass
class Verdict:
    """The correctness oracle's findings for one measured window."""

    tally: stats.Tally = field(default_factory=stats.Tally)
    #: (item, request) -> indices of its queries that failed.
    failed: Dict[Tuple[int, int], Set[int]] = field(default_factory=dict)
    #: (served score, simulated answer) of every correct ScoreReply.
    scored: List[Tuple[float, int]] = field(default_factory=list)
    #: (achieved, worlds scored, generations) per recourse reply.
    recourse: List[Tuple[bool, int, int]] = field(default_factory=list)

    def fail(self, key, index, reason, example=None) -> None:
        if index in self.failed.setdefault(key, set()):
            return
        self.failed[key].add(index)
        self.tally.fail(reason, example)


# ---------------------------------------------------------------------------
# Fixture
# ---------------------------------------------------------------------------
def prepare(ctx: Context, workload: str) -> Tuple[dict, dict]:
    """Train the checkpoint and write the op log in a child process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ctx.src), str(ctx.root)])
    completed = subprocess.run(
        [sys.executable, "-m", "perfbench.fixture", "--workload", workload,
         "--seed", str(ctx.seed), "--seconds", str(ctx.seconds),
         "--out", str(ctx.work), "--cache", str(ctx.work.parent / "cache")],
        cwd=ctx.root, env=env, capture_output=True, text=True,
        timeout=600)
    if completed.returncode != 0:
        raise RuntimeError(f"fixture failed:\n{completed.stderr[-3000:]}")
    info = json.loads(completed.stdout.strip().splitlines()[-1])
    if info["validation_auc"] <= MIN_VALIDATION_AUC:
        raise Refused(f"fixture checkpoint reached validation AUC "
                      f"{info['validation_auc']:.3f} <= "
                      f"{MIN_VALIDATION_AUC}: refusing to benchmark "
                      f"weights that learned nothing")
    return oplog.read(ctx.work / "oplog.jsonl"), info


# ---------------------------------------------------------------------------
# Server-metrics helpers (GET /v1/metrics snapshots or in-process)
# ---------------------------------------------------------------------------
def _entries(snapshots, kind, name, labels=None):
    for snapshot in snapshots:
        for entry in snapshot[kind]:
            if entry["name"] == name and all(
                    entry["labels"].get(k) == v
                    for k, v in (labels or {}).items()):
                yield entry


def hist(snapshots, name, **labels) -> Tuple[int, float]:
    count = total = 0
    for entry in _entries(snapshots, "histograms", name, labels):
        count += entry["data"]["count"]
        total += entry["data"]["sum"]
    return count, total


def counter(snapshots, name, **labels) -> float:
    return sum(e["value"] for e in _entries(snapshots, "counters", name,
                                            labels))


def gauge(snapshots, name) -> float:
    return sum(e["value"] for e in _entries(snapshots, "gauges", name))


def hist_delta(before, after, name, **labels) -> Tuple[int, float]:
    count_a, sum_a = hist(after, name, **labels)
    count_b, sum_b = hist(before, name, **labels)
    return count_a - count_b, sum_a - sum_b


def counter_delta(before, after, name, **labels) -> float:
    return counter(after, name, **labels) - counter(before, name, **labels)


def _ratio(numerator, denominator, scale=1.0) -> float:
    return numerator / denominator * scale if denominator else 0.0


# ---------------------------------------------------------------------------
# Reply checks shared by every oracle
# ---------------------------------------------------------------------------
def _replies(outcome, request) -> Optional[List[dict]]:
    """Per-query wire replies of one outcome (``None``: transport fail)."""
    if outcome.error is not None or outcome.result is None:
        return None
    if isinstance(outcome.result, (bytes, bytearray)):
        payload = json.loads(outcome.result)
        replies = [payload] if request["route"] == "query" \
            else payload.get("replies")
    else:
        from repro.serve import to_wire
        replies = [to_wire(reply) for reply in outcome.result]
    if not isinstance(replies, list) or \
            len(replies) != len(request["queries"]):
        return None
    return replies


def _check_types(verdict: Verdict, log: dict, phase) -> Dict:
    """Fail error values and wrong reply types; return the good replies."""
    good = {}
    for outcome in phase.outcomes:
        request = log["items"][outcome.item]["requests"][outcome.request]
        key = (outcome.item, outcome.request)
        replies = _replies(outcome, request)
        if replies is None:
            for index in range(len(request["queries"])):
                verdict.fail(key, index, "transport",
                             outcome.error or "unreadable reply")
            continue
        for index, (query, reply) in enumerate(zip(request["queries"],
                                                   replies)):
            if reply.get("type") != query["type"] + "_reply":
                verdict.fail(key, index, reply.get("code", "wrong_type"),
                             json.dumps(reply)[:300])
        good[key] = replies
    return good


def _labelled_scores(verdict, log, good) -> None:
    for (item, number), replies in good.items():
        request = log["items"][item]["requests"][number]
        for index, (reply, label) in enumerate(zip(replies,
                                                   request["labels"])):
            if label is not None and \
                    index not in verdict.failed.get((item, number), ()):
                verdict.scored.append((reply["score"], label))


class _Histories:
    """Recorded history per student, replayed from the op log."""

    def __init__(self, setup):
        self.steps: Dict[str, list] = {}
        for request in setup:
            for query in request["queries"]:
                if query["type"] == "record":
                    self.apply(query)

    def apply(self, query) -> int:
        steps = self.steps.setdefault(query["student_id"], [])
        steps.append((query["question_id"], query["correct"],
                      tuple(query["concept_ids"])))
        return len(steps)

    def length(self, student) -> int:
        return len(self.steps.get(student, ()))


# ---------------------------------------------------------------------------
# End-to-end metrics
# ---------------------------------------------------------------------------
def _tail(values, name, warnings, q=TAIL) -> float:
    """The ``q``-th percentile; an unsupported one is reported, flagged."""
    if not values:
        return 0.0
    try:
        return stats.tail(values, q)
    except ValueError as error:
        warnings.append(f"{name}: {error}")
        return stats.percentile(values, q)


def latencies(log, phase, verdict) -> Tuple[List[float], List[float]]:
    """Read and record latencies in ms, one sample per succeeded query.

    A failed query misses every latency limit: it stays in
    ``attempted`` but contributes no sample.
    """
    reads, records = [], []
    for outcome in phase.outcomes:
        request = log["items"][outcome.item]["requests"][outcome.request]
        failed = verdict.failed.get((outcome.item, outcome.request), set())
        for index, query in enumerate(request["queries"]):
            if index not in failed:
                (reads if query["type"] in drive.READ_TYPES
                 else records).append(outcome.latency * 1e3)
    return reads, records


def end_to_end(log, phase, verdict, setups, rss_mb) -> Dict[str, float]:
    reads, _ = latencies(log, phase, verdict)
    labels = [label for _, label in verdict.scored]
    scores = [score for score, _ in verdict.scored]
    return {
        "setup_s": statistics.median(setups),
        "read_p50_ms": statistics.median(reads),
        "throughput_qps": verdict.tally.succeeded / phase.duration,
        "peak_rss_mb": rss_mb,
        "served_auc": stats.auc(labels, scores),
    }


def attempted(log, phase) -> int:
    return sum(len(log["items"][o.item]["requests"][o.request]["queries"])
               for o in phase.outcomes)


def harness(log, phase, verdict, warnings: List[str],
            open_loop: bool) -> Dict[str, float]:
    """Latency breakdowns and load-generator counts of one window."""
    batches = [o.latency * 1e3 for o in phase.outcomes]
    # A closed loop sends when it is due, so it is never late.
    late = [(o.send - o.due) * 1e3 for o in phase.outcomes
            if o.request == 0] if open_loop else []
    recourse = [o.latency * 1e3 for o in phase.outcomes
                if any(q["type"] == "recourse" for q in
                       log["items"][o.item]["requests"][o.request][
                           "queries"])]
    reads, records = latencies(log, phase, verdict)
    return {
        "read_p95_ms": _tail(reads, "read_p95_ms", warnings),
        "record_p50_ms": statistics.median(records) if records else 0.0,
        "record_p95_ms": _tail(records, "record_p95_ms", warnings),
        "batch_p50_ms": statistics.median(batches),
        "batch_p95_ms": _tail(batches, "batch_p95_ms", warnings),
        "recourse_p50_ms": statistics.median(recourse) if recourse else 0.0,
        "error_frac": verdict.tally.error_frac,
        "loadgen.late_p99_ms": _tail(late, "loadgen.late_p99_ms", warnings,
                                     q=99),
        "loadgen.sent": float(verdict.tally.attempted),
        "loadgen.succeeded": float(verdict.tally.succeeded),
        "loadgen.failed": float(verdict.tally.failed),
    }


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------
class Workload:
    """Set-up, measurement and oracle of one workload.

    Subclasses provide ``boot`` (timed as ``setup_s``), ``stop``,
    ``measure``, ``snapshots`` (metric registries before/after the
    window), ``peak_rss`` and ``oracle``.
    """

    name = ""
    open_loop = False

    def __init__(self, ctx: Context, log: dict, info: dict):
        self.ctx = ctx
        self.log = log
        self.info = info
        self.checkpoint = str(ctx.work / "checkpoint.npz")
        self.boots = 0

    def after_run(self, handle) -> dict:
        """Untimed reads from the live program the oracle needs."""
        return {}

    def journal_bytes(self) -> int:
        return 0


class _WireWorkload(Workload):
    """A workload served by a CLI process and driven over HTTP."""

    module = ""

    def _args(self) -> List[str]:
        return ["--checkpoint", self.checkpoint]

    def boot(self):
        self.boots += 1
        server = procs.ServerProcess(
            self.module, self._args(),
            self.ctx.work / f"{self.name}-{self.boots}.log", self.ctx.src,
            interrupt=self.module == "repro.cluster")
        try:
            url = server.wait_ready()
            connection = procs.Connection(url)
            try:
                for request in self.log["setup"]:
                    status, raw = connection.exchange(
                        "POST", "/v1/batch", drive.request_body(request))
                    replies = json.loads(raw).get("replies", [])
                    if status != 200 or any(
                            r.get("type") == "error" for r in replies):
                        raise RuntimeError(f"set-up request refused: "
                                           f"{raw[:300]!r}")
            finally:
                connection.close()
        except BaseException:
            server.stop()
            raise
        return server

    def stop(self, server) -> None:
        server.stop()

    def measure(self, server, tracer=None):
        return drive.drive_wire(server.url, self.log["items"],
                                self.ctx.seconds, self.open_loop,
                                oplog.CONNECTIONS, tracer=tracer)

    def metric_urls(self, server) -> List[str]:
        return [server.url]

    def snapshots(self, server) -> List[dict]:
        return [procs.metrics(url) for url in self.metric_urls(server)]

    def peak_rss(self, server) -> float:
        return procs.peak_rss_mb([server.pid])

    def replay(self, phase, tracer=None):
        """The measured requests again, in-process, in log order.

        A reference :class:`repro.serve.Service` gets the same set-up
        and then every request the window sent; per-student order equals
        the served order because each student is pinned to one
        connection.  Around each request it times the wire codec the
        server runs (decode the body, encode the replies) into
        ``self.codec``.  Yields ``(outcome, replies)``.
        """
        from repro.serve import Service, query_from_wire, to_wire
        from repro.serve.protocol import wire_json_bytes, wire_json_loads
        reference = Service.from_checkpoint(self.checkpoint)
        for request in self.log["setup"]:
            reference.execute_batch(oplog.decoded(request))
        self.codec = {"decode_s": 0.0, "encode_s": 0.0, "queries": 0}
        try:
            with _instrumented(tracer):
                for outcome in phase.outcomes:
                    request = self.log["items"][outcome.item]["requests"][
                        outcome.request]
                    body = drive.request_body(request)
                    started = time.perf_counter()
                    payload = wire_json_loads(body)
                    queries = [query_from_wire(q) for q in
                               ([payload] if request["route"] == "query"
                                else payload["queries"])]
                    decoded = time.perf_counter()
                    with drive._span(tracer,
                                     f"{outcome.item}.{outcome.request}"):
                        replies = reference.execute_batch(queries)
                    encoding = time.perf_counter()
                    for reply in replies:
                        wire_json_bytes(to_wire(reply))
                    self.codec["decode_s"] += decoded - started
                    self.codec["encode_s"] += time.perf_counter() - encoding
                    self.codec["queries"] += len(queries)
                    yield outcome, replies
        finally:
            reference.close()


class GatewayMixed(_WireWorkload):
    name = "gateway_mixed"
    module = "repro.serve"
    open_loop = True

    def oracle(self, phase, after, tracer=None) -> Verdict:
        """Every reply equals an in-process reference ``Service`` fed the
        same per-student operation sequence (exact, as dkt's facade ==
        gateway parity requires).  With a tracer the reference run is
        also the traced in-process replay."""
        from repro.serve import to_wire
        verdict = Verdict()
        verdict.tally.attempted = attempted(self.log, phase)
        good = _check_types(verdict, self.log, phase)
        for outcome, expected in self.replay(phase, tracer):
            key = (outcome.item, outcome.request)
            for index, (ours, theirs) in enumerate(zip(good.get(key, ()),
                                                       expected)):
                if ours != to_wire(theirs):
                    verdict.fail(key, index, "reference_mismatch",
                                 f"{ours} != {to_wire(theirs)}")
        _labelled_scores(verdict, self.log, good)
        return verdict


class ClusterIngest(_WireWorkload):
    name = "cluster_ingest"
    module = "repro.cluster"

    def _args(self) -> List[str]:
        self.journal = self.ctx.work / f"journal-{self.boots}"
        return ["--checkpoint", self.checkpoint, "--shards", "2",
                "--journal-dir", str(self.journal), "--fsync", "batch"]

    def metric_urls(self, server) -> List[str]:
        connection = procs.Connection(server.url)
        try:
            health = connection.get_json("/v1/health")
        finally:
            connection.close()
        return [server.url] + [shard["url"] for shard in health["shards"]]

    def peak_rss(self, server) -> float:
        return procs.peak_rss_mb([server.pid] + procs.children(server.pid))

    def journal_bytes(self) -> int:
        return sum(path.stat().st_size for path in self.journal.rglob("*")
                   if path.is_file())

    def lengths(self, server) -> Dict[str, int]:
        """Served history length of every roster student (untimed)."""
        students = sorted({q["student_id"] for r in self.log["setup"]
                           for q in r["queries"]})
        request = {"route": "batch", "queries": [
            {"type": "score", "v": 2, "student_id": s, "question_id": 1,
             "concept_ids": [1], "model": "default"} for s in students]}
        connection = procs.Connection(server.url)
        try:
            _, raw = connection.exchange("POST", "/v1/batch",
                                         drive.request_body(request))
        finally:
            connection.close()
        return {s: r.get("history_length", -1) for s, r in
                zip(students, json.loads(raw)["replies"])}

    def after_run(self, server) -> dict:
        return {"lengths": self.lengths(server)}

    def oracle(self, phase, after, tracer=None) -> Verdict:
        """Record and score replies carry the expected history lengths,
        every student's served length equals its acknowledged records,
        and a cold journal recovery replays exactly those records."""
        from repro.cluster.journal import RecordJournal
        if tracer is not None:
            for _ in self.replay(phase, tracer):    # timing only
                pass
        verdict = Verdict()
        verdict.tally.attempted = attempted(self.log, phase)
        good = _check_types(verdict, self.log, phase)
        histories = _Histories(self.log["setup"])
        for outcome in phase.outcomes:
            key = (outcome.item, outcome.request)
            request = self.log["items"][outcome.item]["requests"][
                outcome.request]
            replies = good.get(key)
            if replies is None:
                continue
            for index, (query, reply) in enumerate(zip(request["queries"],
                                                       replies)):
                if query["type"] == "record":
                    expected = histories.apply(query)
                else:
                    expected = histories.length(query["student_id"])
                if reply.get("history_length") != expected:
                    verdict.fail(key, index, "history_length",
                                 f"{query['student_id']}: served "
                                 f"{reply.get('history_length')}, "
                                 f"acknowledged {expected}")
        for student, served in after["lengths"].items():
            if served != histories.length(student):
                verdict.tally.fail("final_length",
                                   f"{student}: {served} != "
                                   f"{histories.length(student)}")
        recovered = RecordJournal(directory=self.journal)
        replayed: Dict[str, list] = {}
        for event in recovered.replay_records():
            replayed.setdefault(event.student_id, []).append(
                (event.question_id, event.correct,
                 tuple(event.concept_ids)))
        recovered.close()
        if replayed != histories.steps:
            missing = sum(abs(len(replayed.get(s, ())) - len(steps))
                          for s, steps in histories.steps.items())
            verdict.tally.fail("journal_recovery",
                               f"cold recovery differs from the "
                               f"acknowledged records ({missing} records)")
        _labelled_scores(verdict, self.log, good)
        return verdict


class CohortBatch(Workload):
    name = "cohort_batch"

    def __init__(self, ctx, log, info):
        super().__init__(ctx, log, info)
        self.setup_batches = [oplog.decoded(r) for r in log["setup"]]
        self.batches = [oplog.decoded(item["requests"][0])
                        for item in log["items"]]

    def boot(self):
        from repro import obs
        from repro.serve import InferenceEngine, Service
        # A private registry per boot: the service binds its instruments
        # at construction, so this run's counters start at zero.
        self.registry = obs.MetricsRegistry()
        obs.set_registry(self.registry)
        engine = InferenceEngine.from_checkpoint(
            self.checkpoint,
            stream_cache_bytes=self.info["stream_cache_bytes"])
        service = Service(engine)
        for queries in self.setup_batches:
            service.execute_batch(queries)
        return service

    def stop(self, service) -> None:
        service.close()

    def measure(self, service, tracer=None):
        # In-process, the traced window itself records the layer spans.
        with _instrumented(tracer):
            return drive.drive_inprocess(service.execute_batch,
                                         self.batches, self.ctx.seconds,
                                         tracer=tracer)

    def snapshots(self, service) -> List[dict]:
        return [self.registry.snapshot()]

    def peak_rss(self, service) -> float:
        return procs.peak_rss_mb([os.getpid()])

    def oracle(self, phase, after, tracer=None) -> Verdict:
        """A seeded sample of scores and every recourse path, rescored
        from scratch (``score_targets``, i.e. ``score_batch_targets`` on
        the collated histories) on the history each query saw."""
        import numpy as np
        verdict = Verdict()
        verdict.tally.attempted = attempted(self.log, phase)
        good = _check_types(verdict, self.log, phase)
        histories = _Histories(self.log["setup"])
        rng = np.random.default_rng([self.ctx.seed, 21])
        checks = []     # (key, index, history, probe, served score)
        score_slots = [(o.item, index) for o in phase.outcomes
                       for index, q in enumerate(
                           self.log["items"][o.item]["requests"][0]
                           ["queries"]) if q["type"] == "score"]
        sample = set(map(tuple, rng.permutation(score_slots)[
            :ORACLE_SAMPLE].tolist())) if score_slots else set()
        for outcome in phase.outcomes:
            key = (outcome.item, 0)
            queries = self.log["items"][outcome.item]["requests"][0][
                "queries"]
            replies = good.get(key) or [None] * len(queries)
            # Envelopes list their records first, and the scheduler
            # applies records before any read: one ordered pass.
            for index, (query, reply) in enumerate(zip(queries, replies)):
                if query["type"] == "record":
                    expected = histories.apply(query)
                    if reply is not None and \
                            reply["history_length"] != expected:
                        verdict.fail(key, index, "history_length",
                                     f"{reply} != {expected}")
                    continue
                if reply is None:
                    continue
                history = list(histories.steps.get(query["student_id"], []))
                if query["type"] == "score" and (outcome.item, index) \
                        in sample:
                    checks.append((key, index, history,
                                   self._probe(query), reply["score"]))
                elif query["type"] == "recourse":
                    self._recourse_checks(verdict, key, index, query, reply,
                                          history, checks)
        self._rescore(verdict, checks)
        _labelled_scores(verdict, self.log, good)
        return verdict

    @staticmethod
    def _probe(query):
        return (query["question_id"], tuple(query["concept_ids"]))

    def _recourse_checks(self, verdict, key, index, query, reply, history,
                         checks) -> None:
        final = reply["final_score"]
        if reply["achieved"] != (final >= query["threshold"]) or \
                len(reply["steps"]) > query["max_edits"]:
            verdict.fail(key, index, "recourse_contract",
                         json.dumps(reply)[:300])
            return
        timeline = list(history)
        checks.append((key, index, list(timeline), self._probe(query),
                       reply["baseline_score"]))
        for step in reply["steps"]:
            if step["kind"] == "fix_history":
                question, correct, concepts = timeline[step["position"]]
                if correct != 0:
                    verdict.fail(key, index, "recourse_contract",
                                 "fixed a correct response")
                    return
                timeline[step["position"]] = (question, 1, concepts)
            else:
                timeline.append((step["question_id"], 1,
                                 tuple(step["concept_ids"])))
            checks.append((key, index, list(timeline), self._probe(query),
                           step["score"]))
        verdict.recourse.append((bool(reply["achieved"]),
                                 reply["worlds_scored"],
                                 reply["generations"]))

    def _rescore(self, verdict, checks) -> None:
        import numpy as np
        from repro.core.multi_target import score_targets
        from repro.data import Interaction, StudentSequence
        from repro.serve import InferenceEngine
        from repro.tensor import no_grad
        if not checks:
            return
        model = InferenceEngine.from_checkpoint(self.checkpoint).model
        sequences = []
        for _, _, history, (question, concepts), _ in checks:
            sequence = StudentSequence("oracle")
            for step in history:
                sequence.append(Interaction(*step))
            sequence.append(Interaction(question, 0, concepts))
            sequences.append(sequence)
        with no_grad():
            expected = score_targets(model, sequences,
                                     np.array([len(s) - 1
                                               for s in sequences]))
        for (key, index, _, _, served), truth in zip(checks, expected):
            if abs(served - float(truth)) > TOLERANCE:
                verdict.fail(key, index, "rescore_mismatch",
                             f"served {served!r} vs from-scratch "
                             f"{float(truth)!r}")


WORKLOADS = {cls.name: cls for cls in (GatewayMixed, CohortBatch,
                                       ClusterIngest)}


def _instrumented(tracer):
    """``instrument(tracer)`` when tracing, else a no-op context."""
    return instrument(tracer) if tracer is not None \
        else contextlib.nullcontext()


# ---------------------------------------------------------------------------
# Orchestration
# ---------------------------------------------------------------------------
PER_LAYER = (
    "protocol.decode_us", "protocol.encode_us",
    "http_gateway.handler_ms", "http_gateway.hop_ms",
    "service.batch_ms", "service.batch_size", "service.coalesced_rows",
    "engine.record_us", "engine.forward_calls_per_read",
    "forward_cache.hit_frac", "forward_cache.build_ms_per_student",
    "forward_cache.evictions", "forward_cache.resident_mb",
    "multi_target.score_us_per_row", "multi_target.influence_us_per_row",
    "recourse.worlds_per_search", "recourse.worlds_per_forward_call",
    "recourse.ms_per_world", "recourse.achieved_frac",
    "router.fanout_ms", "router.shards_per_envelope",
    "wal.append_us", "wal.fsync_ms", "wal.fsyncs_per_envelope",
    "wal.bytes_per_record",
    "read_p95_ms", "record_p50_ms", "record_p95_ms", "batch_p50_ms",
    "batch_p95_ms", "recourse_p50_ms", "error_frac", "loadgen.late_p99_ms", "loadgen.sent", "loadgen.succeeded",
    "loadgen.failed", "trace.overhead_pct",
)

PER_LAYER_UNITS = {
    "protocol.decode_us": "us", "protocol.encode_us": "us",
    "http_gateway.handler_ms": "ms", "http_gateway.hop_ms": "ms",
    "service.batch_ms": "ms", "service.batch_size": "count",
    "service.coalesced_rows": "count", "engine.record_us": "us",
    "engine.forward_calls_per_read": "count",
    "forward_cache.hit_frac": "ratio",
    "forward_cache.build_ms_per_student": "ms",
    "forward_cache.evictions": "count", "forward_cache.resident_mb": "MB",
    "multi_target.score_us_per_row": "us",
    "multi_target.influence_us_per_row": "us",
    "recourse.worlds_per_search": "count",
    "recourse.worlds_per_forward_call": "count",
    "recourse.ms_per_world": "ms", "recourse.achieved_frac": "ratio",
    "router.fanout_ms": "ms", "router.shards_per_envelope": "count",
    "wal.append_us": "us", "wal.fsync_ms": "ms",
    "wal.fsyncs_per_envelope": "count", "wal.bytes_per_record": "bytes",
    "read_p95_ms": "ms", "record_p50_ms": "ms", "record_p95_ms": "ms",
    "batch_p50_ms": "ms", "batch_p95_ms": "ms", "recourse_p50_ms": "ms",
    "error_frac": "ratio", "loadgen.late_p99_ms": "ms",
    "loadgen.sent": "count", "loadgen.succeeded": "count",
    "loadgen.failed": "count", "trace.overhead_pct": "%",
}


def run(name: str, ctx: Context, trace: bool) -> dict:
    """One benchmark invocation: fixture, then measure, then check."""
    started = time.perf_counter()
    log, info = prepare(ctx, name)
    info["fixture_seconds"] = time.perf_counter() - started
    workload = WORKLOADS[name](ctx, log, info)
    result = _traced(workload) if trace else _untraced(workload)
    result["fixture"] = info
    return result


def _untraced(workload: Workload) -> dict:
    setups = []
    handle = None
    try:
        for _ in range(SETUP_REPEATS):
            if handle is not None:
                workload.stop(handle)
                handle = None
                gc.collect()
            started = time.perf_counter()
            handle = workload.boot()
            setups.append(time.perf_counter() - started)
        _settle()
        phase = workload.measure(handle)
        rss = workload.peak_rss(handle)
        after = workload.after_run(handle)
    finally:
        if handle is not None:
            workload.stop(handle)
    checking = time.perf_counter()
    verdict = workload.oracle(phase, after)
    workload.info["oracle_seconds"] = time.perf_counter() - checking
    workload.info["setup_seconds"] = setups
    _floors(workload, verdict)
    metrics = end_to_end(workload.log, phase, verdict, setups, rss)
    warnings: List[str] = []
    breakdown = harness(workload.log, phase, verdict, warnings,
                        workload.open_loop)
    return {"tally": verdict.tally, "metrics": metrics,
            "warnings": warnings, "harness": breakdown,
            "units": END_TO_END_UNITS,
            "samples": _sample_counts(workload.log, phase)}


def _traced(workload: Workload) -> dict:
    # Untraced window first: the reference the tracing overhead is
    # measured against.
    handle = workload.boot()
    try:
        _settle()
        plain = workload.measure(handle)
    finally:
        workload.stop(handle)
    gc.collect()
    tracer = Tracer()
    handle = workload.boot()
    try:
        before = workload.snapshots(handle)
        journal_before = workload.journal_bytes()
        _settle()
        phase = workload.measure(handle, tracer=tracer)
        after_snapshots = workload.snapshots(handle)
        journal_after = workload.journal_bytes()
        after = workload.after_run(handle)
    finally:
        workload.stop(handle)
    # Wire workloads time their layers on an in-process replay (run by
    # the oracle); the in-process cohort traced them in the window.
    replay_tracer = Tracer()
    verdict = workload.oracle(phase, after, tracer=replay_tracer)
    plain_verdict = Verdict()
    plain_verdict.tally.attempted = attempted(workload.log, plain)
    _check_types(plain_verdict, workload.log, plain)
    _floors(workload, verdict)
    totals = stage_totals(replay_tracer.spans or tracer.spans)
    metrics = layer_metrics(workload, phase, verdict, before,
                            after_snapshots, totals,
                            journal_after - journal_before)
    warnings: List[str] = []
    metrics.update(harness(workload.log, plain, plain_verdict, warnings,
                           workload.open_loop))
    metrics["trace.overhead_pct"] = 100.0 * (
        statistics.median(o.latency for o in phase.outcomes)
        / statistics.median(o.latency for o in plain.outcomes) - 1.0)
    book = stage_ledger(workload, phase, before, after_snapshots, totals)
    tally = stats.Tally(
        attempted=verdict.tally.attempted + plain_verdict.tally.attempted,
        failed=verdict.tally.failed + plain_verdict.tally.failed,
        reasons={**plain_verdict.tally.reasons, **verdict.tally.reasons},
        examples=plain_verdict.tally.examples + verdict.tally.examples)
    return {"tally": tally, "metrics": metrics, "units": PER_LAYER_UNITS,
            "warnings": warnings, "ledger": book,
            "spans": {"measured": tracer.spans,
                      "replay": replay_tracer.spans},
            "samples": _sample_counts(workload.log, phase)}


def _settle() -> None:
    """Collect, then freeze what survives: the benchmark's own objects
    (operation log, decoded queries) are never rescanned by a garbage
    collection inside the measured window."""
    gc.collect()
    gc.freeze()


def _floors(workload: Workload, verdict: Verdict) -> None:
    if isinstance(workload, CohortBatch) and \
            not any(achieved for achieved, *_ in verdict.recourse):
        raise Refused(f"no recourse search crossed its threshold "
                      f"({len(verdict.recourse)} searches): the "
                      f"threshold-crossing branch went unmeasured")


def _sample_counts(log, phase) -> Dict[str, int]:
    reads = records = 0
    for outcome in phase.outcomes:
        request = log["items"][outcome.item]["requests"][outcome.request]
        for query in request["queries"]:
            if query["type"] in drive.READ_TYPES:
                reads += 1
            else:
                records += 1
    return {"requests": len(phase.outcomes), "reads": reads,
            "records": records}


# ---------------------------------------------------------------------------
# Per-layer metrics and the stage ledger
# ---------------------------------------------------------------------------
def _server_sides(workload, before, after):
    """(front snapshots, service-process snapshots) before and after."""
    if isinstance(workload, ClusterIngest):
        return (before[:1], after[:1]), (before[1:], after[1:])
    return (before, after), (before, after)


def _front_endpoint(workload) -> str:
    return "/v1/query" if isinstance(workload, GatewayMixed) \
        else "/v1/batch"


def layer_metrics(workload, phase, verdict, before, after, totals,
                  journal_bytes) -> Dict[str, float]:
    from repro.obs import names
    metrics = {name: 0.0 for name in PER_LAYER}
    counts = _sample_counts(workload.log, phase)
    requests = counts["requests"]
    (front_b, front_a), (back_b, back_a) = _server_sides(workload, before,
                                                         after)

    codec = getattr(workload, "codec", None)
    if codec:
        metrics["protocol.decode_us"] = _ratio(codec["decode_s"],
                                               codec["queries"], 1e6)
        metrics["protocol.encode_us"] = _ratio(codec["encode_s"],
                                               codec["queries"], 1e6)
    if not isinstance(workload, CohortBatch):
        handled, handler_s = hist_delta(front_b, front_a,
                                        names.HTTP_REQUEST_SECONDS,
                                        endpoint=_front_endpoint(workload))
        exchange = sum(o.done - o.send for o in phase.outcomes)
        metrics["http_gateway.handler_ms"] = _ratio(handler_s, handled, 1e3)
        metrics["http_gateway.hop_ms"] = _ratio(exchange - handler_s,
                                                requests, 1e3)

    batches, batch_s = hist_delta(back_b, back_a,
                                  names.SERVICE_BATCH_SECONDS)
    sized, size_sum = hist_delta(back_b, back_a, names.SERVICE_BATCH_SIZE)
    metrics["service.batch_ms"] = _ratio(batch_s, batches, 1e3)
    metrics["service.batch_size"] = _ratio(size_sum, sized)
    metrics["service.coalesced_rows"] = _ratio(counter_delta(
        back_b, back_a, names.SERVICE_COALESCED_READS_TOTAL), batches)

    def per_call(stage, scale, by="calls"):
        entry = totals.get(stage)
        return _ratio(entry["total_s"], entry[by], scale) if entry else 0.0

    metrics["engine.record_us"] = per_call("engine.record", 1e6)
    metrics["engine.forward_calls_per_read"] = _ratio(counter_delta(
        back_b, back_a, names.ENGINE_FORWARD_CALLS_TOTAL), counts["reads"])
    hits = counter_delta(back_b, back_a, names.STREAM_CACHE_HITS_TOTAL)
    misses = counter_delta(back_b, back_a, names.STREAM_CACHE_MISSES_TOTAL)
    metrics["forward_cache.hit_frac"] = _ratio(hits, hits + misses)
    metrics["forward_cache.build_ms_per_student"] = per_call(
        "forward_cache.build", 1e3, by="items")
    metrics["forward_cache.evictions"] = counter_delta(
        back_b, back_a, names.STREAM_CACHE_EVICTIONS_TOTAL)
    metrics["forward_cache.resident_mb"] = gauge(
        back_a, names.STREAM_CACHE_RESIDENT_BYTES) / 2 ** 20
    metrics["multi_target.score_us_per_row"] = per_call(
        "multi_target.score", 1e6, by="items")
    metrics["multi_target.influence_us_per_row"] = per_call(
        "multi_target.influence", 1e6, by="items")

    searches = verdict.recourse
    if searches:
        worlds = sum(w for _, w, _ in searches)
        metrics["recourse.worlds_per_search"] = worlds / len(searches)
        metrics["recourse.worlds_per_forward_call"] = _ratio(
            worlds, sum(g for _, _, g in searches))
        metrics["recourse.ms_per_world"] = _ratio(
            totals["recourse"]["total_s"], worlds, 1e3)
        metrics["recourse.achieved_frac"] = sum(
            a for a, *_ in searches) / len(searches)

    if isinstance(workload, ClusterIngest):
        fanned, fanout_s = hist_delta(front_b, front_a,
                                      names.ROUTER_FANOUT_SECONDS)
        appended, append_s = hist_delta(front_b, front_a,
                                        names.WAL_APPEND_SECONDS)
        synced, fsync_s = hist_delta(front_b, front_a,
                                     names.WAL_FSYNC_SECONDS)
        metrics["router.fanout_ms"] = _ratio(fanout_s, fanned, 1e3)
        metrics["router.shards_per_envelope"] = _ratio(fanned, requests)
        metrics["wal.append_us"] = _ratio(append_s, appended, 1e6)
        metrics["wal.fsync_ms"] = _ratio(fsync_s, synced, 1e3)
        metrics["wal.fsyncs_per_envelope"] = _ratio(synced, requests)
        metrics["wal.bytes_per_record"] = _ratio(journal_bytes,
                                                 counts["records"])
    return metrics


def _service_stages(totals, scale=1.0) -> List[tuple]:
    """Service-internal self times from the in-process replay.

    Absolute replay seconds (times ``scale``), not shares of the
    server's own service time: where the server spent more or less than
    the replay of the same requests, the ledger's ``unattributed`` row
    shows the difference instead of hiding it.
    """
    return [(stage, totals[stage]["self_s"] * scale,
             "in-process replay, traced entry points")
            for stage in SERVICE_STAGES if stage in totals]


def stage_ledger(workload, phase, before, after, totals) -> dict:
    """Per-stage self time and share of the summed request latency."""
    from repro.obs import names
    total = sum(o.latency for o in phase.outcomes)
    if isinstance(workload, CohortBatch):
        return ledger(total, [(stage, totals[stage]["self_s"], "traced span")
                              for stage in SERVICE_STAGES
                              if stage in totals])
    (front_b, front_a), (back_b, back_a) = _server_sides(workload, before,
                                                         after)
    exchange = sum(o.done - o.send for o in phase.outcomes)
    late = sum(o.send - o.due for o in phase.outcomes)
    _, handler_s = hist_delta(front_b, front_a, names.HTTP_REQUEST_SECONDS,
                              endpoint=_front_endpoint(workload))
    codec_s = workload.codec["decode_s"] + workload.codec["encode_s"]
    if isinstance(workload, GatewayMixed):
        _, service_s = hist_delta(back_b, back_a,
                                  names.SERVICE_BATCH_SECONDS)
        stages = [
            ("loadgen.late", late, "client timestamps (send - due)"),
            ("http_gateway.hop", exchange - handler_s,
             "client exchange - server http_request_seconds"),
            ("protocol", codec_s, "in-process replay of the requests"),
            ("http_gateway.handler", handler_s - service_s - codec_s,
             "http_request_seconds - service_batch_seconds - protocol"),
        ]
        return ledger(total, stages + _service_stages(totals))
    # Cluster: per-shard work runs concurrently, so shard sums are
    # divided by the shards an envelope fans out to (a mean-shard path).
    fanned, fanout_s = hist_delta(front_b, front_a,
                                  names.ROUTER_FANOUT_SECONDS)
    width = max(1.0, _ratio(fanned, len(phase.outcomes)))
    _, append_s = hist_delta(front_b, front_a, names.WAL_APPEND_SECONDS)
    _, fsync_s = hist_delta(front_b, front_a, names.WAL_FSYNC_SECONDS)
    _, worker_s = hist_delta(back_b, back_a, names.HTTP_REQUEST_SECONDS,
                             endpoint="/v1/batch")
    _, service_s = hist_delta(back_b, back_a, names.SERVICE_BATCH_SECONDS)
    wal_s = (append_s + fsync_s) / width
    fanout_s, worker_s, service_s = (fanout_s / width, worker_s / width,
                                     service_s / width)
    stages = [
        ("http_gateway.hop", exchange - handler_s,
         "client exchange - router http_request_seconds"),
        ("router", handler_s - fanout_s - wal_s,
         "router http_request_seconds - fan-out - WAL"),
        ("wal", wal_s, "wal_append_seconds + wal_fsync_seconds"),
        ("router.hop", fanout_s - worker_s,
         "router_fanout_seconds - worker http_request_seconds"),
        ("protocol", codec_s, "in-process replay of the requests"),
        ("http_gateway.handler", worker_s - service_s - codec_s,
         "worker http_request_seconds - service_batch_seconds - "
         "protocol"),
    ]
    return ledger(total, stages + _service_stages(totals, 1.0 / width))
