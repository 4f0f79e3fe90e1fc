"""Instrumented-stack coverage: the serving hot paths emit the series
``docs/OBSERVABILITY.md`` catalogues, increments survive concurrency,
and the gateway surfaces everything at ``/v1/metrics``.
"""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro import obs
from repro.core import RCKT, RCKTConfig
from repro.data import SimulationConfig, StudentSimulator, build_dataset
from repro.obs import names as metric_names
from repro.serve import (BatchEnvelope, CandidateQuestion, ExplainQuery,
                         HistoryEdit, InferenceEngine, InvalidQuestion,
                         RecommendQuery, RecordEvent, RecourseQuery,
                         RecourseSearch, ScoreQuery, Service, ServiceClient,
                         WhatIfQuery, start_http_thread, to_wire)
from repro.serve import service as service_module

NUM_QUESTIONS = 25
NUM_CONCEPTS = 4


def build_service():
    """A small service wired to a *fresh* registry (callers swap it in
    before construction so instrument handles bind to it)."""
    config = SimulationConfig(num_students=3, num_questions=NUM_QUESTIONS,
                              num_concepts=NUM_CONCEPTS,
                              sequence_length=(5, 8))
    simulator = StudentSimulator(config, seed=11)
    dataset = build_dataset("obs", simulator.simulate(seed=12),
                            NUM_QUESTIONS, NUM_CONCEPTS)
    model = RCKT(NUM_QUESTIONS, NUM_CONCEPTS,
                 RCKTConfig(encoder="dkt", dim=8, layers=1, seed=3))
    engine = InferenceEngine(model)
    engine.load_dataset(dataset)
    return Service(engine), dataset


@pytest.fixture()
def isolated(request):
    """Swap in a fresh registry, build the stack, restore afterwards."""
    registry = obs.MetricsRegistry()
    previous = obs.set_registry(registry)
    service, dataset = build_service()

    def teardown():
        service.close()
        obs.set_registry(previous)

    request.addfinalizer(teardown)
    return registry, service, dataset


class TestServiceInstrumentation:
    def test_batch_emits_every_scheduler_series(self, isolated):
        registry, service, dataset = isolated
        students = [s.student_id for s in dataset]
        queries = [ScoreQuery(sid, 1 + i % NUM_QUESTIONS, (1,))
                   for i, sid in enumerate(students)]
        queries.append(RecordEvent(students[0], 2, 1, (1,)))
        replies = service.execute_batch(BatchEnvelope(tuple(queries)))
        assert all(r.ok for r in replies if hasattr(r, "ok"))

        snap = registry.snapshot()
        counters = {(e["name"], tuple(sorted(e["labels"].items()))):
                    e["value"] for e in snap["counters"]}
        assert counters[(metric_names.SERVICE_REQUESTS_TOTAL,
                         (("type", "score"),))] == len(students)
        assert counters[(metric_names.SERVICE_REQUESTS_TOTAL,
                         (("type", "record"),))] == 1
        histograms = {e["name"] for e in snap["histograms"]}
        assert metric_names.SERVICE_BATCH_SECONDS in histograms
        assert metric_names.SERVICE_BATCH_SIZE in histograms
        assert metric_names.SERVICE_QUERY_SECONDS in histograms
        # The engine hot path reported too.
        assert registry.counter_total(
            metric_names.ENGINE_FORWARD_CALLS_TOTAL) >= 1

    def test_stream_cache_counters_mirror_store_stats(self, isolated):
        registry, service, dataset = isolated
        student = dataset[0].student_id
        for _ in range(3):
            service.execute(ScoreQuery(student, 1, (1,)))
        stats = service.engine().stream_cache_stats()
        assert registry.counter_total(
            metric_names.STREAM_CACHE_HITS_TOTAL) == stats["hits"]
        assert registry.counter_total(
            metric_names.STREAM_CACHE_MISSES_TOTAL) == stats["misses"]

    def test_concurrent_batches_lose_no_increments(self, isolated):
        """N request threads through ``Service.execute_batch``: the
        per-type counter equals exactly the number of admitted queries."""
        registry, service, dataset = isolated
        students = [s.student_id for s in dataset]
        threads_n, per_thread = 8, 25
        failures = []

        def hammer(worker_index):
            for i in range(per_thread):
                student = students[(worker_index + i) % len(students)]
                reply = service.execute(
                    ScoreQuery(student, 1 + i % NUM_QUESTIONS, (1,)))
                if not getattr(reply, "ok", False):
                    failures.append(reply)

        threads = [threading.Thread(target=hammer, args=(n,))
                   for n in range(threads_n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not failures
        total = threads_n * per_thread
        assert registry.counter_total(
            metric_names.SERVICE_REQUESTS_TOTAL) == total
        batch_size = registry.histogram(metric_names.SERVICE_BATCH_SIZE,
                                        buckets=obs.SIZE_BUCKETS)
        batch_seconds = registry.histogram(
            metric_names.SERVICE_BATCH_SECONDS)
        assert batch_size.count == batch_seconds.count == total
        snap = batch_seconds.snapshot()
        assert sum(c for _, c in snap["buckets"]) + snap["overflow"] \
            == snap["count"]

    def test_each_query_is_charged_until_its_own_reply(self, isolated,
                                                       monkeypatch):
        """A fake clock advanced only by each stage's work: a query's
        latency is its group's start to its own slot, not the group's
        end, so a score does not read at recourse latency."""
        registry, service, dataset = isolated
        engine = service.engine()
        now = [0.0]

        def advancing(owner, name, seconds):
            original = getattr(owner, name)

            def run(*args, **kwargs):
                now[0] += seconds
                return original(*args, **kwargs)
            monkeypatch.setattr(owner, name, run)

        advancing(engine, "record", 1.0)                 # each record
        advancing(engine, "score_rows", 10.0)            # each scoring call
        advancing(service_module, "recommend_values", 100.0)  # value worlds
        advancing(RecourseSearch, "run", 1000.0)         # recourse search
        first, second, third = (s.student_id for s in dataset)
        batch = [
            ScoreQuery(first, 1, (1,)),
            RecordEvent(second, 2, 1, (1,)),
            RecommendQuery(first, (CandidateQuestion(3, (1,)),)),
            RecourseQuery(first, 4, (2,), threshold=0.99, max_edits=1,
                          beam_width=1,
                          candidates=(CandidateQuestion(5, (1,)),)),
            ExplainQuery(third),
            RecordEvent(second, 6, 0, (2,)),
        ]
        previous = obs.set_clock(lambda: now[0])
        try:
            replies = service.execute_batch(batch)
        finally:
            obs.set_clock(previous)
        assert all(reply.ok for reply in replies), replies

        def charged(query_type):
            histogram = registry.histogram(
                metric_names.SERVICE_QUERY_SECONDS, type=query_type)
            return histogram.count, histogram.snapshot()["sum"]

        # Score and explain reply at the shared flush (records, then one
        # scoring call); recommend and recourse after their worlds, each
        # of which scores through one more call.
        assert charged("record") == (2, 1.0 + 2.0)
        assert charged("score") == (1, 12.0)
        assert charged("explain") == (1, 12.0)
        assert charged("recommend") == (1, 122.0)
        assert charged("recourse") == (1, 1132.0)

    def test_coalesced_reads_count_rows_not_queries(self, isolated):
        """``service_coalesced_reads_total`` counts the rows of the
        shared flush: a what-if adds two, a recommend one per candidate,
        a rejected query none, and hypothetical worlds scored after the
        flush are not rows of it."""
        registry, service, dataset = isolated
        first, second, third = (s.student_id for s in dataset)
        replies = service.execute_batch([
            ScoreQuery(first, 1, (1,)),                             # 1
            ExplainQuery(second),                                   # 1
            WhatIfQuery(third, 2, (1,), (HistoryEdit(0, "flip"),)),  # 2
            RecommendQuery(first, (CandidateQuestion(3, (1,)),
                                   CandidateQuestion(4, (2,)))),    # 2
            RecourseQuery(second, 4, (2,), threshold=0.99,
                          max_edits=1, beam_width=1,
                          candidates=(CandidateQuestion(5, (1,)),)),  # 1
            ScoreQuery(third, NUM_QUESTIONS + 1, (1,)),             # 0
        ])
        assert all(reply.ok for reply in replies[:5]), replies
        assert isinstance(replies[5], InvalidQuestion)
        assert registry.counter_total(
            metric_names.SERVICE_COALESCED_READS_TOTAL) == 7

    def test_every_scoring_call_counts_one_forward_pass(self, isolated):
        """``engine_forward_calls_total`` counts one pass per scoring
        call, whatever rows it holds: an explain-only flush counts one,
        like a score-only or a mixed flush; a batch of records scores
        nothing and counts none."""
        registry, service, dataset = isolated
        first, second, _ = (s.student_id for s in dataset)

        def passes():
            return registry.counter_total(
                metric_names.ENGINE_FORWARD_CALLS_TOTAL)

        assert service.execute(ExplainQuery(first)).ok
        assert passes() == 1
        assert service.execute(ScoreQuery(first, 1, (1,))).ok
        assert passes() == 2
        replies = service.execute_batch([ExplainQuery(first),
                                         ExplainQuery(second),
                                         ScoreQuery(second, 2, (1,))])
        assert all(reply.ok for reply in replies)
        assert passes() == 3
        assert service.execute(RecordEvent(first, 3, 1, (1,))).ok
        assert passes() == 3

    def test_disabled_registry_answers_bit_identically(self):
        """Telemetry never touches a reply: a ``Service`` built and run
        under a disabled registry (every instrument the shared no-op)
        answers a mixed envelope exactly as one under an enabled
        registry, records and every read type included."""
        answers = {}
        for enabled in (True, False):
            previous = obs.set_registry(obs.MetricsRegistry(enabled=enabled))
            try:
                service, dataset = build_service()
                first, second, third = (s.student_id for s in dataset)
                candidates = (CandidateQuestion(3, (1,)),
                              CandidateQuestion(5, (2,)))
                replies = service.execute_batch([
                    RecordEvent(second, 2, 1, (1,)),
                    ScoreQuery(first, 1, (1,)),
                    ExplainQuery(second),
                    WhatIfQuery(third, 2, (1,), (HistoryEdit(0, "flip"),)),
                    RecommendQuery(first, candidates, horizon=2),
                    RecourseQuery(third, 4, (2,), threshold=0.99,
                                  max_edits=2, beam_width=2,
                                  candidates=candidates),
                    ScoreQuery(second, 6, (3,)),
                ])
                answers[enabled] = [to_wire(reply) for reply in replies]
                service.close()
            finally:
                obs.set_registry(previous)
        assert all(answer.get("type") != "error"
                   for answer in answers[True]), answers[True]
        assert answers[False] == answers[True]


class TestGatewaySurface:
    @pytest.fixture()
    def stack(self, isolated):
        registry, service, dataset = isolated
        server, thread = start_http_thread(service)
        client = ServiceClient(
            f"http://127.0.0.1:{server.server_port}", timeout=10.0)
        yield registry, server, client, dataset
        server.shutdown()

    def test_metrics_json_and_prometheus(self, stack, capsys):
        """Three wire scores give every core series live data — in the
        JSON snapshot, in the Prometheus text and in the tables
        ``python -m repro.obs`` renders from the same endpoint."""
        from repro.obs.__main__ import main as obs_main

        registry, server, client, dataset = stack
        student = dataset[0].student_id
        for question in (5, 7, 9):
            assert client.execute(ScoreQuery(student, question, (1,))).ok

        snapshot = client.metrics()
        assert snapshot["role"] == "gateway"
        totals = {}
        for entry in snapshot["counters"]:
            totals[entry["name"]] = totals.get(entry["name"], 0) \
                + entry["value"]
        for entry in snapshot["histograms"]:
            totals[entry["name"]] = totals.get(entry["name"], 0) \
                + entry["data"]["count"]
        for name in (metric_names.SERVICE_REQUESTS_TOTAL,
                     metric_names.HTTP_REQUESTS_TOTAL,
                     metric_names.STREAM_CACHE_HITS_TOTAL,
                     metric_names.SERVICE_BATCH_SECONDS,
                     metric_names.SERVICE_QUERY_SECONDS,
                     metric_names.HTTP_REQUEST_SECONDS):
            assert totals.get(name, 0) > 0, (name, totals)
        endpoint_counts = {
            e["labels"]["endpoint"]: e["value"]
            for e in snapshot["counters"]
            if e["name"] == metric_names.HTTP_REQUESTS_TOTAL}
        assert endpoint_counts["/v1/query"] == 3

        text = client.metrics_text()
        assert "# TYPE http_request_seconds histogram" in text
        assert "# TYPE service_batch_seconds histogram" in text
        assert 'http_requests_total{endpoint="/v1/query"} 3' in text
        assert 'service_requests_total{type="score"} 3' in text

        assert obs_main(
            ["--url", f"http://127.0.0.1:{server.server_port}"]) == 0
        rows = [line.split()
                for line in capsys.readouterr().out.splitlines()]
        assert ["counter", "labels", "value"] in rows
        assert ["histogram", "labels", "count", "p50", "p95", "p99",
                "max"] in rows
        assert [metric_names.SERVICE_REQUESTS_TOTAL, "type=score",
                "3"] in rows

    def test_batch_mints_and_echoes_a_request_id(self, stack):
        registry, server, client, dataset = stack
        student = dataset[0].student_id
        envelope = BatchEnvelope((ScoreQuery(student, 1, (1,)),))
        from repro.serve import to_wire
        body = json.dumps(to_wire(envelope)).encode()
        request = urllib.request.Request(
            f"http://127.0.0.1:{server.server_port}/v1/batch", data=body,
            headers={"Content-Type": "application/json"})
        with urllib.request.urlopen(request, timeout=10.0) as response:
            request_id = response.headers.get("X-Request-Id")
            payload = json.loads(response.read())
        assert payload["replies"]
        assert request_id and request_id.startswith("req-")
        # The span log ties the same ID to the gateway.batch stage.
        spans = client.metrics()["spans"]
        assert {"name": "gateway.batch", "request_id": request_id} \
            in [{"name": s["name"], "request_id": s["request_id"]}
                for s in spans]

    def test_caller_supplied_request_id_is_honored(self, stack):
        registry, server, client, dataset = stack
        student = dataset[0].student_id
        envelope = BatchEnvelope((ScoreQuery(student, 1, (1,)),),
                                 request_id="rt-00000077")
        replies = client.execute_batch(envelope)
        assert replies[0].ok
        spans = client.metrics()["spans"]
        assert any(s["request_id"] == "rt-00000077" for s in spans)

    def test_health_reports_uptime_and_cache_occupancy(self, stack):
        registry, server, client, dataset = stack
        student = dataset[0].student_id
        assert client.execute(ScoreQuery(student, 1, (1,))).ok
        health = client.health()
        assert health["status"] == "ok"
        assert health["uptime_s"] >= 0.0
        assert health["served_requests"] >= 1
        caches = health["stream_caches"]["default"]
        assert {"entries", "hits", "misses"} <= set(caches)

    def test_unknown_endpoint_label_is_bounded(self, stack):
        registry, server, client, dataset = stack
        request = urllib.request.Request(
            f"http://127.0.0.1:{server.server_port}/v1/nope")
        try:
            urllib.request.urlopen(request, timeout=10.0)
        except urllib.error.HTTPError as error:
            assert error.code == 404
        snapshot = client.metrics()
        labels = {e["labels"]["endpoint"]
                  for e in snapshot["counters"]
                  if e["name"] == metric_names.HTTP_ERRORS_TOTAL}
        assert labels == {"other"}
