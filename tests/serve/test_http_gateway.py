"""The HTTP/JSON gateway: wire parity, taxonomy statuses, plumbing."""

import json
import sys
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core import RCKT, RCKTConfig
from repro.data import (SimulationConfig, StudentSimulator, build_dataset)
from repro.serve import (PROTOCOL_VERSION, BatchEnvelope,
                         CandidateQuestion, EmptyHistory, ExplainQuery,
                         HistoryEdit, InferenceEngine, InvalidConcept,
                         InvalidEdit, InvalidQuestion, MalformedQuery,
                         ModelNotLoaded, RecommendQuery, RecordEvent,
                         RecourseQuery, ScoreQuery, Service, ServiceClient,
                         UnknownStudent, WhatIfQuery, start_http_thread,
                         to_wire)
from repro.serve.http_gateway import HEALTH_TIMEOUT, MAX_BODY_BYTES

NUM_QUESTIONS = 30
NUM_CONCEPTS = 5
ATOL = 1e-10


@pytest.fixture(scope="module")
def dataset():
    config = SimulationConfig(num_students=4, num_questions=NUM_QUESTIONS,
                              num_concepts=NUM_CONCEPTS,
                              sequence_length=(5, 10))
    simulator = StudentSimulator(config, seed=23)
    return build_dataset("http", simulator.simulate(seed=24),
                         NUM_QUESTIONS, NUM_CONCEPTS)


@pytest.fixture(scope="module")
def stack(dataset):
    model = RCKT(NUM_QUESTIONS, NUM_CONCEPTS,
                 RCKTConfig(encoder="dkt", dim=8, layers=1, seed=5))
    engine = InferenceEngine(model)
    engine.load_dataset(dataset)
    service = Service(engine)
    server, thread = start_http_thread(service)
    client = ServiceClient(f"http://127.0.0.1:{server.server_port}",
                           timeout=10.0)
    yield engine, service, server, client
    server.shutdown()
    service.close()


def raw_post(server, route, body: bytes):
    """(status, decoded JSON) for a raw request body."""
    request = urllib.request.Request(
        f"http://127.0.0.1:{server.server_port}{route}", data=body,
        headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request, timeout=10.0) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


class TestWireParity:
    def test_score_matches_in_process_facade(self, stack, dataset):
        engine, service, _, client = stack
        for sequence in dataset:
            query = ScoreQuery(sequence.student_id,
                               1 + len(sequence) % NUM_QUESTIONS, (2,))
            wire = client.execute(query)
            local = service.execute(query)
            assert wire.ok
            assert abs(wire.score - local.score) < ATOL
            assert wire.model == "default"

    def test_explain_round_trip(self, stack, dataset):
        _, service, _, client = stack
        student = next(s for s in dataset if len(s) >= 6).student_id
        wire = client.execute(ExplainQuery(student))
        local = service.execute(ExplainQuery(student))
        assert abs(wire.score - local.score) < ATOL
        assert len(wire.influences) == len(local.influences)
        for a, b in zip(wire.influences, local.influences):
            assert a.position == b.position
            assert abs(a.influence - b.influence) < ATOL

    def test_what_if_round_trip(self, stack, dataset):
        _, service, _, client = stack
        student = next(s for s in dataset if len(s) >= 6).student_id
        query = WhatIfQuery(student, 9, (1,),
                            (HistoryEdit(0, "flip"),
                             HistoryEdit(2, "remove")))
        wire = client.execute(query)
        local = service.execute(query)
        assert abs(wire.score - local.score) < ATOL
        assert abs(wire.baseline_score - local.baseline_score) < ATOL

    def test_record_and_batch_round_trip(self, stack, dataset):
        engine, _, _, client = stack
        replies = client.execute_batch(BatchEnvelope((
            RecordEvent("wire-student", 3, 1, (2,)),
            RecordEvent("wire-student", 5, 0, (1,)),
            ScoreQuery("wire-student", 7, (3,)),
            RecommendQuery("wire-student",
                           (CandidateQuestion(4, (1,)),
                            CandidateQuestion(9, (2,)))),
        )))
        assert [reply.ok for reply in replies] == [True] * 4
        assert replies[1].history_length == 2
        direct = engine.service.execute(
            ScoreQuery("wire-student", 7, (3,)))
        assert abs(replies[2].score - direct.score) < ATOL
        assert len(replies[3].items) == 2

    def test_health_and_models(self, stack):
        client = stack[3]
        health = client.health()
        assert health["status"] == "ok"
        assert health["protocol"] == PROTOCOL_VERSION
        assert health["models"] == ["default"]
        capabilities = health["capabilities"]
        assert capabilities["protocol_versions"] == [1, 2]
        assert "recourse" in capabilities["query_types"]
        assert "recourse" not in \
            capabilities["query_types_by_version"]["1"]
        models = client.models()["models"]
        assert models[0]["num_questions"] == NUM_QUESTIONS


class TestTaxonomyOverHTTP:
    """Every structured error is constructible through the gateway,
    with its documented HTTP status and the same payload the facade
    returns in process."""

    CASES = [
        (ScoreQuery("amy", 9999, (1,)), InvalidQuestion, 400),
        (ScoreQuery("amy", 3, (999,)), InvalidConcept, 400),
        (ScoreQuery("amy", 3, ()), InvalidConcept, 400),
        (ExplainQuery("nobody"), UnknownStudent, 404),
        (WhatIfQuery("nobody", 3, (1,), (HistoryEdit(0, "flip"),)),
         UnknownStudent, 404),
        (RecommendQuery("nobody", (CandidateQuestion(3, (1,)),)),
         EmptyHistory, 409),
        (ScoreQuery("amy", 3, (1,), model="missing"), ModelNotLoaded, 503),
        (RecordEvent("amy", 3, 7, (1,)), MalformedQuery, 400),
    ]

    @pytest.mark.parametrize("query,error_cls,status", CASES,
                             ids=lambda v: getattr(v, "__name__", None))
    def test_error_statuses_and_payloads(self, stack, query, error_cls,
                                         status):
        _, service, server, client = stack
        http_status, payload = raw_post(server, "/v1/query",
                                        json.dumps(to_wire(query))
                                        .encode())
        assert http_status == status
        assert payload["type"] == "error"
        assert payload["code"] == error_cls.code
        local = service.execute(query)
        assert isinstance(local, error_cls)
        assert payload["message"] == local.message

    def test_invalid_edit_over_http(self, stack, dataset):
        _, _, server, _ = stack
        student = list(dataset)[0].student_id
        query = WhatIfQuery(student, 3, (1,), (HistoryEdit(99, "flip"),))
        status, payload = raw_post(server, "/v1/query",
                                   json.dumps(to_wire(query)).encode())
        assert status == InvalidEdit.http_status == 400
        assert payload["code"] == "invalid_edit"

    def test_batch_carries_per_query_errors_with_200(self, stack,
                                                     dataset):
        _, _, server, _ = stack
        student = list(dataset)[0].student_id
        body = json.dumps(to_wire(BatchEnvelope((
            ScoreQuery(student, 9999, (1,)),
            ScoreQuery(student, 3, (1,)),
        )))).encode()
        status, payload = raw_post(server, "/v1/batch", body)
        assert status == 200
        assert payload["type"] == "batch_reply"
        assert payload["replies"][0]["code"] == "invalid_question"
        assert payload["replies"][1]["type"] == "score_reply"


class TestGatewayPlumbing:
    def test_malformed_json_is_400(self, stack):
        _, _, server, _ = stack
        status, payload = raw_post(server, "/v1/query", b"{not json")
        assert status == 400 and payload["code"] == "malformed_query"

    @pytest.mark.parametrize("body", [
        b'{"v": 1, "type": "score", "student_id": ' + b"7" * 4301 + b"}",
        b'{"v": 1, "type": "score", "student_id": "\xff"}',
    ], ids=["over_4300_digit_int", "invalid_utf8"])
    def test_undecodable_body_is_400(self, stack, body):
        """``json.loads`` raises a plain ValueError or a
        UnicodeDecodeError here, not JSONDecodeError; both must still be
        answered (and counted), not drop the connection."""
        from repro.obs import names as metric_names
        _, _, server, _ = stack
        requests = server.obs_registry.counter_total(
            metric_names.HTTP_REQUESTS_TOTAL)
        for route in ("/v1/query", "/v1/batch"):
            status, payload = raw_post(server, route, body)
            assert status == 400 and payload["code"] == "malformed_query"
            assert "not valid JSON" in payload["message"]
        # The handler counts a request after writing its reply, so the
        # last increment can land just after the client has the reply.
        deadline = time.monotonic() + 10.0
        while server.obs_registry.counter_total(
                metric_names.HTTP_REQUESTS_TOTAL) < requests + 2 \
                and time.monotonic() < deadline:
            time.sleep(0.01)
        assert server.obs_registry.counter_total(
            metric_names.HTTP_REQUESTS_TOTAL) == requests + 2

    def test_empty_body_is_400(self, stack):
        _, _, server, _ = stack
        status, payload = raw_post(server, "/v1/query", b"")
        assert status == 400 and payload["code"] == "malformed_query"

    def test_unknown_query_type_is_400(self, stack):
        _, _, server, _ = stack
        status, payload = raw_post(server, "/v1/query",
                                   b'{"v": 1, "type": "teleport"}')
        assert status == 400 and payload["code"] == "unknown_query_type"

    def test_unknown_route_is_404(self, stack):
        _, _, server, _ = stack
        status, payload = raw_post(server, "/v1/nope", b"{}")
        assert status == 404
        with pytest.raises(urllib.error.HTTPError) as error:
            urllib.request.urlopen(
                f"http://127.0.0.1:{server.server_port}/nope", timeout=10)
        assert error.value.code == 404

    def test_rejected_body_closes_the_connection(self, stack, dataset):
        """A request bounced before its body is read must not leave
        body bytes on a kept-alive socket to be parsed as the next
        request line."""
        import http.client
        _, _, server, _ = stack
        connection = http.client.HTTPConnection(
            "127.0.0.1", server.server_port, timeout=10)
        oversized = b"x" * 64
        connection.request(
            "POST", "/v1/query", body=oversized,
            headers={"Content-Type": "application/json",
                     "Content-Length": str(MAX_BODY_BYTES + 1)})
        response = connection.getresponse()
        assert response.status == 400
        assert json.loads(response.read())["code"] == "malformed_query"
        # The server closed this connection instead of reading the
        # (undelivered) body; a reuse attempt fails cleanly rather than
        # desyncing into a bogus 501.
        with pytest.raises((http.client.HTTPException, OSError)):
            connection.request("POST", "/v1/query", body=b"{}")
            connection.getresponse()
        connection.close()

    def test_ill_typed_wire_payload_is_structured_error(self, stack):
        _, _, server, _ = stack
        status, payload = raw_post(
            server, "/v1/query",
            b'{"v": 1, "type": "score", "student_id": "amy", '
            b'"question_id": "seven", "concept_ids": [1]}')
        assert status == 400
        assert payload["code"] == "invalid_question"
        assert "integer" in payload["message"]

    def test_concurrent_wire_scores_are_consistent(self, stack, dataset):
        """Thread-per-connection requests against one scheduler."""
        from concurrent.futures import ThreadPoolExecutor
        _, service, _, client = stack
        students = [s.student_id for s in dataset]
        queries = [ScoreQuery(students[k % len(students)],
                              1 + k % NUM_QUESTIONS, (1 + k % 4,))
                   for k in range(12)]
        with ThreadPoolExecutor(max_workers=6) as pool:
            wire_scores = list(pool.map(
                lambda q: client.execute(q).score, queries))
        local = [service.execute(q).score for q in queries]
        np.testing.assert_allclose(wire_scores, local, rtol=0, atol=ATOL)


class TestVersionNegotiationOverHTTP:
    """Replies are stamped with the version the request declared."""

    def test_reply_echoes_the_request_version(self, stack, dataset):
        _, _, server, _ = stack
        student = list(dataset)[0].student_id
        for version in (1, 2):
            body = json.dumps(to_wire(ScoreQuery(student, 3, (1,)),
                                      version=version)).encode()
            status, payload = raw_post(server, "/v1/query", body)
            assert status == 200
            assert payload["v"] == version
            status, batch = raw_post(
                server, "/v1/batch",
                json.dumps(to_wire(BatchEnvelope(
                    (ScoreQuery(student, 3, (1,)),)),
                    version=version)).encode())
            assert batch["v"] == version

    def test_unsupported_version_is_a_value(self, stack):
        _, _, server, _ = stack
        status, payload = raw_post(
            server, "/v1/query",
            b'{"v": 99, "type": "score", "student_id": "amy", '
            b'"question_id": 3, "concept_ids": [1]}')
        assert status == 400
        assert payload["code"] == "unsupported_version"
        # No version to echo: the server answers at its own.
        assert payload["v"] == PROTOCOL_VERSION

    def test_recourse_under_v1_is_rejected_in_v1(self, stack, dataset):
        _, _, server, _ = stack
        student = list(dataset)[0].student_id
        payload = to_wire(RecourseQuery(
            student, 3, (1,), candidates=(CandidateQuestion(4, (1,)),)))
        payload["v"] = 1
        status, reply = raw_post(server, "/v1/query",
                                 json.dumps(payload).encode())
        assert status == 400
        assert reply["code"] == "unknown_query_type"
        assert reply["v"] == 1   # the rejection itself speaks v1

    def test_recourse_round_trips_through_the_client(self, stack,
                                                     dataset):
        _, service, _, client = stack
        student = next(s for s in dataset if len(s) >= 6).student_id
        query = RecourseQuery(
            student, 9, (2,), threshold=0.95, max_edits=2, beam_width=2,
            candidates=(CandidateQuestion(4, (1,)),
                        CandidateQuestion(11, (2,))))
        wire = client.execute(query)
        local = service.execute(query)
        assert to_wire(wire) == to_wire(local)
        assert wire.ok and len(wire.trajectory) == len(wire.steps) + 1

    def test_v1_pinned_client_still_works(self, stack, dataset):
        _, _, server, _ = stack
        client = ServiceClient(f"http://127.0.0.1:{server.server_port}",
                               timeout=10.0, protocol_version=1)
        student = list(dataset)[0].student_id
        assert client.execute(ScoreQuery(student, 3, (1,))).ok
        # A v2-only query through a v1-pinned client gets exactly the
        # rejection a genuine v1-only server would have produced.
        reply = client.execute(RecourseQuery(
            student, 3, (1,), candidates=(CandidateQuestion(4, (1,)),)))
        assert reply.code == "unknown_query_type"
        client.close()


class TestKeepAliveClient:
    """Persistent connections: one socket serves many requests, stale
    sockets are retried transparently, and the pool closes cleanly."""

    def test_one_connection_serves_many_requests(self, stack, dataset):
        _, service, server, _ = stack
        client = ServiceClient(f"http://127.0.0.1:{server.server_port}",
                               timeout=10.0)
        student = list(dataset)[0].student_id
        for k in range(8):
            assert client.execute(ScoreQuery(student,
                                             1 + k % NUM_QUESTIONS,
                                             (1,))).ok
        client.health()
        client.models()
        # Sequential traffic reuses the single kept-alive socket.
        assert client.connections_opened == 1
        client.close()

    def test_probe_timeout_stays_with_the_probe(self, stack):
        _, _, server, _ = stack
        client = ServiceClient(f"http://127.0.0.1:{server.server_port}",
                               timeout=30.0)
        client.health()
        [sock] = [connection.sock for connection in client._idle]
        assert sock.gettimeout() == HEALTH_TIMEOUT
        # The probe's socket goes back to the pool; the next query
        # reuses it at the client's own timeout.
        assert client.execute(ScoreQuery("amy", 3, (1,))).ok
        assert [connection.sock for connection in client._idle] == [sock]
        assert sock.gettimeout() == 30.0
        client.close()

    def test_concurrent_requests_pool_connections(self, stack, dataset):
        from concurrent.futures import ThreadPoolExecutor
        _, _, server, _ = stack
        client = ServiceClient(f"http://127.0.0.1:{server.server_port}",
                               timeout=10.0)
        student = list(dataset)[0].student_id
        queries = [ScoreQuery(student, 1 + k % NUM_QUESTIONS, (1,))
                   for k in range(24)]
        with ThreadPoolExecutor(max_workers=4) as pool:
            replies = list(pool.map(client.execute, queries))
        assert all(reply.ok for reply in replies)
        # At most one socket per concurrent worker, not one per request.
        assert client.connections_opened <= 4
        client.close()

    def test_stale_keep_alive_socket_is_retried(self, stack, dataset):
        _, _, server, _ = stack
        client = ServiceClient(f"http://127.0.0.1:{server.server_port}",
                               timeout=10.0)
        assert client.execute(ScoreQuery("amy", 3, (1,))).ok
        assert client.connections_opened == 1
        # Kill the pooled socket out from under the client — what a
        # worker restart or server idle-timeout does to a kept-alive
        # connection.  The next request must retry on a fresh socket
        # instead of surfacing the dead one.
        assert len(client._idle) == 1
        client._idle[0].sock.close()
        assert client.execute(ScoreQuery("amy", 3, (1,))).ok
        assert client.connections_opened == 2   # one fresh retry
        client.close()

    def test_restarted_server_is_reached_on_the_first_call(self,
                                                          dataset):
        """Every pooled socket dies with a server that restarts on the
        same port, so the one retry must open a fresh socket rather
        than pop the next dead one."""
        engine = InferenceEngine(RCKT(NUM_QUESTIONS, NUM_CONCEPTS,
                                      RCKTConfig(encoder="dkt", dim=8,
                                                 layers=1, seed=5)))
        engine.load_dataset(dataset)
        service = Service(engine)
        server, thread = start_http_thread(service)
        port = server.server_port
        client = ServiceClient(f"http://127.0.0.1:{port}", timeout=10.0)
        query = ScoreQuery(list(dataset)[0].student_id, 3, (1,))
        try:
            pooled = [client._checkout(10.0)[0] for _ in range(3)]
            for connection in pooled:
                client._checkin(connection)
            assert client.execute(query).ok
            assert len(client._idle) == 3
            server.shutdown()
            server.server_close()
            thread.join(timeout=10.0)
            server, thread = start_http_thread(service, port=port)
            assert client.execute(query).ok
            # The dead sockets are gone; only the fresh one is pooled.
            assert len(client._idle) == 1
            assert client.connections_opened == 4
        finally:
            client.close()
            server.shutdown()
            server.server_close()
            thread.join(timeout=10.0)
            service.close()

    def test_stopped_server_answers_no_pooled_socket(self, dataset):
        """A stopped face serves no kept-alive socket: after
        ``shutdown()`` and ``server_close()`` every client that pooled
        one gets a transport error, like a fresh client, and each
        connection's handler exits.  The sockets open from eight
        threads at once under a short switch interval, so a lost update
        to the server's connection set would leave one serving."""
        from concurrent.futures import ThreadPoolExecutor
        engine = InferenceEngine(RCKT(NUM_QUESTIONS, NUM_CONCEPTS,
                                      RCKTConfig(encoder="dkt", dim=8,
                                                 layers=1, seed=5)))
        engine.load_dataset(dataset)
        service = Service(engine)
        server, thread = start_http_thread(service)
        url = f"http://127.0.0.1:{server.server_port}"
        pooled = [ServiceClient(url, timeout=10.0) for _ in range(8)]
        query = ScoreQuery(list(dataset)[0].student_id, 3, (1,))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=len(pooled)) as pool:
                replies = list(pool.map(lambda client: client.execute(query),
                                        pooled))
            assert all(reply.ok for reply in replies)
            assert all(len(client._idle) == 1 for client in pooled)
        finally:
            sys.setswitchinterval(interval)
            server.shutdown()
            server.server_close()
            thread.join(timeout=10.0)
        try:
            assert not thread.is_alive()
            with pytest.raises(OSError):
                ServiceClient(url, timeout=10.0).execute(query)
            for client in pooled:
                with pytest.raises(OSError):
                    client.execute(query)
            deadline = time.monotonic() + 10.0
            while server._connections and time.monotonic() < deadline:
                time.sleep(0.01)
            assert not server._connections
        finally:
            for client in pooled:
                client.close()
            service.close()

    def test_transport_failure_raises_close_idempotent(self):
        from repro.cluster.supervisor import free_port
        client = ServiceClient(f"http://127.0.0.1:{free_port()}",
                               timeout=2.0)
        with pytest.raises(OSError):
            client.execute(ScoreQuery("amy", 3, (1,)))
        client.close()
        client.close()

    def test_rejects_non_http_urls(self):
        with pytest.raises(ValueError, match="plain http"):
            ServiceClient("https://example.com")


@pytest.mark.parametrize("budget", ["-1", "lots"])
def test_cli_rejects_a_bad_cache_budget(budget, capsys):
    from repro.serve.__main__ import build_parser
    with pytest.raises(SystemExit) as exit_info:
        build_parser().parse_args(["--stream-cache-bytes", budget])
    assert exit_info.value.code == 2
    assert "byte count >= 0" in capsys.readouterr().err
    assert build_parser().parse_args(
        ["--stream-cache-bytes", "0"]).stream_cache_bytes == 0
