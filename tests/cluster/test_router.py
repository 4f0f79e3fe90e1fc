"""Scatter-gather router: bit-identity with a single Service, failures.

Workers here are thread-backed (each a full ``Service`` behind the HTTP
face in the ``worker`` role, in this process, with its own
identically-seeded model object, reached through one ``ServiceClient``
per shard), so the routing/merging logic is exercised over real sockets
without process spawn costs; ``tests/cluster/test_cluster_oracle.py``
drives in-process shards through crashes and rollouts, and
``tests/cluster/test_process.py`` and ``tests/cluster/test_cold_boot.py``
cover the real multi-process stack.
"""

import json
import math

import numpy as np
import pytest

from repro import obs
from repro.core import ENCODERS, RCKT, RCKTConfig
from repro.cluster import RecordJournal, ScatterGatherRouter
from repro.obs import names as metric_names
from repro.serve import (PROTOCOL_VERSION, BatchEnvelope,
                         CandidateQuestion, ExplainQuery, HistoryEdit,
                         InferenceEngine, InvalidQuestion, MalformedQuery,
                         ModelNotLoaded, RecommendQuery, RecordEvent,
                         RecourseQuery, ScoreQuery, Service, ServiceClient,
                         ShardUnavailable, UnknownQueryType, WhatIfQuery,
                         is_error, query_from_wire, start_http_thread,
                         to_wire)
from repro.cluster.supervisor import free_port

NUM_QUESTIONS = 30
NUM_CONCEPTS = 5


def make_model(encoder="dkt"):
    # Seeded init: every call returns bit-identical weights, which is
    # how N thread-backed "workers" serve one logical checkpoint.
    return RCKT(NUM_QUESTIONS, NUM_CONCEPTS,
                RCKTConfig(encoder=encoder, dim=8, layers=1, seed=3))


def make_records(students, rounds=3, seed=17):
    rng = np.random.default_rng(seed)
    return [RecordEvent(student, int(rng.integers(1, NUM_QUESTIONS + 1)),
                        int(rng.integers(0, 2)),
                        (int(rng.integers(1, NUM_CONCEPTS + 1)),))
            for _ in range(rounds) for student in students]


def mixed_queries(students):
    queries = []
    for index, student in enumerate(students):
        question = 1 + (7 * index) % NUM_QUESTIONS
        concepts = (1 + index % NUM_CONCEPTS,)
        queries.append(ScoreQuery(student, question, concepts))
        queries.append(ExplainQuery(student))
        queries.append(WhatIfQuery(student, question, concepts,
                                   (HistoryEdit(0, "flip"),)))
        queries.append(RecommendQuery(
            student, (CandidateQuestion(question, (1,)),
                      CandidateQuestion(1 + (question + 5) % NUM_QUESTIONS,
                                        (2,))),
            top_k=2, horizon=2))
        queries.append(RecourseQuery(
            student, question, concepts, threshold=0.95, max_edits=2,
            beam_width=2,
            candidates=(CandidateQuestion(question, (1,)),
                        CandidateQuestion(1 + (question + 5)
                                          % NUM_QUESTIONS, (2,)))))
    return queries


class ThreadCluster:
    """N gateway-served worker Services + a router + a reference."""

    def __init__(self, shards, encoder="dkt"):
        self.services = []
        self.servers = []
        urls = []
        for _ in range(shards):
            service = Service(InferenceEngine(make_model(encoder)))
            server, _ = start_http_thread(service, role="worker")
            self.services.append(service)
            self.servers.append(server)
            urls.append(f"http://127.0.0.1:{server.server_port}")
        self.journal = RecordJournal()
        self.router = ScatterGatherRouter(
            [ServiceClient(url, timeout=10.0) for url in urls],
            journal=self.journal)
        self.reference = Service(InferenceEngine(make_model(encoder)))

    def close(self):
        self.router.close()
        for server in self.servers:
            server.shutdown()
            server.server_close()
        for service in self.services:
            service.close()
        self.reference.close()


@pytest.fixture()
def cluster():
    built = ThreadCluster(shards=2)
    yield built
    built.close()


def wire_equal(ours, reference, atol: float) -> bool:
    """Structural wire equality, floats compared to ``atol``.

    ``atol=0`` is strict bitwise identity.  The attention encoders get
    ``atol`` of a few ulp: a shard's sub-envelope pads to its *own* max
    sequence length, and BLAS reduction blocking over a different
    padded width may differ in the last bit — per-row math is
    identical, only the summation order inside matmul changes.  (The
    LSTM encoder steps column by column, so its scores are exactly
    bit-identical regardless of batch geometry.)
    """
    if type(ours) is not type(reference):
        return False
    if isinstance(ours, dict):
        return ours.keys() == reference.keys() and all(
            wire_equal(ours[key], reference[key], atol) for key in ours)
    if isinstance(ours, list):
        return len(ours) == len(reference) and all(
            wire_equal(a, b, atol) for a, b in zip(ours, reference))
    if isinstance(ours, float):
        return abs(ours - reference) <= atol
    return ours == reference


def assert_wire_identical(cluster_replies, reference_replies,
                          atol: float = 0.0):
    assert len(cluster_replies) == len(reference_replies)
    for ours, reference in zip(cluster_replies, reference_replies):
        assert wire_equal(to_wire(ours), to_wire(reference), atol), \
            f"{to_wire(ours)} != {to_wire(reference)}"


# ---------------------------------------------------------------------------
# The parity contract
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("encoder, shards", [
    *(pytest.param(encoder, 2, id=encoder) for encoder in ENCODERS),
    *(pytest.param(encoder, shards, id=f"{encoder}-shards{shards}")
      for shards in (1, 4) for encoder in ENCODERS),
])
def test_mixed_envelope_bit_identical_to_single_service(encoder, shards):
    # dkt: strict bitwise identity.  sakt/akt: identical up to a few
    # ulp of BLAS reduction order on differing padded widths (see
    # wire_equal) — kept tolerant so the assertion is portable across
    # BLAS builds rather than pinned to this machine's blocking.  One
    # shard routes everything to one worker; four leave some shard
    # with one student or none.
    atol = 0.0 if encoder == "dkt" else 1e-12
    built = ThreadCluster(shards=shards, encoder=encoder)
    try:
        students = [f"{encoder}-student-{k}" for k in range(6)]
        records = make_records(students)
        assert_wire_identical(built.router.execute_batch(records),
                              built.reference.execute_batch(records))
        mixed = mixed_queries(students)
        assert_wire_identical(built.router.execute_batch(mixed),
                              built.reference.execute_batch(mixed),
                              atol=atol)
    finally:
        built.close()


def test_three_shards_and_interleaved_records_and_reads():
    built = ThreadCluster(shards=3)
    try:
        students = [f"s{k}" for k in range(9)]
        # Records and reads interleaved in one envelope: records still
        # apply first (per student = per shard), identically on both
        # sides.
        envelope = []
        for student in students:
            envelope.append(ScoreQuery(student, 3, (1,)))
            envelope.append(RecordEvent(student, 5, 1, (2,)))
            envelope.append(RecordEvent(student, 9, 0, (3,)))
            envelope.append(ExplainQuery(student))
        assert_wire_identical(built.router.execute_batch(envelope),
                              built.reference.execute_batch(envelope))
    finally:
        built.close()


def test_single_query_and_envelope_through_execute(cluster):
    students = ["a", "b", "c"]
    records = make_records(students, rounds=2)
    cluster.router.execute_batch(records)
    cluster.reference.execute_batch(records)
    query = ScoreQuery("a", 3, (1,))
    assert to_wire(cluster.router.execute(query)) \
        == to_wire(cluster.reference.execute(query))
    envelope = BatchEnvelope(tuple(mixed_queries(students)))
    assert to_wire(cluster.router.execute(envelope)) \
        == to_wire(cluster.reference.execute(envelope))


def test_error_parity_including_canonical_messages(cluster):
    students = ["amy", "bob"]
    setup = make_records(students, rounds=2)
    cluster.router.execute_batch(setup)
    cluster.reference.execute_batch(setup)
    probes = [
        ScoreQuery("amy", 9999, (1,)),               # invalid question
        ScoreQuery("amy", 3, (999,)),                # invalid concept
        ExplainQuery("nobody"),                      # unknown student
        ScoreQuery("amy", 3, (1,), model="missing"),  # model not loaded
        WhatIfQuery("amy", 3, (1,), (HistoryEdit(99, "flip"),)),
        RecordEvent("amy", 3, 7, (1,)),              # malformed correct
        # A nested envelope: the router rejects it itself, through the
        # facade's own admission check.
        BatchEnvelope((ScoreQuery("amy", 3, (1,)),)),
        ScoreQuery("amy", 3, (1,)),                  # healthy sibling
    ]
    ours = cluster.router.execute_batch(probes)
    reference = cluster.reference.execute_batch(probes)
    assert_wire_identical(ours, reference)
    assert isinstance(ours[0], InvalidQuestion)
    assert isinstance(ours[6], MalformedQuery)
    assert ours[7].ok


def test_recommend_bounds_rejected_alike_on_every_surface(cluster):
    setup = make_records(["amy"], rounds=3)
    cluster.router.execute_batch(setup)
    cluster.reference.execute_batch(setup)
    candidates = (CandidateQuestion(3, (1,)), CandidateQuestion(5, (2,)))
    probes = [RecommendQuery("amy", candidates, top_k=-1),
              RecommendQuery("amy", candidates, horizon=0),
              RecommendQuery("amy", candidates, top_k=1, horizon=1)]
    ours = cluster.router.execute_batch(probes)
    assert_wire_identical(ours, cluster.reference.execute_batch(probes))
    assert isinstance(ours[0], MalformedQuery) and "top_k" in ours[0].message
    assert isinstance(ours[1], MalformedQuery) \
        and "horizon" in ours[1].message
    assert ours[2].ok


def test_predecoded_malformed_and_foreign_objects(cluster):
    garbage = query_from_wire({"v": 1, "type": "teleport"})
    replies = cluster.router.execute_batch([garbage, object(),
                                            ScoreQuery("amy", 3, (1,))])
    reference = cluster.reference.execute_batch(
        [garbage, object(), ScoreQuery("amy", 3, (1,))])
    assert_wire_identical(replies, reference)
    assert isinstance(replies[0], MalformedQuery)
    assert isinstance(replies[1], MalformedQuery)


#: One hostile value per field, as a fixed table (the facade-side fuzz
#: is tests/serve/test_field_rules.py): (query, field path, value).
FUZZ_TABLE = [
    ("score", ("student_id",), {}),
    ("score", ("student_id",), [[1]]),
    ("score", ("student_id",), math.nan),
    ("score", ("model",), {}),
    ("score", ("model",), None),
    ("score", ("question_id",), math.nan),
    ("score", ("concept_ids",), [{}]),
    ("explain", ("student_id",), [{}]),
    ("what_if", ("edits",), "x"),
    ("what_if", ("edits", 0, "op"), True),
    ("what_if", ("edits", 0, "position"), 1.5),
    ("what_if", ("edits", 1, "value"), -1),
    ("recommend", ("value_weight",), math.inf),
    ("recommend", ("target_success",), 10**30),
    ("recommend", ("top_k",), -1),
    ("recommend", ("candidates", 0, "question_id"), None),
    ("recourse", ("threshold",), -math.inf),
    ("recourse", ("max_edits",), 10**30),
    ("recourse", ("allow_history_edits",), None),
    ("record", ("correct",), 1.5),
    ("record", ("correct",), True),
    ("record", ("student_id",), 10**30),
]


def test_field_rule_fuzz_table_matches_the_facade_on_the_wire(cluster):
    setup = make_records(["amy"], rounds=4)
    cluster.router.execute_batch(setup)
    cluster.reference.execute_batch(setup)
    candidates = (CandidateQuestion(3, (1,)), CandidateQuestion(5, (2,)))
    valid = {
        "score": ScoreQuery("amy", 3, (1,)),
        "explain": ExplainQuery("amy"),
        "what_if": WhatIfQuery("amy", 3, (1,),
                               (HistoryEdit(0, "flip"),
                                HistoryEdit(1, "set", value=1))),
        "recommend": RecommendQuery("amy", candidates, top_k=2, horizon=2),
        "recourse": RecourseQuery("amy", 7, (2,), threshold=0.9,
                                  max_edits=2, candidates=candidates),
        "record": RecordEvent("amy", 3, 1, (1,)),
    }
    probes = []
    for kind, path, value in FUZZ_TABLE:
        payload = to_wire(valid[kind])
        target = payload
        for step in path[:-1]:
            target = target[step]
        target[path[-1]] = value
        probes.append(query_from_wire(json.loads(json.dumps(payload))))
    probes.append(ScoreQuery("amy", 3, (1,)))
    ours = cluster.router.execute_batch(probes)
    reference = cluster.reference.execute_batch(probes)
    # JSON text, not dicts: a NaN echoed in details never equals itself.
    assert [json.dumps(to_wire(r), sort_keys=True) for r in ours] \
        == [json.dumps(to_wire(r), sort_keys=True) for r in reference]
    # Only the huge target_success and the two journal-compatible
    # records are admitted.
    assert sum(not is_error(r) for r in ours[:-1]) == 3
    assert ours[-1].ok


def dead_client():
    """A client whose server is not there."""
    return ServiceClient(f"http://127.0.0.1:{free_port()}", timeout=2.0)


def test_rule_violations_never_reach_a_shard():
    router = ScatterGatherRouter([dead_client()])
    try:
        replies = router.execute_batch([
            ScoreQuery("amy", 3, (1,), model={}),
            BatchEnvelope((ScoreQuery("amy", 3, (1,)),)),
            ScoreQuery("amy", 3, (1,)),
        ])
        assert [type(r) for r in replies] \
            == [MalformedQuery, MalformedQuery, ShardUnavailable]
    finally:
        router.close()


# ---------------------------------------------------------------------------
# Failure containment
# ---------------------------------------------------------------------------
def test_dead_shard_degrades_only_its_slots(cluster):
    router = ScatterGatherRouter(
        [ServiceClient(cluster.router.shards[0].base_url, timeout=2.0),
         dead_client()])
    try:
        students = [f"s{k}" for k in range(10)]
        queries = [ScoreQuery(student, 3, (1,)) for student in students]
        replies = router.execute_batch(queries)
        dead = [r for r in replies if isinstance(r, ShardUnavailable)]
        alive = [r for r in replies if not is_error(r)]
        assert len(dead) + len(alive) == len(students)
        assert dead and alive   # both shards drew students
        for error in dead:
            assert error.code == "shard_unavailable"
            assert error.http_status == 503
            assert error.detail("shard") == 1
    finally:
        router.close()


def test_draining_shard_answers_unavailable_and_resumes(cluster):
    students = [f"s{k}" for k in range(8)]
    cluster.router.execute_batch(make_records(students, rounds=1))
    owners = {s: cluster.router.shard_of(ScoreQuery(s, 3, (1,)))
              for s in students}
    drained = 0
    cluster.router.drain(drained)
    replies = cluster.router.execute_batch(
        [ScoreQuery(s, 3, (1,)) for s in students])
    for student, reply in zip(students, replies):
        if owners[student] == drained:
            assert isinstance(reply, ShardUnavailable)
            assert "draining" in reply.message
        else:
            assert reply.ok
    cluster.router.resume(drained)
    assert all(r.ok for r in cluster.router.execute_batch(
        [ScoreQuery(s, 3, (1,)) for s in students]))


# ---------------------------------------------------------------------------
# Journal + restart (simulated in-process)
# ---------------------------------------------------------------------------
def test_journal_replays_in_worker_ack_order_not_arrival_order():
    """Concurrent envelopes can journal one student's acks out of
    order; replay must re-sort by the worker-side sequence (the
    acknowledged history_length) and drop duplicate acks."""
    journal = RecordJournal()
    second = to_wire(RecordEvent("amy", 5, 0, (1,)))
    first = to_wire(RecordEvent("amy", 3, 1, (2,)))
    journal.append(0, second, sequence=2)     # reply arrived first ...
    journal.append(0, first, sequence=1)      # ... but applied second
    journal.append(0, first, sequence=1)      # a retried ack, twice
    journal.append(0, to_wire(RecordEvent("bob", 9, 1, (3,))),
                   sequence=1)
    replayed = journal.replay_records(0)
    amy = [r for r in replayed if r.student_id == "amy"]
    assert [r.question_id for r in amy] == [3, 5]      # worker order
    assert len(replayed) == 3                          # dupe dropped
    assert journal.count(0) == 4                       # log untouched


def test_journal_replay_restores_bit_identity(cluster):
    students = [f"s{k}" for k in range(8)]
    records = make_records(students)
    assert all(r.ok for r in cluster.router.execute_batch(records))
    cluster.reference.execute_batch(records)
    sizes = cluster.journal.sizes()
    assert sum(sizes.values()) == len(records)
    mixed = mixed_queries(students)
    before = cluster.router.execute_batch(mixed)

    # "Crash" shard 0: drop its server + Service (all in-memory state)
    # and boot a cold replacement on the same port.
    shard = 0
    port = cluster.servers[shard].server_port
    cluster.servers[shard].shutdown()
    cluster.servers[shard].server_close()
    cluster.services[shard].close()
    fresh = Service(InferenceEngine(make_model()))
    server, _ = start_http_thread(fresh, port=port)
    cluster.services[shard] = fresh
    cluster.servers[shard] = server

    # Replay the journal through the shard's own client, the way the
    # supervisor does (after dropping its sockets to the dead server).
    client = cluster.router.shards[shard]
    client.close()
    assert cluster.journal.replay_into(shard, client) == sizes[shard]

    after = cluster.router.execute_batch(mixed)
    assert_wire_identical(after, before)
    assert_wire_identical(after, cluster.reference.execute_batch(mixed))


# ---------------------------------------------------------------------------
# Warm blue/green rollout across shards
# ---------------------------------------------------------------------------
def test_rollout_fans_out_and_stays_bit_identical(cluster, tmp_path):
    students = [f"s{k}" for k in range(8)]
    records = make_records(students)
    cluster.router.execute_batch(records)
    cluster.reference.execute_batch(records)
    mixed = mixed_queries(students)
    before = cluster.router.execute_batch(mixed)

    retrained = InferenceEngine(RCKT(NUM_QUESTIONS, NUM_CONCEPTS,
                                     RCKTConfig(encoder="dkt", dim=8,
                                                layers=1, seed=11)))
    path = tmp_path / "green.npz"
    retrained.save(path)
    results = cluster.router.rollout(str(path), warm_top=16)
    assert len(results) == 2
    assert all(not is_error(result) for result in results)
    assert all(result["warmed"] >= 1 for result in results)
    cluster.reference.rollout(path, warm_top=16)

    after = cluster.router.execute_batch(mixed)
    assert_wire_identical(after, cluster.reference.execute_batch(mixed))
    # The rollout actually changed the serving weights.
    changed = [a for a, b in zip(after, before)
               if hasattr(a, "score") and a.score != b.score]
    assert changed


@pytest.mark.parametrize("field, value", [
    ("model", ["x"]), ("model", None), ("warm_top", "many"),
    ("warm_top", 2.5), ("warm_top", False)])
def test_rollout_body_types_are_checked_before_any_shard(cluster, field,
                                                         value):
    """The router answers a mistyped admin rollout body itself, with
    the gateway's ``malformed_query``, and fans nothing out."""
    from repro.serve import reply_from_wire

    engines = [service.engine() for service in cluster.services]
    server, _ = start_http_thread(cluster.router, role="router")
    try:
        client = ServiceClient(f"http://127.0.0.1:{server.server_port}",
                               timeout=10.0)
        body = {"checkpoint": "green.npz", field: value}
        reply = reply_from_wire(client._post("/v1/admin/rollout", body))
        client.close()
    finally:
        server.shutdown()
        server.server_close()
    assert isinstance(reply, MalformedQuery), reply
    assert reply.message.startswith(f"{field} must be")
    assert [service.engine() for service in cluster.services] == engines


def test_router_face_rollout_answers_one_result_per_shard(cluster,
                                                          tmp_path):
    """``POST /v1/admin/rollout`` on the router face: a rollout answers
    200 with every shard's summary; a missing checkpoint or an unknown
    model answers 502 with the first shard's taxonomy error, where the
    loop stopped."""
    import urllib.error
    import urllib.request

    def post(port, body):
        request = urllib.request.Request(
            f"http://127.0.0.1:{port}/v1/admin/rollout",
            data=json.dumps(body).encode(),
            headers={"Content-Type": "application/json"})
        try:
            with urllib.request.urlopen(request, timeout=10.0) as response:
                return response.status, json.loads(response.read())
        except urllib.error.HTTPError as error:
            return error.code, json.loads(error.read())

    cluster.router.execute_batch(make_records(["a", "b", "c", "d"]))
    green = tmp_path / "green.npz"
    InferenceEngine(make_model()).save(green)
    server, _ = start_http_thread(cluster.router, role="router")
    try:
        port = server.server_port
        status, body = post(port, {"checkpoint": str(green),
                                   "warm_top": 4})
        assert status == 200, body
        assert body["status"] == "ok"
        assert [shard["model"] for shard in body["shards"]] \
            == ["default", "default"]
        assert [shard["encoder"] for shard in body["shards"]] \
            == ["dkt", "dkt"]
        assert sum(shard["students"] for shard in body["shards"]) == 4

        for request, code in [
                ({"checkpoint": str(tmp_path / "missing.npz")},
                 "malformed_query"),
                ({"checkpoint": str(green), "model": "canary"},
                 "model_not_loaded")]:
            status, body = post(port, request)
            assert status == 502, body
            assert body["status"] == "failed"
            assert [shard["code"] for shard in body["shards"]] == [code]
    finally:
        server.shutdown()
        server.server_close()


def test_client_returns_what_the_router_behind_the_face_returns(
        cluster, tmp_path):
    """A ``ServiceClient`` on a router face answers like the router: a
    list of one summary or typed error per shard tried, and a typed
    error from ``models()`` when no shard is reachable."""
    cluster.router.execute_batch(make_records(["a", "b", "c", "d"]))
    green = tmp_path / "green.npz"
    InferenceEngine(make_model()).save(green)
    server, _ = start_http_thread(cluster.router, role="router")
    client = ServiceClient(f"http://127.0.0.1:{server.server_port}",
                           timeout=10.0)
    try:
        missing = client.rollout(tmp_path / "missing.npz")
        assert [type(result) for result in missing] == [MalformedQuery]
        assert missing[0].message.startswith("rollout rejected")
        assert [r.message for r in missing] == [
            r.message for r in cluster.router.rollout(
                tmp_path / "missing.npz")]
        summaries = client.rollout(green, warm_top=4)
        assert [sorted(summary) for summary in summaries] \
            == [["encoder", "model", "students", "warmed"]] * 2
    finally:
        client.close()
        server.shutdown()
        server.server_close()

    lonely = ScatterGatherRouter([dead_client()])
    server, _ = start_http_thread(lonely, role="router")
    client = ServiceClient(f"http://127.0.0.1:{server.server_port}",
                           timeout=10.0)
    try:
        assert isinstance(lonely.models(), ShardUnavailable)
        assert isinstance(client.models(), ShardUnavailable)
    finally:
        client.close()
        server.shutdown()
        server.server_close()
        lonely.close()


def test_auto_rollout_through_a_client_reports_a_failed_cluster_rollout(
        cluster, tmp_path):
    from repro.online import DriftGate, auto_rollout

    green = tmp_path / "green.npz"
    InferenceEngine(make_model()).save(green)
    server, _ = start_http_thread(cluster.router, role="router")
    client = ServiceClient(f"http://127.0.0.1:{server.server_port}",
                           timeout=10.0)
    try:
        # An empty stream waives the gate, so the rollout is attempted.
        result = auto_rollout(client, green, DriftGate([]),
                              model="canary",
                              incumbent_model=make_model())
        assert [type(shard) for shard in result] == [ModelNotLoaded]
    finally:
        client.close()
        server.shutdown()
        server.server_close()


def test_concurrent_rollouts_run_one_shard_at_a_time():
    """Rollouts from many threads: at any instant at most one shard is
    mid-swap, and every rollout visits every shard."""
    import sys
    import threading
    import time

    state = {"active": 0, "peak": 0, "calls": 0}
    guard = threading.Lock()

    class SlowShard:
        def rollout(self, checkpoint, model="default", warm_top=64):
            with guard:
                state["active"] += 1
                state["calls"] += 1
                state["peak"] = max(state["peak"], state["active"])
            time.sleep(0.002)
            with guard:
                state["active"] -= 1
            return {"model": model}

        def close(self):
            pass

    router = ScatterGatherRouter([SlowShard() for _ in range(3)])
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=router.rollout, args=("x",))
                   for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
        router.close()
    assert state["calls"] == 6 * 3
    assert state["peak"] == 1


def test_shard_unavailable_counts_only_query_sub_batches(tmp_path):
    registry = obs.MetricsRegistry()
    previous = obs.set_registry(registry)
    try:
        router = ScatterGatherRouter([dead_client()])
    finally:
        obs.set_registry(previous)
    try:
        for _ in range(3):
            assert isinstance(router.models(), ShardUnavailable)
        [failed] = router.rollout(tmp_path / "green.npz")
        assert isinstance(failed, ShardUnavailable)
        total = metric_names.ROUTER_SHARD_UNAVAILABLE_TOTAL
        assert registry.counter_total(total) == 0
        [reply] = router.execute_batch([ScoreQuery("amy", 3, (1,))])
        assert isinstance(reply, ShardUnavailable)
        assert registry.counter_total(total) == 1
    finally:
        router.close()


def test_router_http_face_and_health(cluster):
    students = ["a", "b", "c", "d"]
    cluster.router.execute_batch(make_records(students, rounds=2))
    cluster.reference.execute_batch(make_records(students, rounds=2))
    server, _ = start_http_thread(cluster.router, role="router")
    try:
        client = ServiceClient(f"http://127.0.0.1:{server.server_port}",
                               timeout=10.0)
        health = client.health()
        assert health["status"] == "ok"
        assert [s["ok"] for s in health["shards"]] == [True, True]
        assert health["ring"]["shards"] == 2
        assert health["protocol"] == PROTOCOL_VERSION
        assert "recourse" in health["capabilities"]["query_types"]
        models = client.models()
        assert models["models"][0]["num_questions"] == NUM_QUESTIONS
        mixed = mixed_queries(students)
        assert_wire_identical(client.execute_batch(mixed),
                              cluster.reference.execute_batch(mixed))
        single = client.execute(ScoreQuery("a", 3, (1,)))
        assert to_wire(single) == to_wire(
            cluster.reference.execute(ScoreQuery("a", 3, (1,))))
        client.close()
    finally:
        server.shutdown()
        server.server_close()


def test_router_face_propagates_the_request_id_to_every_hop():
    """One envelope POSTed to the router face: the ``X-Request-Id`` it
    answers with names the router's batch span, the fan-out span of
    each shard it hit and every worker's batch span, and
    ``router_fanout_seconds`` counts one round-trip per shard."""
    import urllib.request

    registry = obs.MetricsRegistry()
    previous = obs.set_registry(registry)
    built = ThreadCluster(shards=2)
    server, _ = start_http_thread(built.router, role="router")
    client = ServiceClient(f"http://127.0.0.1:{server.server_port}",
                           timeout=10.0)
    try:
        queries = tuple(ScoreQuery(f"trace-{k}", 3, (1,))
                        for k in range(8))
        assert {built.router.shard_of(query) for query in queries} \
            == {0, 1}
        request = urllib.request.Request(
            f"{client.base_url}/v1/batch",
            data=json.dumps(to_wire(BatchEnvelope(queries))).encode(),
            headers={"Content-Type": "application/json"})
        with urllib.request.urlopen(request, timeout=10.0) as response:
            request_id = response.headers.get("X-Request-Id")
            replies = json.loads(response.read())["replies"]
        assert request_id
        assert [reply["type"] for reply in replies] == ["score_reply"] * 8

        snapshot = client.metrics()
        traced = sorted(span["name"] for span in snapshot["spans"]
                        if span["request_id"] == request_id)
        assert traced == ["router.batch", "router.fanout.shard0",
                          "router.fanout.shard1", "worker.batch",
                          "worker.batch"]
        fanout = {entry["labels"]["shard"]: entry["data"]["count"]
                  for entry in snapshot["histograms"]
                  if entry["name"] == metric_names.ROUTER_FANOUT_SECONDS}
        assert fanout == {"0": 1, "1": 1}
    finally:
        client.close()
        server.shutdown()
        server.server_close()
        built.close()
        obs.set_registry(previous)


# ---------------------------------------------------------------------------
# Version negotiation: identical bytes from both public surfaces
# ---------------------------------------------------------------------------
def test_negotiation_errors_byte_identical_on_gateway_and_router(cluster):
    """An unsupported version, an unknown/ungated type or a field-rule
    violation must serialize to the same JSON from a worker gateway and
    from the cluster router — clients cannot tell which surface
    rejected them."""
    import urllib.error
    import urllib.request

    def post(port, body):
        request = urllib.request.Request(
            f"http://127.0.0.1:{port}/v1/query", data=body,
            headers={"Content-Type": "application/json"})
        try:
            with urllib.request.urlopen(request, timeout=10.0) as response:
                return response.status, json.loads(response.read())
        except urllib.error.HTTPError as error:
            return error.code, json.loads(error.read())

    recourse_v1 = to_wire(RecourseQuery(
        "amy", 3, (1,), candidates=(CandidateQuestion(4, (1,)),)))
    recourse_v1["v"] = 1
    bodies = [
        b'{"v": 99, "type": "score", "student_id": "amy", '
        b'"question_id": 3, "concept_ids": [1]}',
        b'{"v": 1, "type": "teleport"}',
        b'{"v": 2, "type": "teleport"}',
        json.dumps(recourse_v1).encode(),
        b'{"v": 2, "type": "score", "student_id": {}, '
        b'"question_id": 3, "concept_ids": [1]}',
        b'{"v": 2, "type": "score", "student_id": "amy", '
        b'"question_id": 3, "concept_ids": [1], "model": {}}',
        b'{"v": 1, "type": "record", "student_id": "amy", '
        b'"question_id": 3, "correct": 1.5, "concept_ids": [1]}',
        b'{"v": 2, "type": "recommend", "student_id": "amy", '
        b'"candidates": [], "value_weight": Infinity}',
    ]
    server, _ = start_http_thread(cluster.router, role="router")
    gateway_port = cluster.servers[0].server_port
    try:
        for body in bodies:
            gateway = post(gateway_port, body)
            router = post(server.server_port, body)
            assert gateway == router, (gateway, router)
            assert gateway[0] == 400
    finally:
        server.shutdown()
        server.server_close()


def test_undecodable_bodies_byte_identical_on_gateway_and_router(cluster):
    """A >4300-digit integer and invalid UTF-8 escape ``JSONDecodeError``;
    both surfaces answer them as the same ``malformed_query`` bytes."""
    import urllib.error
    import urllib.request

    def post(port, route, body):
        request = urllib.request.Request(
            f"http://127.0.0.1:{port}{route}", data=body,
            headers={"Content-Type": "application/json"})
        try:
            with urllib.request.urlopen(request, timeout=10.0) as response:
                return response.status, response.read()
        except urllib.error.HTTPError as error:
            return error.code, error.read()

    bodies = [
        b'{"v": 2, "type": "score", "student_id": ' + b"7" * 4301 + b"}",
        b'{"v": 2, "type": "score", "student_id": "\xff"}',
    ]
    server, _ = start_http_thread(cluster.router, role="router")
    gateway_port = cluster.servers[0].server_port
    try:
        for body in bodies:
            for route in ("/v1/query", "/v1/batch"):
                gateway = post(gateway_port, route, body)
                router = post(server.server_port, route, body)
                assert gateway == router, (gateway, router)
                assert gateway[0] == 400
                assert json.loads(gateway[1])["code"] == "malformed_query"
    finally:
        server.shutdown()
        server.server_close()


def _reject_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


def test_echoed_non_finite_values_stay_strict_json(cluster):
    """An error echoing a non-finite request value (``1e400``, ``NaN``,
    ``Infinity``) still answers RFC 8259 JSON — the value renders as a
    string — with the same bytes and taxonomy code on both faces and
    both query routes."""
    import urllib.error
    import urllib.request

    def post(port, route, body):
        request = urllib.request.Request(
            f"http://127.0.0.1:{port}{route}", data=body,
            headers={"Content-Type": "application/json"})
        try:
            with urllib.request.urlopen(request, timeout=10.0) as response:
                return response.status, response.read()
        except urllib.error.HTTPError as error:
            return error.code, error.read()

    queries = [
        ('{"type": "score", "student_id": "amy", "question_id": 1e400, '
         '"concept_ids": [1]}', "invalid_question", "inf"),
        ('{"type": "record", "student_id": "amy", "question_id": 3, '
         '"correct": NaN, "concept_ids": [1]}', "malformed_query", "nan"),
        ('{"v": NaN, "type": "score", "student_id": "amy", '
         '"question_id": 3, "concept_ids": [1]}', "unsupported_version",
         "nan"),
        ('{"type": "what_if", "student_id": "amy", "question_id": 3, '
         '"concept_ids": [1], "edits": [{"position": Infinity, '
         '"op": "flip"}]}', "invalid_edit", "inf"),
        ('{"type": "score", "student_id": "amy", "question_id": 3, '
         '"concept_ids": [Infinity]}', "invalid_concept", "inf"),
        ('{"type": "recommend", "student_id": "amy", "candidates": '
         '[{"question_id": -1e400, "concept_ids": [1]}]}',
         "invalid_question", "-inf"),
    ]
    server, _ = start_http_thread(cluster.router, role="router")
    gateway_port = cluster.servers[0].server_port
    try:
        for query, code, rendered in queries:
            bodies = {"/v1/query": query,
                      "/v1/batch": '{"type": "batch", "queries": [%s]}'
                                   % query}
            for route, body in bodies.items():
                gateway = post(gateway_port, route, body.encode())
                router = post(server.server_port, route, body.encode())
                assert gateway == router, (gateway, router)
                reply = json.loads(gateway[1],
                                   parse_constant=_reject_constant)
                if route == "/v1/batch":
                    reply = reply["replies"][0]
                assert reply["code"] == code, reply
                assert rendered in reply["details"].values(), reply
    finally:
        server.shutdown()
        server.server_close()


def test_predecoded_version_errors_stay_local(cluster):
    """Error values decoded before routing fill their slots without a
    shard round-trip, identically to the reference facade."""
    probes = [
        query_from_wire({"v": 99, "type": "score"}),
        query_from_wire({"v": 1, "type": "recourse", "student_id": "amy",
                         "question_id": 3, "concept_ids": [1]}),
        ScoreQuery("amy", 3, (1,)),
    ]
    assert isinstance(probes[1], UnknownQueryType)
    cluster.router.execute_batch([RecordEvent("amy", 5, 1, (2,))])
    cluster.reference.execute_batch([RecordEvent("amy", 5, 1, (2,))])
    assert_wire_identical(cluster.router.execute_batch(probes),
                          cluster.reference.execute_batch(probes))
