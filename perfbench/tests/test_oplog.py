"""Operation logs: byte-identical per seed, and internally consistent."""

import pytest

from perfbench import oplog

SECONDS = 0.5


def _bytes(tmp_path, workload, seed, checkpoint=None, name="log"):
    path = tmp_path / f"{name}.jsonl"
    oplog.write(oplog.build(workload, seed, SECONDS, checkpoint), path)
    return path.read_bytes()


@pytest.fixture(scope="module")
def tiny_akt(tmp_path_factory):
    """A small random-init akt checkpoint: enough to size thresholds."""
    from repro.core import RCKT, RCKTConfig
    from repro.serve import InferenceEngine
    from perfbench import fixture
    path = tmp_path_factory.mktemp("ck") / "akt.npz"
    InferenceEngine(RCKT(fixture.NUM_QUESTIONS, fixture.NUM_CONCEPTS,
                         RCKTConfig(encoder="akt", dim=8, layers=1,
                                    seed=0))).save(path)
    return str(path)


@pytest.mark.parametrize("workload", ["gateway_mixed", "cluster_ingest",
                                      "cohort_batch"])
def test_same_seed_same_bytes(tmp_path, workload, tiny_akt):
    first = _bytes(tmp_path, workload, 5, tiny_akt, "a")
    again = _bytes(tmp_path, workload, 5, tiny_akt, "b")
    other = _bytes(tmp_path, workload, 6, tiny_akt, "c")
    assert first == again
    assert first != other


def _label_matches_next_record(log):
    """Every labelled score is answered by that student's next record."""
    pending = {}
    checked = 0
    for item in log["items"]:
        for request in item["requests"]:
            for query, label in zip(request["queries"], request["labels"]):
                student = query["student_id"]
                if query["type"] == "record" and student in pending:
                    question, answer = pending.pop(student)
                    assert (query["question_id"], query["correct"]) == \
                        (question, answer)
                    checked += 1
                elif label is not None:
                    pending[student] = (query["question_id"], label)
    return checked


def test_gateway_log_is_a_timed_live_stream():
    log = oplog.build("gateway_mixed", 3, SECONDS)
    dues = [item["due"] for item in log["items"]]
    assert dues == sorted(dues) and 0 <= dues[0] and dues[-1] < SECONDS
    assert {item["conn"] for item in log["items"]} <= {0, 1}
    for item in log["items"]:
        student = item["requests"][0]["queries"][0]["student_id"]
        assert item["conn"] == int(student.split("-")[1]) % \
            oplog.CONNECTIONS
    assert _label_matches_next_record(log) > 0


def test_cluster_log_scores_before_their_records():
    log = oplog.build("cluster_ingest", 3, SECONDS)
    for item in log["items"]:
        queries = item["requests"][0]["queries"]
        types = [q["type"] for q in queries]
        assert types == ["record"] * oplog.CLUSTER_RECORDS \
            + ["score"] * oplog.CLUSTER_SCORES
        students = [q["student_id"] for q in queries]
        assert len(set(students)) == len(students)
    assert _label_matches_next_record(log) > 0


def test_cohort_recourse_thresholds_sit_above_baseline(tiny_akt):
    log = oplog.build("cohort_batch", 3, SECONDS, tiny_akt)
    recourse = [q for item in log["items"]
                for q in item["requests"][0]["queries"]
                if q["type"] == "recourse"]
    assert recourse
    assert all(0.0 < q["threshold"] <= 1.0 for q in recourse)
    for item in log["items"]:
        types = [q["type"] for q in item["requests"][0]["queries"]]
        records = types.count("record")
        assert types[:records] == ["record"] * records
