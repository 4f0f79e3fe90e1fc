"""Warm blue/green rollout: Service.rollout + the gateway admin route."""

import numpy as np
import pytest

from repro.core import RCKT, RCKTConfig
from repro.serve import (InferenceEngine, MalformedQuery, ModelNotLoaded,
                         ScoreQuery, Service, ServiceClient,
                         reply_from_wire, start_http_thread)

NUM_QUESTIONS = 40
NUM_CONCEPTS = 6
ATOL = 1e-10


def make_model(seed=3, dim=8):
    return RCKT(NUM_QUESTIONS, NUM_CONCEPTS,
                RCKTConfig(encoder="dkt", dim=dim, layers=1, seed=seed))


def save_checkpoint(tmp_path, name, seed=9, dim=8):
    path = tmp_path / f"{name}.npz"
    InferenceEngine(make_model(seed=seed, dim=dim)).save(path)
    return path


def load_records(service, students, per_student=4, seed=21):
    rng = np.random.default_rng(seed)
    for student in students:
        for _ in range(per_student):
            service.engine().record(
                student, int(rng.integers(1, NUM_QUESTIONS + 1)),
                int(rng.integers(0, 2)),
                (int(rng.integers(1, NUM_CONCEPTS + 1)),))


class TestServiceRollout:
    def test_swaps_weights_and_keeps_histories(self, tmp_path):
        service = Service(InferenceEngine(make_model(seed=1)))
        students = ["amy", "bob"]
        load_records(service, students)
        before = service.execute(ScoreQuery("amy", 3, (1,))).score
        length = service.engine().history_length("amy")

        green = save_checkpoint(tmp_path, "green", seed=9)
        summary = service.rollout(green)
        assert summary["model"] == "default"
        after = service.execute(ScoreQuery("amy", 3, (1,)))
        assert after.ok and after.score != before
        assert service.engine().history_length("amy") == length
        # Post-swap serving matches a cold service on the same weights
        # and histories.
        reference = Service(InferenceEngine(make_model(seed=9)))
        load_records(reference, students)
        assert abs(after.score
                   - reference.execute(ScoreQuery("amy", 3,
                                                  (1,))).score) < ATOL
        service.close()
        reference.close()

    def test_hot_students_score_warm_after_swap(self, tmp_path,
                                                monkeypatch):
        service = Service(InferenceEngine(make_model(seed=1)))
        students = [f"s{k}" for k in range(5)]
        load_records(service, students)
        # Warm the blue cache for 3 of the 5 students only.
        hot = students[:3]
        service.execute_batch([ScoreQuery(s, 2, (1,)) for s in hot])
        assert set(service.engine().stream_caches.hot_keys()) == set(hot)

        green = save_checkpoint(tmp_path, "green", seed=9)
        summary = service.rollout(green, warm_top=8)
        assert summary["warmed"] == len(hot)

        engine = service.engine()
        counts = {"capture": 0}
        encoder = engine.model.generator.encoder
        real = encoder.forward_stream_with_capture

        def capture(*args, **kwargs):
            counts["capture"] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(encoder, "forward_stream_with_capture",
                            capture)
        # Hot students hit the pre-built green caches: zero warm-up
        # passes on their first post-swap score.
        replies = service.execute_batch([ScoreQuery(s, 2, (1,))
                                         for s in hot])
        assert all(reply.ok for reply in replies)
        assert counts["capture"] == 0
        # A never-cached student still cold-builds (exactly one pass).
        assert service.execute(ScoreQuery(students[-1], 2, (1,))).ok
        assert counts["capture"] == 1
        service.close()

    def test_records_after_swap_extend_the_warm_cache(self, tmp_path):
        service = Service(InferenceEngine(make_model(seed=1)))
        load_records(service, ["amy"])
        service.execute(ScoreQuery("amy", 2, (1,)))
        service.rollout(save_checkpoint(tmp_path, "green", seed=9))
        service.engine().record("amy", 5, 1, (2,))
        score = service.execute(ScoreQuery("amy", 7, (3,))).score
        reference = Service(InferenceEngine(make_model(seed=9)))
        load_records(reference, ["amy"])
        reference.engine().record("amy", 5, 1, (2,))
        assert abs(score - reference.execute(
            ScoreQuery("amy", 7, (3,))).score) < ATOL
        service.close()
        reference.close()

    def test_window_configuration_carries_over(self, tmp_path):
        service = Service(InferenceEngine(make_model(seed=1), window=6,
                                          window_hop=2))
        load_records(service, ["amy"], per_student=10)
        service.rollout(save_checkpoint(tmp_path, "green", seed=9))
        engine = service.engine()
        assert engine.window == 6 and engine.window_hop == 2
        reference = Service(InferenceEngine(make_model(seed=9), window=6,
                                            window_hop=2))
        load_records(reference, ["amy"], per_student=10)
        assert abs(service.execute(ScoreQuery("amy", 3, (1,))).score
                   - reference.execute(ScoreQuery("amy", 3,
                                                  (1,))).score) < ATOL
        service.close()
        reference.close()

    def test_admin_errors_raise_in_process(self, tmp_path):
        service = Service(InferenceEngine(make_model()))
        with pytest.raises(KeyError, match="no model named"):
            service.rollout(save_checkpoint(tmp_path, "green"),
                            model="ghost")
        mismatched = tmp_path / "mismatched.npz"
        InferenceEngine(RCKT(10, 3, RCKTConfig(encoder="dkt", dim=8,
                                               layers=1,
                                               seed=1))).save(mismatched)
        with pytest.raises(ValueError, match="different id space"):
            service.rollout(mismatched)
        service.close()


class TestRolloutOverHTTP:
    @pytest.fixture()
    def stack(self):
        service = Service(InferenceEngine(make_model(seed=1)))
        load_records(service, ["amy", "bob"])
        server, _ = start_http_thread(service)
        client = ServiceClient(f"http://127.0.0.1:{server.server_port}",
                               timeout=10.0)
        yield service, client
        client.close()
        server.shutdown()
        service.close()

    def test_round_trip(self, stack, tmp_path):
        service, client = stack
        before = client.execute(ScoreQuery("amy", 3, (1,))).score
        green = save_checkpoint(tmp_path, "green", seed=9)
        summary = client.rollout(green, warm_top=4)
        assert summary["status"] == "ok" and summary["model"] == "default"
        after = client.execute(ScoreQuery("amy", 3, (1,)))
        assert after.ok and after.score != before
        assert after.score == service.execute(
            ScoreQuery("amy", 3, (1,))).score

    def test_taxonomy_mapping(self, stack, tmp_path):
        _, client = stack
        green = save_checkpoint(tmp_path, "green", seed=9)
        unknown = client.rollout(green, model="ghost")
        assert isinstance(unknown, ModelNotLoaded)
        missing = client.rollout(tmp_path / "nope.npz")
        assert isinstance(missing, MalformedQuery)
        assert "rollout rejected" in missing.message
        bad_body = client.rollout(green, warm_top="many")
        assert isinstance(bad_body, MalformedQuery)

    @pytest.mark.parametrize("field, value", [
        ("model", ["x"]), ("model", None), ("model", 7),
        ("warm_top", True)])
    def test_body_types_are_checked_before_anything_runs(self, stack,
                                                         tmp_path, field,
                                                         value):
        service, client = stack
        engine = service.engine()
        body = {"checkpoint": str(save_checkpoint(tmp_path, "green")),
                field: value}
        reply = reply_from_wire(client._post("/v1/admin/rollout", body))
        assert isinstance(reply, MalformedQuery), reply
        assert reply.message.startswith(f"{field} must be")
        assert service.engine() is engine
