"""Bidirectional encoder correctness — above all, NO self-leakage.

Eq. 25 requires h_i to exclude position i's own input entirely.  The
perturbation tests here change the input at one position and assert the
encoder output at that position is bit-identical, including through
multiple layers (the subtle case: naive bidirectional stacking leaks).
"""

import numpy as np
import pytest

from repro import nn
from repro.core import (BiAKTEncoder, BiDKTEncoder, BiSAKTEncoder,
                        build_encoder, shift_and_combine)
from repro.tensor import Tensor, no_grad

RNG = np.random.default_rng(31)
DIM = 8
LENGTH = 7


def encoder_factory(name, layers, dropout=0.0):
    return build_encoder(name, DIM, layers, np.random.default_rng(5), heads=2,
                         dropout=dropout)


@pytest.mark.parametrize("name", ["dkt", "sakt", "akt"])
@pytest.mark.parametrize("layers", [1, 2])
class TestNoSelfLeakage:
    def test_output_invariant_to_own_input(self, name, layers):
        encoder = encoder_factory(name, layers)
        encoder.eval()
        x = RNG.normal(size=(2, LENGTH, DIM))
        mask = np.ones((2, LENGTH), dtype=bool)
        base = encoder(Tensor(x), mask=mask).data.copy()
        for position in range(LENGTH):
            perturbed = x.copy()
            perturbed[:, position, :] += 13.0
            out = encoder(Tensor(perturbed), mask=mask).data
            assert np.allclose(out[:, position], base[:, position]), \
                f"{name}/{layers}L leaked input {position} into h_{position}"

    def test_other_positions_do_change(self, name, layers):
        """Sanity: the perturbation is visible elsewhere (not a dead net)."""
        encoder = encoder_factory(name, layers)
        encoder.eval()
        x = RNG.normal(size=(1, LENGTH, DIM))
        mask = np.ones((1, LENGTH), dtype=bool)
        base = encoder(Tensor(x), mask=mask).data.copy()
        perturbed = x.copy()
        perturbed[:, 3, :] += 13.0
        out = encoder(Tensor(perturbed), mask=mask).data
        others = [p for p in range(LENGTH) if p != 3]
        assert not np.allclose(out[:, others], base[:, others])


class TestShiftAndCombine:
    def test_boundaries_use_single_direction(self):
        fwd = Tensor(np.arange(12.0).reshape(1, 4, 3))
        bwd = Tensor(100.0 + np.arange(12.0).reshape(1, 4, 3))
        out = shift_and_combine(fwd, bwd).data
        # h_0 = bwd[1] only; h_3 = fwd[2] only.
        assert np.allclose(out[0, 0], bwd.data[0, 1])
        assert np.allclose(out[0, 3], fwd.data[0, 2])

    def test_interior_sums_both(self):
        fwd = Tensor(np.ones((1, 3, 2)))
        bwd = Tensor(2.0 * np.ones((1, 3, 2)))
        out = shift_and_combine(fwd, bwd).data
        assert np.allclose(out[0, 1], 3.0)


class TestDirections:
    def test_bidkt_first_position_sees_future_only(self):
        encoder = BiDKTEncoder(DIM, 1, np.random.default_rng(0))
        encoder.eval()
        x = RNG.normal(size=(1, 5, DIM))
        base = encoder(Tensor(x)).data.copy()
        # Changing the LAST position must affect h_0 (backward path).
        perturbed = x.copy()
        perturbed[0, 4] += 5.0
        assert not np.allclose(encoder(Tensor(perturbed)).data[0, 0],
                               base[0, 0])

    def test_bidkt_last_position_sees_past_only(self):
        encoder = BiDKTEncoder(DIM, 1, np.random.default_rng(0))
        encoder.eval()
        x = RNG.normal(size=(1, 5, DIM))
        base = encoder(Tensor(x)).data.copy()
        perturbed = x.copy()
        perturbed[0, 0] += 5.0
        assert not np.allclose(encoder(Tensor(perturbed)).data[0, 4],
                               base[0, 4])

    def test_attention_mask_respects_padding(self):
        encoder = BiSAKTEncoder(DIM, 1, np.random.default_rng(0), heads=2)
        encoder.eval()
        x = RNG.normal(size=(1, 6, DIM))
        mask = np.array([[True, True, True, True, False, False]])
        base = encoder(Tensor(x), mask=mask).data.copy()
        perturbed = x.copy()
        perturbed[0, 5] += 50.0  # padding position
        out = encoder(Tensor(perturbed), mask=mask).data
        assert np.allclose(out[0, :4], base[0, :4])


class TestFactory:
    def test_builds_each_kind(self):
        assert isinstance(encoder_factory("dkt", 1), BiDKTEncoder)
        assert isinstance(encoder_factory("sakt", 1), BiSAKTEncoder)
        assert isinstance(encoder_factory("akt", 1), BiAKTEncoder)

    def test_akt_is_monotonic_sakt(self):
        akt = encoder_factory("akt", 1)
        assert akt.forward_stack.blocks[0].attention.monotonic

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError):
            build_encoder("gru", DIM, 1, np.random.default_rng(0))

    def test_gradients_flow(self):
        encoder = encoder_factory("dkt", 2)
        x = Tensor(RNG.normal(size=(2, 4, DIM)), requires_grad=True)
        (encoder(x) ** 2).sum().backward()
        assert x.grad is not None
        assert all(p.grad is not None for p in encoder.parameters())


@pytest.mark.parametrize("name", ["dkt", "sakt", "akt"])
@pytest.mark.parametrize("layers", [1, 2])
class TestIncrementalForwardStream:
    """The serving step APIs must reproduce the batch forward stream.

    ``new_forward_state`` + ``extend_forward_state`` is the from-scratch
    incremental path; ``forward_stream_with_capture`` +
    ``state_from_capture`` is the vectorized warm-up that resumes it
    mid-sequence.  Both must track ``forward_stream`` to roundoff.
    """

    ATOL = 1e-12

    def test_stepwise_matches_batch(self, name, layers):
        encoder = encoder_factory(name, layers)
        encoder.eval()
        x = RNG.normal(size=(3, LENGTH, DIM))
        with no_grad():
            reference = encoder.forward_stream(Tensor(x)).data
            state = encoder.new_forward_state(3)
            stepped = np.stack(
                [encoder.extend_forward_state(state, x[:, t])
                 for t in range(LENGTH)], axis=1)
        np.testing.assert_allclose(stepped, reference, rtol=0,
                                   atol=self.ATOL)
        assert state.length == LENGTH
        assert state.nbytes > 0

    def test_capture_resumes_incrementally(self, name, layers):
        encoder = encoder_factory(name, layers)
        encoder.eval()
        x = RNG.normal(size=(2, LENGTH + 1, DIM))
        with no_grad():
            _, capture = encoder.forward_stream_with_capture(
                Tensor(x[:, :LENGTH]))
            state = encoder.state_from_capture(capture, [0, 1], LENGTH)
            extended = encoder.extend_forward_state(state, x[:, LENGTH])
            reference = encoder.forward_stream(Tensor(x)).data
        np.testing.assert_allclose(extended, reference[:, LENGTH],
                                   rtol=0, atol=self.ATOL)


def kernel_inputs(case):
    """``(interactions, key mask)`` for one kernel-vs-graph parity case."""
    rng = np.random.default_rng(17)
    if case == "length_one":
        return rng.normal(size=(2, 1, DIM)), np.ones((2, 1), dtype=bool)
    if case == "single_row":
        return rng.normal(size=(1, LENGTH, DIM)), None
    mask = np.ones((3, LENGTH), dtype=bool)
    mask[1, 4:] = False
    mask[2, 1:] = False
    if case == "masked_row":
        mask[0] = False  # no real key at all: every query row fully masked
    return rng.normal(size=(3, LENGTH, DIM)), mask


def attention_layers(encoder):
    return [block.attention
            for stack in (encoder.forward_stack, encoder.backward_stack)
            for block in stack.blocks]


@pytest.mark.parametrize("name", ["sakt", "akt"])
@pytest.mark.parametrize("layers", [1, 2])
class TestAttentionKernelParity:
    """The no-grad attention kernel against the grad-enabled ``Tensor``
    path it replaces in eval mode."""

    ATOL = 1e-12

    @pytest.mark.parametrize("case", ["ragged", "masked_row", "length_one",
                                      "single_row"])
    def test_streams_match_graph_path(self, name, layers, case):
        encoder = encoder_factory(name, layers)
        encoder.eval()
        x, mask = kernel_inputs(case)
        for stream in (encoder.forward_stream, encoder.backward_stream):
            graph = stream(Tensor(x), mask=mask)
            assert graph.requires_grad  # grad on: the Tensor path ran
            for attention in attention_layers(encoder):
                attention.last_weights = None
            with no_grad():
                kernel = stream(Tensor(x), mask=mask).data
            # The kernel keeps no attention weights: it really ran.
            assert all(attention.last_weights is None
                       for attention in attention_layers(encoder))
            np.testing.assert_allclose(kernel, graph.data, rtol=0,
                                       atol=self.ATOL)

    def test_captured_kv_match_graph_projections(self, name, layers):
        encoder = encoder_factory(name, layers)
        encoder.eval()
        x, mask = kernel_inputs("ragged")
        with no_grad():
            outputs, capture = encoder.forward_stream_with_capture(
                Tensor(x), mask=mask)
        stack = encoder.forward_stack
        allowed = nn.causal_mask(LENGTH, strict=False)[None, None] \
            & mask[:, None, None, :]
        hidden = stack.positions(Tensor(x))
        assert len(capture) == layers
        for block, (keys, values) in zip(stack.blocks, capture):
            np.testing.assert_allclose(
                keys, block.attention.key_proj(hidden).data,
                rtol=0, atol=self.ATOL)
            np.testing.assert_allclose(
                values, block.attention.value_proj(hidden).data,
                rtol=0, atol=self.ATOL)
            hidden = block(hidden, mask=allowed)
        np.testing.assert_allclose(outputs, hidden.data, rtol=0,
                                   atol=self.ATOL)

    def test_training_mode_keeps_graph_path(self, name, layers):
        """Dropout stays live in train mode even under ``no_grad``."""
        encoder = encoder_factory(name, layers, dropout=0.5)
        encoder.train()
        x, mask = kernel_inputs("ragged")
        attention = encoder.forward_stack.blocks[0].attention
        attention.last_weights = None
        with no_grad():
            first = encoder.forward_stream(Tensor(x), mask=mask).data
            second = encoder.forward_stream(Tensor(x), mask=mask).data
        assert attention.last_weights is not None  # the Tensor path ran
        assert not np.allclose(first, second)      # with dropout drawn


@pytest.mark.parametrize("layers", [1, 2, 3])
class TestLSTMKernelParity:
    """The no-grad wavefront kernel (:func:`repro.nn.lstm_stack_inference`)
    against the grad-enabled ``Tensor`` path it replaces in eval mode."""

    ATOL = 1e-12

    @pytest.mark.parametrize("case", ["ragged", "masked_row", "length_one",
                                      "single_row"])
    def test_streams_match_graph_path(self, layers, case, monkeypatch):
        encoder = encoder_factory("dkt", layers)
        encoder.eval()
        x, mask = kernel_inputs(case)
        kernel = nn.lstm_stack_inference
        calls = []

        def counted(*args):
            calls.append(len(args[0]))
            return kernel(*args)

        monkeypatch.setattr(nn, "lstm_stack_inference", counted)
        for stream in (encoder.forward_stream, encoder.backward_stream):
            graph = stream(Tensor(x), mask=mask)
            assert graph.requires_grad  # grad on: the Tensor path ran
            with no_grad():
                fused = stream(Tensor(x), mask=mask).data
            np.testing.assert_allclose(fused, graph.data, rtol=0,
                                       atol=self.ATOL)
        # One kernel call per stream, over the whole stack.
        assert calls == [layers, layers]

    def test_capture_states_match_stepwise_extension(self, layers):
        encoder = encoder_factory("dkt", layers)
        encoder.eval()
        x, mask = kernel_inputs("ragged")
        with no_grad():
            outputs, capture = encoder.forward_stream_with_capture(
                Tensor(x), mask=mask)
        for row, length in enumerate(mask.sum(axis=1)):
            state = encoder.new_forward_state(1)
            for t in range(length):
                stepped = encoder.extend_forward_state(
                    state, x[row:row + 1, t])
                np.testing.assert_allclose(stepped[0], outputs[row, t],
                                           rtol=0, atol=self.ATOL)
            captured = encoder.state_from_capture(capture, [row], length)
            for layer in range(layers):
                np.testing.assert_allclose(captured.h[layer], state.h[layer],
                                           rtol=0, atol=self.ATOL)
                np.testing.assert_allclose(captured.c[layer], state.c[layer],
                                           rtol=0, atol=self.ATOL)

    def test_training_mode_under_no_grad_runs_layer_by_layer(
            self, layers, monkeypatch):
        """Train mode keeps dropout live between layers, so the stack is
        not fused: each layer runs the kernel on its own."""
        encoder = encoder_factory("dkt", layers, dropout=0.5)
        encoder.train()
        x, mask = kernel_inputs("ragged")
        kernel = nn.rnn.lstm_stack_inference
        calls = []

        def counted(*args):
            calls.append(len(args[0]))
            return kernel(*args)

        monkeypatch.setattr(nn.rnn, "lstm_stack_inference", counted)
        with no_grad():
            encoder.forward_stream(Tensor(x), mask=mask)
        assert calls == [1] * layers


class TestLSTMKernelGeometry:
    """A row's values do not depend on the rows batched with it.

    docs/CLUSTER.md promises bit-identical dkt replies whichever shard
    and chunk a probe lands in; with the kernel's row blocks that needs
    every row to round the same in any block of any size.  Three layers
    at dim 32 give 21 rows per block, so 37 rows span two blocks.
    """

    DIM = 32
    LAYERS = 3

    def test_backward_stream_alone_matches_ragged_chunk(self):
        per_row = (self.LAYERS * self.DIM) * (self.LAYERS * 4 * self.DIM)
        assert nn.rnn.MAX_GEMM_MNK // per_row < 37  # two row blocks
        encoder = build_encoder("dkt", self.DIM, self.LAYERS,
                                np.random.default_rng(5))
        encoder.eval()
        rng = np.random.default_rng(41)
        x = rng.normal(size=(37, 12, self.DIM))
        lengths = rng.integers(8, 13, size=37)
        mask = np.arange(12)[None] < lengths[:, None]
        with no_grad():
            chunk = encoder.backward_stream(Tensor(x), mask=mask).data
            for row in (0, 20, 36):
                length = lengths[row]
                alone = encoder.backward_stream(
                    Tensor(x[row:row + 1, :length])).data
                assert np.array_equal(alone[0], chunk[row, :length])

    def test_served_score_alone_matches_batched_chunk(self):
        from repro.core import RCKT, RCKTConfig
        from repro.serve import InferenceEngine, ScoreQuery, Service

        model = RCKT(30, 5, RCKTConfig(encoder="dkt", dim=self.DIM,
                                       layers=self.LAYERS, seed=3))
        rng = np.random.default_rng(43)
        histories = {
            f"s{s}": [(int(rng.integers(1, 30)), int(rng.integers(0, 2)),
                       (int(rng.integers(1, 5)),))
                      for _ in range(int(rng.integers(10, 13)))]
            for s in range(10)
        }
        probes = [ScoreQuery(student, 1 + s, (1 + s % 4,))
                  for s, student in enumerate(histories)]

        def served(queries):
            engine = InferenceEngine(model)
            for student, events in histories.items():
                for question, correct, concepts in events:
                    engine.record(student, question, correct, concepts)
            replies = Service(engine).execute_batch(queries)
            assert all(reply.ok for reply in replies), replies
            return [reply.score for reply in replies]

        # Ten probes: a 30-row warm-build and 40 backward rows in one
        # column-banded chunk, each over two row blocks.
        batched = served(probes)
        for index in (0, 9):
            assert served([probes[index]]) == [batched[index]]
