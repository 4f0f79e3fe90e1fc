"""LSTM correctness: shapes, causality, reversal, gradients."""

import numpy as np

from repro import nn
from repro.tensor import Tensor
from repro.utils import gradcheck

RNG = np.random.default_rng(11)


class TestLSTMCell:
    def test_step_shapes(self):
        cell = nn.LSTMCell(4, 8, RNG)
        h, c = cell.initial_state(3)
        h2, c2 = cell(Tensor(RNG.normal(size=(3, 4))), (h, c))
        assert h2.shape == (3, 8) and c2.shape == (3, 8)

    def test_forget_bias_initialized_to_one(self):
        cell = nn.LSTMCell(4, 8, RNG)
        assert np.all(cell.bias.data[8:16] == 1.0)

    def test_state_changes_with_input(self):
        cell = nn.LSTMCell(2, 4, RNG)
        state = cell.initial_state(1)
        h1, _ = cell(Tensor([[1.0, 0.0]]), state)
        h2, _ = cell(Tensor([[0.0, 1.0]]), state)
        assert not np.allclose(h1.data, h2.data)


class TestLSTM:
    def test_output_shape(self):
        lstm = nn.LSTM(4, 6, RNG)
        out = lstm(Tensor(RNG.normal(size=(2, 5, 4))))
        assert out.shape == (2, 5, 6)

    def test_forward_is_causal(self):
        """Changing input at step t must not affect outputs before t."""
        lstm = nn.LSTM(3, 5, RNG)
        x = RNG.normal(size=(1, 6, 3))
        base = lstm(Tensor(x)).data.copy()
        perturbed = x.copy()
        perturbed[0, 4] += 10.0
        out = lstm(Tensor(perturbed)).data
        assert np.allclose(out[0, :4], base[0, :4])
        assert not np.allclose(out[0, 4:], base[0, 4:])

    def test_reverse_is_anticausal(self):
        lstm = nn.LSTM(3, 5, RNG, reverse=True)
        x = RNG.normal(size=(1, 6, 3))
        base = lstm(Tensor(x)).data.copy()
        perturbed = x.copy()
        perturbed[0, 1] += 10.0
        out = lstm(Tensor(perturbed)).data
        # Positions after the perturbation (2..5) see nothing.
        assert np.allclose(out[0, 2:], base[0, 2:])
        assert not np.allclose(out[0, :2], base[0, :2])

    def test_gradcheck_small(self):
        lstm = nn.LSTM(2, 3, RNG)
        x = Tensor(RNG.normal(size=(1, 3, 2)), requires_grad=True)
        gradcheck(lambda t: (lstm(t) ** 2).sum(), [x], atol=1e-4)

    def test_gradients_reach_weights(self):
        lstm = nn.LSTM(2, 3, RNG)
        x = Tensor(RNG.normal(size=(2, 4, 2)))
        lstm(x).sum().backward()
        assert all(p.grad is not None for p in lstm.parameters())


class TestBiLSTM:
    def test_directions_differ(self):
        bi = nn.BiLSTM(3, 4, RNG)
        fwd, bwd = bi(Tensor(RNG.normal(size=(2, 5, 3))))
        assert fwd.shape == bwd.shape == (2, 5, 4)
        assert not np.allclose(fwd.data, bwd.data)

    def test_backward_stream_summarizes_suffix(self):
        bi = nn.BiLSTM(2, 4, RNG)
        x = RNG.normal(size=(1, 5, 2))
        _, bwd = bi(Tensor(x))
        base = bwd.data.copy()
        perturbed = x.copy()
        perturbed[0, 0] += 5.0  # first position
        _, bwd2 = bi(Tensor(perturbed))
        # backward stream at position >= 1 ignores position 0
        assert np.allclose(bwd2.data[0, 1:], base[0, 1:])


class TestMaskedLSTM:
    """Truncated masks must reproduce exact-length runs (up to gemm-shape
    ulps) — the invariant the multi-target fast path stands on."""

    def test_masked_rows_match_short_runs_exactly(self):
        from repro.tensor import no_grad
        lstm = nn.LSTM(3, 4, RNG)
        reverse = nn.LSTM(3, 4, RNG, reverse=True)
        x = RNG.normal(size=(2, 6, 3))
        mask = np.zeros((2, 6), dtype=bool)
        mask[0, :4] = True
        mask[1, :6] = True
        with no_grad():
            padded_fwd = lstm(Tensor(x), mask=mask).data
            padded_bwd = reverse(Tensor(x), mask=mask).data
            exact_fwd = lstm(Tensor(x[:1, :4])).data
            exact_bwd = reverse(Tensor(x[:1, :4])).data
        np.testing.assert_allclose(padded_fwd[0, :4], exact_fwd[0],
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(padded_bwd[0, :4], exact_bwd[0],
                                   rtol=0, atol=1e-12)
        # Masked steps carry state: the reversed stream reaches the last
        # real position with its initial (zero) state intact.
        assert np.array_equal(padded_bwd[0, 4:], np.zeros((2, 4)))

    def test_graph_and_kernel_paths_agree(self):
        from repro.tensor import no_grad
        lstm = nn.LSTM(2, 3, RNG)
        x = RNG.normal(size=(3, 5, 2))
        mask = np.ones((3, 5), dtype=bool)
        mask[1, 3:] = False
        graph = lstm(Tensor(x), mask=mask)
        assert graph.requires_grad  # grad on: the autograd cell ran
        with no_grad():
            kernel = lstm(Tensor(x), mask=mask).data
        np.testing.assert_allclose(kernel, graph.data, rtol=0, atol=1e-12)

    def test_all_true_mask_matches_no_mask(self):
        from repro.tensor import no_grad
        lstm = nn.LSTM(2, 3, RNG)
        x = RNG.normal(size=(2, 4, 2))
        with no_grad():
            masked = lstm(Tensor(x), mask=np.ones((2, 4), dtype=bool)).data
            plain = lstm(Tensor(x)).data
        assert np.array_equal(masked, plain)
