"""Warm-builds share one model safely across threads.

``build_stream_caches`` receives each attention layer's projected keys
and values from the no-grad kernel by return value, so it never writes
the model: concurrent warm-builds and forward passes on one eval model
cannot observe each other's intermediates.
"""

import os
import sys
import threading

import numpy as np

from repro.core import RCKT, RCKTConfig
from repro.serve.forward_cache import build_stream_caches
from repro.serve.history import StudentHistory
from repro.tensor import Tensor, no_grad

NUM_QUESTIONS = 30
NUM_CONCEPTS = 6
DIM = 8
#: More threads than cores, so the scheduler interleaves them mid-pass.
THREADS = 2 * (os.cpu_count() or 1) + 2
ROUNDS = 5
TIMEOUT_S = 120.0
ATOL = 1e-12


def make_histories(seed):
    """Students whose count and lengths differ per thread, so every
    thread's key/value capture has its own shape."""
    rng = np.random.default_rng(seed)
    histories = []
    for index in range(1 + seed % 3):
        history = StudentHistory(f"t{seed}-s{index}")
        for _ in range(3 + seed + index):
            history.append(int(rng.integers(1, NUM_QUESTIONS + 1)),
                           int(rng.integers(0, 2)),
                           (int(rng.integers(1, NUM_CONCEPTS + 1)),))
        histories.append(history)
    return histories


def cache_arrays(caches):
    """Every array a list of stream caches holds."""
    arrays = []
    for cache in caches:
        arrays.append(cache.streams[:, :cache.length])
        arrays.append(cache.question_vectors[:cache.length])
        for kv_cache in cache.state.caches:
            arrays.extend(kv_cache.view())
    return arrays


def test_concurrent_warm_builds_and_forward_passes_do_not_cross():
    model = RCKT(NUM_QUESTIONS, NUM_CONCEPTS,
                 RCKTConfig(encoder="akt", dim=DIM, layers=2, seed=5))
    model.eval()
    encoder = model.generator.encoder
    workloads = [make_histories(seed) for seed in range(THREADS)]
    probes = [np.random.default_rng(100 + seed).normal(size=(2, 2 + seed, DIM))
              for seed in range(THREADS)]
    with no_grad():
        expected = [(cache_arrays(build_stream_caches(model, histories)),
                     encoder.forward_stream(Tensor(probe)).data)
                    for histories, probe in zip(workloads, probes)]

    failures = []
    barrier = threading.Barrier(THREADS)

    def run(index):
        want_caches, want_stream = expected[index]
        try:
            barrier.wait(timeout=TIMEOUT_S)
            with no_grad():
                for _ in range(ROUNDS):
                    caches = cache_arrays(
                        build_stream_caches(model, workloads[index]))
                    stream = encoder.forward_stream(
                        Tensor(probes[index])).data
                    assert len(caches) == len(want_caches)
                    for got, want in zip(caches, want_caches):
                        np.testing.assert_allclose(got, want, rtol=0,
                                                   atol=ATOL)
                    np.testing.assert_allclose(stream, want_stream, rtol=0,
                                               atol=ATOL)
        except Exception as error:  # noqa: BLE001 — reported below
            failures.append((index, repr(error)))

    threads = [threading.Thread(target=run, args=(index,), daemon=True)
               for index in range(THREADS)]
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=TIMEOUT_S)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)
    assert not failures, failures[:3]
