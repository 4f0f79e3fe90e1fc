"""Table VI — response influence approximation analysis.

Regenerates: RCKT inference before (one counterfactual per past response)
vs after (two counterfactual sequences total) the approximation, on the
ASSIST09 profile with DKT and AKT encoders (Sec. V-G).
Shape target: the approximated path is substantially faster at comparable
quality.  The paper reports ~20x on a GPU where the 'before' path runs t
separate sequences; our 'before' path batches the t counterfactual rows in
one pass, so the measured speedup reflects the FLOP ratio instead of the
pass-count ratio — still clearly > 1 and growing with history length.
"""

import numpy as np

from repro.experiments import Budget, run_approximation


def test_table6_approximation(benchmark, save_artifact):
    budget = Budget.from_env(dim=32)
    result = benchmark.pedantic(
        run_approximation,
        kwargs=dict(encoders=("dkt", "akt"), budget=budget,
                    max_eval_sequences=16),
        rounds=1, iterations=1)
    save_artifact("table6_approximation", result.render())
    # Wall-clock numbers change on every run, so they go to a
    # git-ignored file: the committed table moves only when AUC/ACC do.
    save_artifact("table6_approximation_timings", result.render_timings())

    for encoder in ("dkt", "akt"):
        modes = result.metrics[encoder]
        # Speedup direction matches the paper.
        assert result.speedup(encoder) > 1.2, \
            f"approximation gave no speedup for {encoder}"
        # Quality comparable at bench scale.  The eval slice is ~12
        # positive/negative pairs, so AUC moves in steps of 1/12: the
        # threshold must sit above a few rank swaps of granularity or it
        # turns into a noise test (the Eq. 23 pad-masking fix legitimately
        # shifted these tiny-corpus AUCs by exactly one such step).
        if np.isfinite(modes["before"]["auc"]) and \
                np.isfinite(modes["after"]["auc"]):
            assert abs(modes["before"]["auc"] - modes["after"]["auc"]) < 0.4
