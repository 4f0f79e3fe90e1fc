"""Benchmark regression gate for CI.

Compares a fresh ``bench_inference.py --quick`` result against the
committed ``BENCH_inference.json`` baseline and fails (exit 1) when:

* **score drift** — any section of the fresh run reports a
  ``max_abs_score_diff`` above roundoff (``--drift-threshold``,
  default 1e-9).  Every benchmark workload doubles as a parity check
  between an optimized path and its golden reference, so drift here
  means a numerics regression, not noise.
* **throughput regression** — a (section, encoder) pair present in
  both files lost more than ``--max-regression`` (default 25%) of its
  baseline *speedup*.  Speedups are ratios of two arms measured on the
  same machine in the same process, so they transfer across hardware
  the way absolute requests/sec never could.  A collapsing ratio means
  the optimized arm lost ground against its reference arm: either the
  optimized path got slower, or the reference arm got faster (a shared
  kernel that speeds up both arms shrinks the ratio when it helps the
  reference more).  Each gated ratio is printed next to both arms'
  absolute throughput, fresh and baseline, so the log tells which.
* **observability overhead** — the ``obs`` section's ``overhead_pct``
  (wall-time cost of the enabled metrics registry vs a disabled one on
  interleaved identical batches) exceeds ``--max-obs-overhead``
  (default 2%, the budget ``docs/OBSERVABILITY.md`` commits to).  Like
  the speedups this is a same-machine ratio, so it travels across
  hardware; unlike them it is gated absolutely, not against the
  baseline — creeping instrumentation cost is a regression even if the
  baseline already paid it.

Usage (what ``.github/workflows/ci.yml`` runs after the smoke step)::

    PYTHONPATH=src python benchmarks/bench_inference.py --quick \\
        --output BENCH_fresh.json
    python benchmarks/check_regression.py BENCH_fresh.json \\
        --baseline BENCH_inference_quick.json

Two baselines are committed: ``BENCH_inference.json`` (full run, the
showcase numbers) and ``BENCH_inference_quick.json`` (quick mode, the
CI gate reference — like-for-like with what CI regenerates).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

SECTIONS = (
    "eval_sweep",
    "serving",
    "serving_incremental",
    "long_context",
    "service_layer",
    "cluster",
    "journal",
    "recourse",
    "online",
    "obs",
)

# The cluster section measures hardware parallelism, not an algorithmic
# win: its 2-shard-vs-1 ratio is hardware-bound (~1x on single-core
# runners, ~2x on multi-core hosts) and the noise floor of tiny
# quick-mode timings dominates, so only its drift entry is gated, which
# is the strictest check in the file: routed replies must be
# *bit-identical* to a single in-process Service, so any non-zero diff
# is a routing bug.
# (long_context's speedup, by contrast, is an algorithmic ratio — full
# history vs window — and its drift entry compares windowed scores to a
# from-scratch recompute on the window, so both checks apply.
# service_layer's speedup is likewise algorithmic — one coalesced
# mixed-type batch vs per-query execution on the same machine — and its
# drift entry spans batched-vs-single and wire-vs-in-process scores.)
# The journal section's speedup (cold boot from snapshot vs from the
# full segment log) is algorithmic, but quick-mode boots are a few
# milliseconds and filesystem-cache noise swamps the ratio, so only
# its drift entry is gated: 0.0 means the full-log, snapshot, and
# in-memory replay streams were identical (ordering + dedup held
# across every storage boundary); anything else is a journal bug.
# The recourse section has no speedup ratio at all — its timed quantity
# (worlds per second through a beam search) depends on how many edits
# each random probe needs, so a throughput gate would be gating the
# search *inputs*.  Its drift entry is the contract: every returned
# path's final score must match a from-scratch rescore of the edited
# timeline; worlds_per_forward_call is reported for eyeballing the
# coalescing ratio (the exact batching contract is pinned by tests).
# The online section (the serve->train continual loop) likewise emits
# no speedup — there is no legacy arm to race, only absolute replay /
# prequential throughput that would gate the runner's hardware — so
# only its drift entry is gated.  That entry is the loop's bit-exactness
# contract twice over: journal-replayed training batches identical to
# batches built from the original sequences (1.0 when broken), and the
# drift-gate-approved rolled-out service scoring exactly like a fresh
# service booted from the refreshed checkpoint.
# The obs section has no speedup either — its headline is
# ``overhead_pct``, the wall-time cost of the enabled metrics registry
# over a disabled one on interleaved identical batches, which gets its
# own absolute gate below (``--max-obs-overhead``, default 2%: the
# budget docs/OBSERVABILITY.md commits to).  Its drift entry is gated
# like the rest at literal-zero tolerance in spirit: telemetry must
# never perturb scores, so both arms are compared bit-for-bit.
# Section -> (optimized arm, reference arm): the throughput keys whose
# ratio is the section's speedup, printed next to it.
THROUGHPUT_GATED = {
    "eval_sweep": ("fast_targets_per_sec", "legacy_targets_per_sec"),
    "serving": ("fast_targets_per_sec", "legacy_targets_per_sec"),
    "serving_incremental": ("cached_targets_per_sec", "nocache_targets_per_sec"),
    "long_context": ("windowed_probes_per_sec", "full_probes_per_sec"),
    "service_layer": ("batched_queries_per_sec", "single_queries_per_sec"),
}
OBS_ARMS = ("instrumented_requests_per_sec", "disabled_requests_per_sec")


def load(path: str) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except FileNotFoundError:
        sys.exit(f"check_regression: {path} not found")
    except json.JSONDecodeError as error:
        sys.exit(f"check_regression: {path} is not valid JSON ({error})")


def iter_entries(results: dict, section: str):
    for encoder, entry in sorted(results.get(section, {}).items()):
        yield encoder, entry


def describe_arms(entry: dict, arms: tuple) -> str:
    """``fast 620.4/s vs legacy 104.3/s``: both arms' absolute throughput."""
    return " vs ".join(
        f"{arm.split('_')[0]} {entry[arm]:.1f}/s" for arm in arms if arm in entry
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("fresh", help="freshly generated benchmark JSON")
    parser.add_argument("--baseline", default="BENCH_inference.json")
    parser.add_argument(
        "--max-regression",
        type=float,
        default=0.25,
        help="maximum tolerated relative speedup loss (0.25 = 25%%)",
    )
    parser.add_argument(
        "--drift-threshold",
        type=float,
        default=1e-9,
        help="maximum tolerated max_abs_score_diff in the fresh run",
    )
    parser.add_argument(
        "--max-obs-overhead",
        type=float,
        default=2.0,
        help="maximum tolerated obs-section overhead_pct (metrics "
             "registry wall-time cost over a disabled registry)",
    )
    args = parser.parse_args()

    fresh = load(args.fresh)
    baseline = load(args.baseline)
    failures = []
    checked = 0

    if fresh.get("quick") != baseline.get("quick"):
        # Quick and full runs measure different corpora/strides, which
        # systematically biases the speedups being compared — enough to
        # eat much of the regression allowance.  CI gates a --quick run
        # against the committed quick-mode baseline for this reason.
        print(
            f"warning: comparing quick={fresh.get('quick')} run against "
            f"quick={baseline.get('quick')} baseline; speedups are not "
            f"like-for-like"
        )

    for section in SECTIONS:
        for encoder, entry in iter_entries(fresh, section):
            drift = entry.get("max_abs_score_diff")
            if drift is not None and drift > args.drift_threshold:
                failures.append(
                    f"{section}/{encoder}: score drift {drift:.3e} exceeds "
                    f"{args.drift_threshold:.1e}"
                )
            checked += 1

    for section, arms in THROUGHPUT_GATED.items():
        baseline_entries = dict(iter_entries(baseline, section))
        for encoder, entry in iter_entries(fresh, section):
            reference = baseline_entries.get(encoder)
            if reference is None:
                continue
            if "speedup" not in entry or "speedup" not in reference:
                continue
            floor = (1.0 - args.max_regression) * reference["speedup"]
            status = "ok" if entry["speedup"] >= floor else "REGRESSION"
            print(
                f"{section}/{encoder}: speedup {entry['speedup']:.2f}x "
                f"(baseline {reference['speedup']:.2f}x, floor "
                f"{floor:.2f}x) {status}"
            )
            print(
                f"  arms: {describe_arms(entry, arms)} "
                f"(baseline {describe_arms(reference, arms)})"
            )
            if status != "ok":
                failures.append(
                    f"{section}/{encoder}: speedup {entry['speedup']:.2f}x "
                    f"fell below {floor:.2f}x "
                    f"(baseline {reference['speedup']:.2f}x "
                    f"- {args.max_regression:.0%})"
                )

    for encoder, entry in iter_entries(fresh, "obs"):
        overhead = entry.get("overhead_pct")
        if overhead is None:
            continue
        status = "ok" if overhead <= args.max_obs_overhead else "REGRESSION"
        print(
            f"obs/{encoder}: instrumentation overhead {overhead:.2f}% "
            f"(budget {args.max_obs_overhead:.1f}%) {status}"
        )
        print(f"  arms: {describe_arms(entry, OBS_ARMS)}")
        if status != "ok":
            failures.append(
                f"obs/{encoder}: instrumentation overhead {overhead:.2f}% "
                f"exceeds the {args.max_obs_overhead:.1f}% budget"
            )

    if failures:
        print(f"\ncheck_regression: {len(failures)} failure(s)")
        for failure in failures:
            print(f"  FAIL {failure}")
        return 1
    print(f"\ncheck_regression: ok ({checked} section entries checked)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
