"""Benchmark regression gate for CI.

Compares a fresh ``bench_inference.py --quick`` result against the
committed ``BENCH_inference.json`` baseline and fails (exit 1) when:

* **throughput regression** — a (section, encoder) pair present in
  both files lost more than ``MAX_REGRESSION`` (25%) of its baseline
  *speedup*.  Speedups are ratios of two arms measured on the same
  machine in the same process, so they transfer across hardware the
  way absolute requests/sec never could.  A collapsing ratio means
  the optimized arm lost ground against its reference arm: either the
  optimized path got slower, or the reference arm got faster (a shared
  kernel that speeds up both arms shrinks the ratio when it helps the
  reference more).  Each gated ratio is printed next to both arms'
  absolute throughput, fresh and baseline, so the log tells which.
* **observability overhead** — the ``obs`` section's ``overhead_pct``
  (wall-time cost of the enabled metrics registry vs a disabled one on
  interleaved identical batches) exceeds ``MAX_OBS_OVERHEAD`` (2%, the
  budget ``docs/OBSERVABILITY.md`` commits to).  Like the speedups
  this is a same-machine ratio, so it travels across hardware; unlike
  them it is gated absolutely, not against the baseline — creeping
  instrumentation cost is a regression even if the baseline already
  paid it.

Whether the two arms of a section answer identically is not checked
here: the tier-1 parity, oracle and bit-identity suites own that.

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

#: Largest tolerated loss of a section's baseline speedup (0.25 = 25%).
MAX_REGRESSION = 0.25
#: Budget for the ``obs`` section's ``overhead_pct``, in percent.
MAX_OBS_OVERHEAD = 2.0

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

    for section, arms in THROUGHPUT_GATED.items():
        baseline_entries = dict(iter_entries(baseline, section))
        for encoder, entry in iter_entries(fresh, section):
            reference = baseline_entries.get(encoder)
            if reference is None:
                continue
            if "speedup" not in entry or "speedup" not in reference:
                continue
            checked += 1
            floor = (1.0 - MAX_REGRESSION) * reference["speedup"]
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
                    f"- {MAX_REGRESSION:.0%})"
                )

    for encoder, entry in iter_entries(fresh, "obs"):
        overhead = entry.get("overhead_pct")
        if overhead is None:
            continue
        checked += 1
        status = "ok" if overhead <= MAX_OBS_OVERHEAD else "REGRESSION"
        print(
            f"obs/{encoder}: instrumentation overhead {overhead:.2f}% "
            f"(budget {MAX_OBS_OVERHEAD:.1f}%) {status}"
        )
        print(f"  arms: {describe_arms(entry, OBS_ARMS)}")
        if status != "ok":
            failures.append(
                f"obs/{encoder}: instrumentation overhead {overhead:.2f}% "
                f"exceeds the {MAX_OBS_OVERHEAD:.1f}% budget"
            )

    if failures:
        print(f"\ncheck_regression: {len(failures)} failure(s)")
        for failure in failures:
            print(f"  FAIL {failure}")
        return 1
    print(f"\ncheck_regression: ok ({checked} gated entries checked)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
