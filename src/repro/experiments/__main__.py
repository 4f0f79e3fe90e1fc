"""Command-line runner: regenerate any paper table/figure from a shell.

Usage::

    python -m repro.experiments table2
    python -m repro.experiments table4 --models DKT RCKT-DKT --datasets assist09
    python -m repro.experiments table5
    python -m repro.experiments table6
    python -m repro.experiments fig4
    python -m repro.experiments fig5
    python -m repro.experiments fig6
    python -m repro.experiments cv --datasets assist09 --models DKT RCKT-DKT

Scale with ``REPRO_SCALE`` / ``REPRO_EPOCHS`` environment variables or the
``--epochs`` flag.
"""

from __future__ import annotations

import argparse
import sys

from . import (Budget, cached_dataset, run_ablation, run_approximation,
               run_case_study, run_cross_validation, run_lambda_sweep,
               run_overall, run_proficiency_figure, run_table2)

EXPERIMENTS = ("table2", "table4", "table5", "table6",
               "fig4", "fig5", "fig6", "cv")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the RCKT paper's tables and figures.")
    parser.add_argument("experiment", choices=EXPERIMENTS)
    parser.add_argument("--models", nargs="*", default=None,
                        help="subset of models (table4 / cv)")
    parser.add_argument("--datasets", nargs="*", default=None,
                        help="subset of dataset profiles")
    parser.add_argument("--epochs", type=int, default=None,
                        help="training epochs (overrides REPRO_EPOCHS)")
    parser.add_argument("--folds", type=int, default=3,
                        help="folds for the cv experiment")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    budget = Budget.from_env() if args.epochs is None \
        else Budget.from_env(epochs=args.epochs)

    if args.experiment == "table2":
        print(run_table2(datasets=args.datasets).render())
    elif args.experiment == "table4":
        print(run_overall(models=args.models, datasets=args.datasets,
                          budget=budget).render())
    elif args.experiment == "table5":
        print(run_ablation(datasets=tuple(args.datasets or ("assist09",)),
                           budget=budget).render())
    elif args.experiment == "table6":
        result = run_approximation(encoders=("dkt", "akt"), budget=budget)
        print(result.render())
        print(result.render_timings())
    elif args.experiment == "fig4":
        print(run_lambda_sweep(datasets=tuple(args.datasets or ("assist09",)),
                               budget=budget).render())
    elif args.experiment == "fig5":
        print(run_proficiency_figure(budget=budget).render())
    elif args.experiment == "fig6":
        print(run_case_study(budget=budget).render())
    elif args.experiment == "cv":
        datasets = args.datasets or ["assist09"]
        models = args.models or ["DKT", "RCKT-DKT"]
        for name in datasets:
            dataset = cached_dataset(name)
            result = run_cross_validation(dataset, name, models,
                                          k=args.folds, budget=budget)
            print(result.render())
            if len(models) >= 2:
                p = result.significance(models[-1], models[0])
                print(f"paired t-test {models[-1]} vs {models[0]}: "
                      f"p = {p:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
