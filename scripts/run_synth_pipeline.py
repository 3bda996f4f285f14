"""Run the whole pipeline on a synthetic panel with one command.

Chains the CLI stages (synth, select-features, train-effects, effects-curve,
train, forecast, evaluate) into a single output directory, so the artifact
set documented in the README appears in one place.  Any config field can
still be overridden from here, e.g.:

    python3 scripts/run_synth_pipeline.py --out runs/demo --seed 3 \
        --set synth.series_count=6 --set forecaster_train.epochs=30
"""

import argparse
import sys

from demandnet.cli import main as demandnet_main

STAGES = ("synth", "select-features", "train-effects", "effects-curve",
          "train", "forecast", "evaluate")

# Desk-scale operating point: minutes on a laptop CPU instead of hours.
DESK_SCALE = (
    "tau=24",
    "hidden=32",
    "horizons=[10,20,40,80]",
    "kappa=50",
    "forecaster_train.epochs=15",
    "eval_seeds=[0,1,2]",
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", default="artifacts", help="output directory")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="extra config overrides (repeatable)")
    parser.add_argument("--published-scale", action="store_true",
                        help="drop the desk-scale overrides only, so every "
                             "stage runs at the RunConfig() defaults (2x48, 30 "
                             "forecaster epochs; slower, and still not the "
                             "published 2x128/100-epoch point)")
    args = parser.parse_args()

    overrides = [] if args.published_scale else list(DESK_SCALE)
    overrides += args.set
    for stage in STAGES:
        argv = [stage, "--out", args.out, "--seed", str(args.seed)]
        if args.config:
            argv += ["--config", args.config]
        for item in overrides:
            argv += ["--set", item]
        print(f"==> demandnet {stage}")
        code = demandnet_main(argv)
        if code != 0:
            print(f"stage {stage} failed with exit code {code}", file=sys.stderr)
            return code
    print(f"done; artifacts in {args.out}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
