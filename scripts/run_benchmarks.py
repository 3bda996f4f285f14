"""Benchmark the forecaster against tuned classical baselines.

Reports the split80 protocol (train on every series' first 80%, score the
last 10%) and the unseen protocol (hold entire series out of training) on
the synthetic panel, for both recurrent cells.  The defaults reproduce the
desk-scale numbers quoted in the README in a few CPU-minutes; raise
--epochs/--seeds for tighter estimates.
"""

import argparse
import sys
import time

import demandnet as dn
from demandnet.evaluation import run_split80, run_unseen
from demandnet.forecaster import ForecasterArch
from demandnet.nn.optim import TrainConfig
from demandnet.pipeline import PipelineConfig


def build_config(args, cell: str) -> PipelineConfig:
    return PipelineConfig(
        tau=args.tau,
        horizons=tuple(args.horizons),
        kappa=args.kappa,
        arch=ForecasterArch(cell=cell, hidden=args.hidden, layers=2, dropout=0.1),
        forecaster_train=TrainConfig(optimizer="adam", learning_rate=1e-3,
                                     epochs=args.epochs, batch_size=128),
        effects_train=TrainConfig(optimizer="sgd", learning_rate=0.05,
                                  epochs=40, batch_size=256),
        effects_width=16,
        dropout_candidates=(),
    )


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, default=3, help="number of seeds")
    parser.add_argument("--epochs", type=int, default=12)
    parser.add_argument("--tau", type=int, default=24)
    parser.add_argument("--hidden", type=int, default=24)
    parser.add_argument("--kappa", type=int, default=32)
    parser.add_argument("--horizons", type=int, nargs="+", default=[40, 80])
    parser.add_argument("--cells", nargs="+", default=["gru", "lstm"],
                        choices=["gru", "lstm"])
    parser.add_argument("--data-seed", type=int, default=0)
    return parser.parse_args(argv)


def main() -> int:
    args = parse_args()

    bundles = dn.synth_generate(dn.SynthConfig(), seed=args.data_seed)
    held = tuple(b.id for b in bundles[-2:])
    seeds = tuple(range(args.seeds))
    methods = ("demandnet", "exp_smoothing", "ar")

    for cell in args.cells:
        cfg = build_config(args, cell)
        t0 = time.time()
        seen = run_split80(bundles, methods, seeds, cfg)
        unseen = run_unseen(bundles, held, ("demandnet",), seeds, cfg)
        print(f"\n=== cell={cell} ({time.time() - t0:.0f}s) ===")
        print(seen.format_table())
        print(unseen.format_table())
    return 0


if __name__ == "__main__":
    sys.exit(main())
