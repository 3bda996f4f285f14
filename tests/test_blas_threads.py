"""Every CLI artifact carries the same bytes at one and at two BLAS threads.

A BLAS may split a matrix product over threads and sum in another order,
so this runs a small chain twice, in fresh processes, at
``OPENBLAS_NUM_THREADS=1`` and ``=2``.  The stack is two layers of 96
units, so training runs as the wavefront, with a forked worker, and its
products are large enough for OpenBLAS to use both threads.
"""

import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

RUN = {
    "cell": "lstm",
    "tau": 16,
    "hidden": 96,
    "layers": 2,
    "horizons": [5, 10],
    "kappa": 8,
    "dropout_candidates": [0.1, 0.3],
    "effects_width": 64,
    "effects_train": {"optimizer": "sgd", "learning_rate": 0.05,
                      "epochs": 3, "batch_size": 128},
    "forecaster_train": {"optimizer": "adam", "learning_rate": 3e-3,
                         "epochs": 2, "batch_size": 64},
    "eval_methods": ["demandnet", "ar"],
    "eval_seeds": [0],
    "synth": {"series_count": 4, "length": 150},
}

COMMANDS = ("synth", "select-features", "train-effects", "effects-curve", "train",
            "forecast", "evaluate")

# runs the chain, then prints the thread count the bundled OpenBLAS reports
# (-1 when numpy links another BLAS): training holds it at one and restores
# it, so it reads the requested count
DRIVER = """
import sys
from demandnet.cli import main
from demandnet.nn.recurrent import _openblas
config, out = sys.argv[1:3]
for command in sys.argv[3:]:
    if main([command, "--config", config, "--out", out]) != 0:
        sys.exit(f"{command} failed")
blas = _openblas()
print(blas[0]() if blas else -1)
"""


def _artifacts(config: str, out: str, threads: int) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
               PYTHONPATH=os.path.join(ROOT, "src"))
    done = subprocess.run([sys.executable, "-c", DRIVER, config, out, *COMMANDS],
                          capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    assert int(done.stdout.split()[-1]) in (threads, -1)
    files = {}
    for name in sorted(os.listdir(out)):
        with open(os.path.join(out, name), "rb") as fh:
            files[name] = fh.read()
    shutil.rmtree(out)  # the next run writes the same paths into its manifest
    return files


def test_every_artifact_is_bitwise_equal_at_one_and_two_blas_threads(tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps(RUN))
    out = str(tmp_path / "out")
    one, two = (_artifacts(str(config), out, threads) for threads in (1, 2))
    assert "forecaster.npz" in one and "evaluation.csv" in one
    assert sorted(one) == sorted(two)
    assert [name for name in one if one[name] != two[name]] == []
