"""In-memory spans around calls into demandnet's public functions.

The tracer is installed at run time from the benchmark's own code; nothing
in ``src/`` knows about it.  A function imported by name (``from .activations
import sigmoid``) is a separate reference in every importing module, and a
registry such as ``nn.activations.ACTIVATIONS`` holds yet another one, so
:func:`install` replaces *every* reference to each original it finds in the
demandnet modules (and in the extra modules passed to it), then re-scans to
prove none is left.  Methods are patched on their classes.

Each call records a span ``[name, start, end, parent]``; a layer's self time
is its span's duration minus the durations of its direct children.  Counters
(elements, row-steps, computed GEMM flops, ...) are taken from argument and
result shapes at the same boundaries.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import os
import sys
from collections import Counter, defaultdict
from time import perf_counter

MC_SPAN = "forecaster.mc_forecast_batch"


class Tracer:
    """Span recorder: a flat list of spans plus a stack of open ones."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._open: list[int] = []
        self.counts: Counter = Counter()
        self.series: dict[str, set] = defaultdict(set)

    def inside(self, name: str) -> bool:
        """True while a span called ``name`` is open (the stack is shallow)."""
        return any(self.spans[i][0] == name for i in self._open)

    def wrap(self, name: str, fn, count=None):
        spans, stack = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            spans[idx][1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    count(self, result, *args, **kwargs)
                return result
            finally:
                spans[idx][2] = perf_counter()
                stack.pop()

        return traced

    def summary(self) -> dict[str, float]:
        """``<span>.calls`` and ``<span>.self_s`` for every span name, plus counters."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += (end - start) - child[i]
        out.update(self.counts)
        return dict(out)

    def write(self, path: str):
        """Spans as gzip CSV: index, parent, name, start and end in seconds."""
        t0 = self.spans[0][1] if self.spans else 0.0
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt") as fh:
            fh.write("index,parent,name,start_s,end_s\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i},{parent},{name},{start - t0:.9f},{end - t0:.9f}\n")


# ----------------------------------------------------------------------------
# counters, keyed by the span they belong to


def _arg(args, kwargs, pos, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


def _layer_index(layer) -> int | None:
    tail = layer.name.rsplit(".", 1)[-1]
    return int(tail) if tail.isdigit() else None


def _gemm_flops_per_row_step(layer) -> int:
    # one step multiplies the input by Wx (in x G*h) and the state by the
    # recurrent weights (h x G*h in total for both cells): 2 flops per MAC
    gates = 4 if type(layer).__name__ == "LSTMLayer" else 3
    return 2 * gates * layer.hidden * (layer.in_dim + layer.hidden)


def _count_recurrent(direction: str):
    # backward forms dX, dh, dWx and dWh: twice the forward products
    factor = 1 if direction == "forward" else 2

    def count(tr, result, layer, seq, *args, **kwargs):
        steps, rows = seq.shape[0], seq.shape[1]
        row_steps = steps * rows
        key = f"nn.recurrent.{direction}"
        tr.counts[f"{key}.row_steps"] += row_steps
        tr.counts[f"{key}.gemm_flops"] += factor * row_steps * _gemm_flops_per_row_step(layer)
        index = _layer_index(layer)
        if index is not None:
            tr.counts[f"{key}.row_steps_l{index}"] += row_steps
            if index == 0 and direction == "forward" and tr.inside(MC_SPAN):
                tr.counts["mc.layer0_row_steps"] += row_steps

    return count


def _count_sigmoid(tr, result, z):
    tr.counts["nn.activations.sigmoid.elements"] += result.size


def _count_save(tr, result, *args, **kwargs):
    tr.counts["nn.checkpoint.save.bytes"] += os.path.getsize(result)


def _count_windows(tr, result, *args, **kwargs):
    tr.counts["data.make_windows.windows"] += len(result)


def _count_series(tr, result, stats, bundle):
    tr.series["data.normalize_bundle"].add(bundle.id)


def _count_effect_epochs(tr, result, *args, **kwargs):
    tr.counts["effects.train_effect_model.epochs"] += _arg(args, kwargs, 3, "config").epochs


def _count_forecaster_epochs(tr, result, *args, **kwargs):
    tr.counts["forecaster.train_forecaster.epochs"] += len(result.training.val_history)
    tr.counts["forecaster.train_forecaster.kept_epochs"] += result.training.best_epoch + 1


def _count_mc(tr, result, model, windows, *args, **kwargs):
    tr.counts["forecaster.mc_forecast_batch.rows"] += result.shape[0] * result.shape[1]
    tr.counts["mc.window_steps"] += windows.shape[0] * windows.shape[1]


def _count_candidates(tr, result, *args, **kwargs):
    cands = _arg(args, kwargs, 4, "candidates", (0.05, 0.1, 0.2, 0.35, 0.5))
    tr.counts["forecaster.optimize_dropout.candidates"] += len(cands)


def _count_history(tr, result, history, *args, **kwargs):
    tr.counts["evaluation.exp_smoothing_forecast.history_points"] += len(history)


# (module, attribute, span name, counter): functions, replaced wherever a
# module holds a reference to them
FUNCTIONS = (
    ("demandnet.nn.activations", "sigmoid", "nn.activations.sigmoid", _count_sigmoid),
    ("demandnet.nn.layers", "sample_dropout_mask", "nn.layers.sample_dropout_mask", None),
    ("demandnet.nn.loss", "penalized_loss", "nn.loss.penalized_loss", None),
    ("demandnet.nn.checkpoint", "save_checkpoint", "nn.checkpoint.save", _count_save),
    ("demandnet.nn.checkpoint", "load_checkpoint", "nn.checkpoint.load", None),
    ("demandnet.data", "make_windows", "data.make_windows", _count_windows),
    ("demandnet.data", "load_dataset", "data.load_dataset", None),
    ("demandnet.features", "filter_static", "features.filter_static", None),
    ("demandnet.effects", "train_effect_model", "effects.train_effect_model",
     _count_effect_epochs),
    ("demandnet.effects", "policy_delta", "effects.policy_delta", None),
    ("demandnet.forecaster", "train_forecaster", "forecaster.train_forecaster",
     _count_forecaster_epochs),
    ("demandnet.forecaster", "mc_forecast_batch", MC_SPAN, _count_mc),
    ("demandnet.forecaster", "optimize_dropout", "forecaster.optimize_dropout",
     _count_candidates),
    ("demandnet.forecaster", "forecast_unseen", "forecaster.forecast_unseen", None),
    ("demandnet.evaluation", "demandnet_eval_bundle", "evaluation.demandnet_eval_bundle", None),
    ("demandnet.evaluation", "tune_exp_smoothing", "evaluation.tune_exp_smoothing", None),
    ("demandnet.evaluation", "exp_smoothing_forecast", "evaluation.exp_smoothing_forecast",
     _count_history),
    ("demandnet.evaluation", "tune_ar", "evaluation.tune_ar", None),
    ("demandnet.evaluation", "ar_forecast", "evaluation.ar_forecast", None),
    ("demandnet.pipeline", "train_demandnet", "pipeline.train_demandnet", None),
    ("demandnet.pipeline", "effect_training_data", "pipeline.effect_training_data", None),
    ("demandnet.pipeline", "pooled_validation_windows", "pipeline.pooled_validation_windows",
     None),
)

# (module, class, method, span name, counter): patched on the class
METHODS = (
    ("demandnet.nn.recurrent", "LSTMLayer", "forward", "nn.recurrent.forward",
     _count_recurrent("forward")),
    ("demandnet.nn.recurrent", "LSTMLayer", "backward", "nn.recurrent.backward",
     _count_recurrent("backward")),
    ("demandnet.nn.recurrent", "GRULayer", "forward", "nn.recurrent.forward",
     _count_recurrent("forward")),
    ("demandnet.nn.recurrent", "GRULayer", "backward", "nn.recurrent.backward",
     _count_recurrent("backward")),
    ("demandnet.nn.layers", "DenseLayer", "forward", "nn.layers.DenseLayer.forward", None),
    ("demandnet.nn.layers", "DenseLayer", "backward", "nn.layers.DenseLayer.backward", None),
    ("demandnet.nn.optim", "Adam", "step", "nn.optim.step", None),
    ("demandnet.nn.optim", "Sgd", "step", "nn.optim.step", None),
    ("demandnet.data", "NormStats", "normalize_bundle", "data.normalize_bundle", _count_series),
)


def _scope(extra_modules) -> list:
    mods = [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "demandnet" or name.startswith("demandnet."))]
    return mods + list(extra_modules)


def _references(modules, original):
    """Yield (container, key, tuple or None) for every place that holds ``original``.

    Covers module globals, and values of module-level dicts, including
    tuples inside them (the activation registry maps names to (fn, deriv)).
    """
    for mod in modules:
        space = vars(mod)
        for key, value in list(space.items()):
            if value is original:
                yield space, key, None
            elif isinstance(value, dict):
                for k, v in list(value.items()):
                    if v is original:
                        yield value, k, None
                    elif isinstance(v, tuple) and any(x is original for x in v):
                        yield value, k, v


def install(tracer: Tracer, extra_modules=()):
    """Wrap every traced function and method; returns an undo callable."""
    undo = []
    modules = _scope(extra_modules)
    originals = []
    for modname, attr, span, count in FUNCTIONS:
        original = getattr(importlib.import_module(modname), attr)
        wrapper = tracer.wrap(span, original, count)
        originals.append(original)
        for container, key, tup in list(_references(modules, original)):
            old = container[key]
            container[key] = wrapper if tup is None else tuple(
                wrapper if x is original else x for x in tup
            )
            undo.append((container, key, old))
    for modname, clsname, meth, span, count in METHODS:
        cls = getattr(importlib.import_module(modname), clsname)
        original = cls.__dict__[meth]
        setattr(cls, meth, tracer.wrap(span, original, count))
        undo.append((cls, meth, original))

    def uninstall():
        for container, key, old in reversed(undo):
            if isinstance(container, type):
                setattr(container, key, old)
            else:
                container[key] = old

    leftovers = [
        f"{getattr(o, '__module__', '?')}.{o.__name__}"
        for o in originals if any(_references(modules, o))
    ]
    if leftovers:
        uninstall()
        raise RuntimeError(f"tracer left untraced references to {leftovers}")
    return uninstall


COUNTERS = (
    "nn.activations.sigmoid.elements",
    "nn.recurrent.forward.row_steps", "nn.recurrent.forward.gemm_flops",
    "nn.recurrent.forward.row_steps_l0", "nn.recurrent.forward.row_steps_l1",
    "nn.recurrent.backward.row_steps", "nn.recurrent.backward.gemm_flops",
    "nn.recurrent.backward.row_steps_l0", "nn.recurrent.backward.row_steps_l1",
    "nn.checkpoint.save.bytes",
    "data.make_windows.windows",
    "effects.train_effect_model.epochs",
    "forecaster.train_forecaster.epochs",
    "forecaster.mc_forecast_batch.rows",
    "forecaster.optimize_dropout.candidates",
    "evaluation.exp_smoothing_forecast.history_points",
)


def per_layer(tracer: Tracer) -> dict[str, float]:
    """Every per-layer value the tracer defines; zero for layers never called."""
    spans = {span for _, _, span, _ in FUNCTIONS} | {span for *_, span, _ in METHODS}
    names = [f"{span}.{stat}" for span in sorted(spans) for stat in ("calls", "self_s")]
    got = tracer.summary()
    out = {name: float(got.get(name, 0.0)) for name in (*names, *COUNTERS)}

    def ratio(num, den):
        return num / den if den else 0.0

    out["data.normalize_bundle.calls_per_series"] = ratio(
        out["data.normalize_bundle.calls"], len(tracer.series["data.normalize_bundle"])
    )
    out["forecaster.train_forecaster.useful_epoch_ratio"] = ratio(
        got.get("forecaster.train_forecaster.kept_epochs", 0.0),
        out["forecaster.train_forecaster.epochs"],
    )
    out["forecaster.mc_forecast_batch.layer0_useful_ratio"] = ratio(
        got.get("mc.window_steps", 0.0), got.get("mc.layer0_row_steps", 0.0)
    )
    return out
