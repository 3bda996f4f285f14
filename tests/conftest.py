import multiprocessing
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from demandnet.data import SeriesBundle
from demandnet.nn import recurrent

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


def build_bundle(length=60, policy=None, target=None, series_id="T0", statics=None):
    """Small deterministic bundle for unit tests.

    Target defaults to a noiseless weekly wave around 10; policy defaults to a
    single mid-series closure block.
    """
    t = np.arange(length, dtype=float)
    if target is None:
        target = 10.0 + np.sin(2 * np.pi * t / 7.0)
    if policy is None:
        policy = np.zeros(length)
        policy[length // 2 : length // 2 + max(4, length // 10)] = 1.0
    cases = np.clip(np.cos(t / 5.0), 0.0, None)
    covariates = np.column_stack([policy, cases])
    return SeriesBundle(
        id=series_id,
        target=np.asarray(target, dtype=float),
        covariates=covariates,
        covariate_names=("policy", "cases"),
        policy_index=0,
        static_profile=statics or {"population": 1.0e6, "tourism_share": 0.4},
        start_date=None,
    )


@pytest.fixture(autouse=True)
def leaves_no_child():
    """Fail a test that leaves a live ``multiprocessing`` child, such as a
    wavefront worker whose scope never closed; the child is killed first,
    so later tests start clean."""
    yield
    left = multiprocessing.active_children()
    for child in left:
        child.kill()
        child.join()
    assert not left, f"the test left live children: {left}"


@pytest.fixture
def tiny_bundle():
    return build_bundle()


def usable_cpus(monkeypatch, n):
    """Report ``n`` usable CPUs to the wavefront's gate."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def worker_passes(monkeypatch):
    """Report two usable CPUs, so that the wavefront forks a worker on any
    machine, and return the list of the passes ("forward" or "backward")
    that then run through a worker."""
    usable_cpus(monkeypatch, 2)
    passes = []
    for name in ("forward", "backward"):
        run = getattr(recurrent._Worker, name)
        monkeypatch.setattr(recurrent._Worker, name,
                            lambda self, *a, _n=name, _run=run: passes.append(_n) or _run(self, *a))
    return passes


def training_batches(monkeypatch, module):
    """Count, in the returned list, the batches that ``module``'s calls of
    ``fit`` train."""
    batches, fit = [], module.fit

    def counting(params, config, tag, n_rows, batch_loss, end_epoch):
        return fit(params, config, tag, n_rows,
                   lambda *args: batches.append(tag) or batch_loss(*args), end_epoch)

    monkeypatch.setattr(module, "fit", counting)
    return batches
