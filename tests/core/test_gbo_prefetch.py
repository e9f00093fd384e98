"""Bit-identity and cleanup tests for the GBO noise prefetch.

With at least two usable cores, ``_NoisePlanner`` draws step k+1's Eq. 5
noise plan on a background thread while step k computes, on clones of the
layers' generators, and commits it only when it equals the synchronous draw
by construction.  These tests run both core-count branches on every host by
patching :func:`repro.utils.threads.usable_cores`, and require the
prefetched, synchronously planned and un-planned (``plan_noise=False``)
trainings to agree exactly: logits, alphas, loss history and schedule.
"""

from __future__ import annotations

import copy
import threading

import numpy as np
import pytest

from repro.context import ExecutionContext
from repro.core import GBOConfig, GBOTrainer
from repro.core import gbo as gbo_module
from repro.core.search_space import PulseScalingSpace
from repro.data import DataLoader, TensorDataset
from repro.models import CrossbarMLP
from repro.sim import Session, SimConfig, apply_config
from repro.tensor.random import RandomState
from repro.utils import threads

ENGINES = ["vectorized", "reference"]

#: (name, usable cores, plan_noise): the three ways one training can run.
MODES = (("prefetched", 2, True), ("planned", 1, True), ("unplanned", 2, False))


class _TakeSpy:
    """Counts prefetch launches and how each look-ahead plan was settled."""

    def __init__(self, monkeypatch):
        self.launched = self.committed = self.discarded = 0
        original_init = gbo_module._Prefetch.__init__
        original_take = gbo_module._Prefetch.take

        def init(prefetch, *args, **kwargs):
            self.launched += 1
            original_init(prefetch, *args, **kwargs)

        def take(prefetch, key, originals):
            plan = original_take(prefetch, key, originals)
            if plan is None:
                self.discarded += 1
            else:
                self.committed += 1
            return plan

        monkeypatch.setattr(gbo_module._Prefetch, "__init__", init)
        monkeypatch.setattr(gbo_module._Prefetch, "take", take)

    def reset(self) -> "_TakeSpy":
        """The counts so far, as a snapshot; counting restarts from zero."""
        snapshot = copy.copy(self)
        self.launched = self.committed = self.discarded = 0
        return snapshot


class _DrawBetweenSteps:
    """A loader that draws from ``rng`` before every batch but the first:
    another consumer of a shared generator, between two GBO steps."""

    def __init__(self, loader, rng):
        self.loader = loader
        self.rng = rng
        self.started = False

    def __iter__(self):
        for batch in self.loader:
            if self.started:
                self.rng.normal(size=3)
            self.started = True
            yield batch


class _SplitSharedGenerator:
    """A loader that, before its third batch, gives every layer its own
    clone of their shared generator: same stream position, new mapping."""

    def __init__(self, loader, layers):
        self.loader = loader
        self.layers = layers

    def __iter__(self):
        for index, batch in enumerate(self.loader):
            if index == 2:
                for layer in self.layers:
                    layer.noise_rng = layer.noise_rng.clone()
            yield batch


def _build(samples=64, shared_rng=False, sigma=3.0):
    rng = RandomState(7)
    inputs = np.tanh(rng.normal(size=(samples, 24)))
    labels = rng.randint(0, 4, size=samples)
    loader = DataLoader(
        TensorDataset(inputs, labels), batch_size=16, shuffle=True, rng=RandomState(11)
    )
    model = CrossbarMLP(
        in_features=24, hidden_sizes=(16, 16), num_classes=4, rng=RandomState(5)
    )
    apply_config(model, SimConfig(mode="noisy", noise_sigma=sigma))
    shared = RandomState(77)
    for index, layer in enumerate(model.encoded_layers()):
        layer.noise_rng = shared if shared_rng else RandomState(1000 + index)
    return model, loader, shared


def _train(monkeypatch, cores, plan_noise, engine="vectorized", epochs=2, samples=64,
           shared_rng=False, hook=None, dtype=None):
    monkeypatch.setattr(threads, "usable_cores", lambda: cores)
    model, loader, shared = _build(samples=samples, shared_rng=shared_rng)
    if hook is _DrawBetweenSteps:
        loader = _DrawBetweenSteps(loader, shared)
    elif hook is _SplitSharedGenerator:
        loader = _SplitSharedGenerator(loader, list(model.encoded_layers()))
    trainer = GBOTrainer(
        model,
        GBOConfig(
            space=PulseScalingSpace(),
            epochs=epochs,
            learning_rate=0.1,
            gamma=2e-3,
            plan_noise=plan_noise,
        ),
        sim=SimConfig(engine=engine),
    )
    if dtype is None:
        return trainer.train(loader)
    # An explicit context: only a thread that runs in a copy of the
    # trainer's context sees its float32 policy.
    config = SimConfig(mode="noisy", noise_sigma=3.0, dtype=dtype)
    with Session(model, config, context=ExecutionContext()):
        return trainer.train(loader)


def _assert_identical(results):
    reference = results[0]
    for result in results[1:]:
        assert result.schedule.as_list() == reference.schedule.as_list()
        for got, want in zip(result.logits, reference.logits):
            np.testing.assert_array_equal(got, want)
        for got, want in zip(result.alphas, reference.alphas):
            np.testing.assert_array_equal(got, want)
        assert result.history == reference.history


def _train_all_modes(monkeypatch, **kwargs):
    """Train once per mode; require identical results; return each run's spy counts."""
    spy = _TakeSpy(monkeypatch)
    counts, results = [], []
    for _, cores, plan_noise in MODES:
        results.append(_train(monkeypatch, cores, plan_noise, **kwargs))
        counts.append(spy.reset())
    _assert_identical(results)
    return counts


class TestPrefetchBitIdentity:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_modes_agree_on_both_engines(self, monkeypatch, engine):
        prefetched, planned, unplanned = _train_all_modes(monkeypatch, engine=engine)
        assert prefetched.committed > 0
        assert planned.launched == 0 and unplanned.launched == 0

    def test_float32_session_reaches_the_prefetch_thread(self, monkeypatch):
        prefetched, _, _ = _train_all_modes(monkeypatch, dtype="float32")
        assert prefetched.committed > 0

    def test_partial_last_batch_discards_the_look_ahead(self, monkeypatch):
        # 60 samples in batches of 16: the fourth batch of each epoch has 12.
        prefetched, _, _ = _train_all_modes(monkeypatch, samples=60)
        assert prefetched.committed > 0
        assert prefetched.discarded > 0

    def test_single_epoch(self, monkeypatch):
        prefetched, _, _ = _train_all_modes(monkeypatch, epochs=1)
        # Step 1 records the draw counts; steps 2-4 each commit the plan
        # drawn during the step before, and the plan drawn during step 4 is
        # discarded when training ends.
        assert (prefetched.launched, prefetched.committed) == (4, 3)

    def test_shared_generator(self, monkeypatch):
        prefetched, _, _ = _train_all_modes(monkeypatch, shared_rng=True)
        assert prefetched.committed > 0

    def test_other_consumer_between_steps_forces_discard(self, monkeypatch):
        prefetched, _, _ = _train_all_modes(
            monkeypatch, shared_rng=True, hook=_DrawBetweenSteps
        )
        assert prefetched.launched > 0
        assert prefetched.committed == 0

    def test_changed_layer_generator_mapping_forces_discard(self, monkeypatch):
        prefetched, _, _ = _train_all_modes(
            monkeypatch, shared_rng=True, epochs=1, hook=_SplitSharedGenerator
        )
        # Step 3's look-ahead was drawn for one shared generator; the layers
        # then owned one each, so only step 2's and step 4's plans commit.
        assert (prefetched.committed, prefetched.discarded) == (2, 1)

    def test_non_random_state_generator_is_never_prefetched(self, monkeypatch):
        class ForeignRng:
            def __init__(self, seed):
                self._rng = np.random.default_rng(seed)

            def normal(self, loc=0.0, scale=1.0, size=None):
                return self._rng.normal(loc, scale, size)

        spy = _TakeSpy(monkeypatch)
        counts, results = [], []
        for _, cores, plan_noise in MODES:
            monkeypatch.setattr(threads, "usable_cores", lambda cores=cores: cores)
            model, loader, _ = _build()
            for index, layer in enumerate(model.encoded_layers()):
                layer.noise_rng = ForeignRng(1000 + index)
            config = GBOConfig(
                space=PulseScalingSpace(), epochs=1, learning_rate=0.1, plan_noise=plan_noise
            )
            results.append(GBOTrainer(model, config).train(loader))
            counts.append(spy.reset())
        _assert_identical(results)
        assert counts[0].launched == 0


class _ForwardFails(Exception):
    pass


class TestPrefetchCleanup:
    def _failing_run(self, monkeypatch, cores):
        """Train until the third step's forward raises; return the layers'
        generators and the BLAS thread count seen inside that forward."""
        monkeypatch.setattr(threads, "usable_cores", lambda: cores)
        model, loader, _ = _build()
        layers = list(model.encoded_layers())
        generators = [layer.noise_rng for layer in layers]
        last = layers[-1]
        calls = []
        original_forward = last.forward

        def forward(x):
            calls.append(threads.blas_threads())
            if len(calls) == 3:
                raise _ForwardFails("forward failed mid-step")
            return original_forward(x)

        monkeypatch.setattr(last, "forward", forward)
        trainer = GBOTrainer(
            model,
            GBOConfig(space=PulseScalingSpace(), epochs=1, learning_rate=0.1),
            sim=SimConfig(engine="vectorized"),
        )
        with pytest.raises(_ForwardFails):
            trainer.train(loader)
        assert [layer.noise_rng for layer in layers] == generators
        return [rng.state for rng in generators], calls[-1]

    def test_failed_forward_joins_thread_and_restores_state(self, monkeypatch):
        spy = _TakeSpy(monkeypatch)
        baseline_threads = threading.active_count()
        blas_before = threads.blas_threads()
        prefetched_states, blas_inside = self._failing_run(monkeypatch, cores=2)
        assert spy.launched == 3  # the failing step's look-ahead was in flight
        assert threading.active_count() == baseline_threads
        synchronous_states, blas_synchronous = self._failing_run(monkeypatch, cores=1)
        assert prefetched_states == synchronous_states
        if blas_before is not None:  # a numpy build without OpenBLAS's setter
            assert blas_inside == 1
            assert threads.blas_threads() == blas_before
            # Without a prefetch there is no draw to give a core to: no cap.
            assert blas_synchronous == blas_before
