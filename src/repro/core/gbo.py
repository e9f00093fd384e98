"""Gradient-based Bit-encoding Optimisation (GBO, Section III-A).

GBO runs after pre-training: the network weights are frozen and each encoded
layer receives a vector of learnable logits ``lambda_k`` over the pulse
scaling space Omega.  During GBO training every forward pass mixes the read
noise of all candidate encodings with the softmax weights ``alpha_k``
(Eq. 5) so the classification loss "feels" how harmful each candidate's
noise is in that layer; the latency regulariser ``gamma * sum alpha_k n_k p``
pushes towards short encodings (Eq. 6).  The candidate mixture is executed
by the layers' :class:`~repro.backend.engine.SimulationEngine` — one crossbar
read per candidate on the reference engine, a single batched read plus one
stacked noise draw on the vectorized engine (statistically identical; see
``tests/backend/test_gbo_engine_equivalence.py``).  After training, each layer selects
the candidate with the maximum logit (Eq. 7's argmax rule) and the resulting
heterogeneous :class:`~repro.core.schedule.PulseSchedule` is used for noisy
inference.
"""

from __future__ import annotations

import contextlib
import contextvars
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.encoder_layer import EncodedLayerMixin
from repro.core.pla import activation_grid_error
from repro.core.schedule import PulseSchedule
from repro.core.search_space import PulseScalingSpace
from repro.optim import Adam
from repro.sim import SimConfig
from repro.tensor import Tensor
from repro.tensor import functional as F
from repro.tensor.random import PlannedNormalStream, RandomState
from repro.utils import threads
from repro.utils.deprecation import warn_deprecated
from repro.utils.logging import get_logger

LOGGER = get_logger("repro.gbo")


@dataclass
class GBOConfig:
    """Hyper-parameters of the GBO stage.

    Attributes
    ----------
    space:
        Candidate pulse scaling space Omega.
    gamma:
        Latency/accuracy trade-off weight of Eq. 6.  Larger gamma favours
        shorter (cheaper, noisier) encodings; the two GBO rows of Table I
        correspond to two gamma settings.
    learning_rate:
        Adam learning rate for the logits (paper: 1e-4).
    epochs:
        Number of passes over the GBO training loader (paper: 10).
    log_every:
        Emit a progress log line every this many optimisation steps
        (0 disables logging).
    plan_noise:
        Pre-plan each step's Eq. 5 mixture noise as one batched RNG
        materialisation across all encoded layers
        (:meth:`~repro.backend.engine.SimulationEngine.plan_gbo_noise`)
        instead of one draw per layer per forward.  Sample-exact: the layers
        observe the very samples they would have drawn live, so schedules
        and golden streams are unchanged.  On by default; disable to force
        the historical per-layer draws.

        When the process may run on at least two cores
        (:func:`repro.utils.threads.usable_cores`), the next step's plan is
        drawn on one background thread while the current step computes: on
        clones of the layers' generators, in a copy of the trainer's
        execution context.  The next step commits it only if its input shape
        matches, the layers still map to the same generators and no
        generator moved since the launch; every other case (a partial last
        batch, another consumer of a shared generator, a non-``RandomState``
        generator) discards it and draws synchronously, so the result stays
        sample-exact.  While it prefetches, :meth:`GBOTrainer.train` caps
        numpy's OpenBLAS pool at one thread (restored afterwards) so the
        draw has a core of its own; without a prefetch the pool is left
        alone.
    """

    space: PulseScalingSpace = field(default_factory=PulseScalingSpace)
    gamma: float = 1e-3
    learning_rate: float = 1e-4
    epochs: int = 10
    log_every: int = 0
    plan_noise: bool = True

    def __post_init__(self) -> None:
        if self.gamma < 0:
            raise ValueError(f"gamma must be non-negative, got {self.gamma}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be positive, got {self.epochs}")
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.log_every < 0:
            raise ValueError(
                f"log_every must be non-negative (0 disables logging), got {self.log_every}"
            )


@dataclass
class GBOResult:
    """Outcome of a GBO run.

    Attributes
    ----------
    schedule:
        Per-layer pulse counts selected by the argmax rule.
    logits:
        Final logits of each layer (one array per encoded layer).
    alphas:
        Final softmax importance weights of each layer.
    history:
        Per-step record of the loss terms.
    pla_errors:
        Per-layer PLA representation error of the *selected* pulse count
        (mean absolute re-encoding error over the layer's activation grid).
        The Eq. 5 objective mixes candidate noise only, so GBO is blind to
        this error — it is measured and surfaced here at selection time.
    """

    schedule: PulseSchedule
    logits: List[np.ndarray]
    alphas: List[np.ndarray]
    history: List[Dict[str, float]]
    pla_errors: List[float] = field(default_factory=list)

    @property
    def average_pulses(self) -> float:
        """Average pulse count of the selected schedule (latency proxy)."""
        return self.schedule.average_pulses


class _RecordingRng:
    """Forwards to the wrapped RNG while counting ``normal()`` samples drawn.

    Used by :class:`_NoisePlanner` on the first step of each input shape:
    the step runs bit-identically through the wrapped generator, and the
    observed per-layer sample counts become the plan for every later step
    with that shape.
    """

    def __init__(self, inner):
        self._inner = inner
        self.drawn = 0

    def normal(self, loc=0.0, scale=1.0, size=None):
        out = self._inner.normal(loc=loc, scale=scale, size=size)
        self.drawn += int(np.asarray(out).size)
        return out

    def __getattr__(self, name):
        return getattr(self._inner, name)


def _draw_plan(layers, counts: List[int], generators) -> List[np.ndarray]:
    """One step's per-layer Eq. 5 noise: one draw per distinct generator.

    Layers are grouped by their (possibly shared) generator, in order of
    first use, keeping forward order within each group: a generator's single
    flat draw is bit-equal to the consecutive per-layer draws it replaces,
    and distinct generators are independent, so interleaving is irrelevant.
    """
    groups: Dict[int, List[int]] = {}
    for index, rng in enumerate(generators):
        groups.setdefault(id(rng), []).append(index)
    plan: List[Optional[np.ndarray]] = [None] * len(layers)
    for indices in groups.values():
        first = indices[0]
        buffers = layers[first].engine.plan_gbo_noise(
            [counts[i] for i in indices], generators[first]
        )
        for layer_index, buffer in zip(indices, buffers):
            plan[layer_index] = buffer
    return plan


class _Prefetch:
    """A look-ahead noise plan, drawn on a background thread.

    On construction (on the trainer's thread) it clones each distinct
    generator and snapshots the originals' stream positions, then starts
    one thread that runs :func:`_draw_plan` with every layer mapped to its
    generator's clone, inside a copy of the caller's :mod:`contextvars`
    context so the draw follows the trainer's compute-dtype policy.  The
    thread never touches the originals.
    """

    def __init__(self, key, layers, originals, counts):
        self.key = key
        self.originals = originals
        self.distinct = list({id(rng): rng for rng in originals}.values())
        self.snapshots = [rng.state for rng in self.distinct]
        self.clones = [rng.clone() for rng in self.distinct]
        clone_of = {id(rng): clone for rng, clone in zip(self.distinct, self.clones)}
        clones_per_layer = [clone_of[id(rng)] for rng in originals]
        self.plan: Optional[List[np.ndarray]] = None
        self._thread = threading.Thread(
            target=contextvars.copy_context().run,
            args=(self._draw, layers, counts, clones_per_layer),
            name="gbo-noise-prefetch",
            daemon=True,
        )
        self._thread.start()

    def _draw(self, layers, counts, clones_per_layer) -> None:
        self.plan = _draw_plan(layers, counts, clones_per_layer)

    def join(self) -> None:
        self._thread.join()

    def take(self, key, originals) -> Optional[List[np.ndarray]]:
        """The per-layer plan, if it is exactly what a synchronous draw makes.

        That holds when the draw finished, the step has the input shape the
        plan was drawn for, the layers still map to the same generators, and
        no generator moved since the launch snapshot.  Then each original
        jumps to its clone's post-draw position — where the synchronous draw
        would have left it — and the plan is returned; otherwise ``None``
        (a draw that raised on the thread is redrawn, and raises again, on
        the trainer's).
        """
        self.join()
        if self.plan is None or key != self.key:
            return None
        if any(rng is not launched for rng, launched in zip(originals, self.originals)):
            return None
        if any(rng.state != snapshot for rng, snapshot in zip(self.distinct, self.snapshots)):
            return None
        for rng, clone in zip(self.distinct, self.clones):
            rng.state = clone.state
        return self.plan


class _NoisePlanner:
    """Batches the per-layer Eq. 5 noise draws of one GBO step into one.

    Without planning, every encoded layer's forward performs its own RNG
    materialisation (``|Omega| * prod(output_shape)`` standard normals).
    The planner instead measures each layer's consumption once per input
    shape (recording pass, bit-identical) and thereafter materialises the
    whole network's draw up front — one
    :meth:`~repro.backend.engine.SimulationEngine.plan_gbo_noise` call per
    distinct ``noise_rng``, layers in forward order — serving each layer its
    slice through a :class:`~repro.tensor.random.PlannedNormalStream` swapped
    in as ``layer.noise_rng`` for the duration of the step.  numpy's
    ``Generator`` splits draws bit-identically across calls, so the samples
    (and therefore schedules, losses and golden streams) are exactly those
    of the un-planned run.

    With ``prefetch=True`` the next step's plan is drawn on a background
    thread while the current step computes (:class:`_Prefetch`), assuming
    the next step has the current input shape.  The next ``begin_step``
    commits it only when it is bit-equal to the synchronous draw by
    construction (see :meth:`_Prefetch.take`) and otherwise discards it and
    draws synchronously.  Only :class:`~repro.tensor.random.RandomState`
    generators are prefetched (they can be cloned at an exact stream
    position); any other ``noise_rng`` is always drawn synchronously.
    """

    def __init__(self, layers: Sequence[EncodedLayerMixin], prefetch: bool = False):
        self._layers = list(layers)
        self._counts: Dict[tuple, List[int]] = {}
        self._active = None
        self._prefetch_enabled = prefetch
        self._prefetch: Optional[_Prefetch] = None

    def begin_step(self, input_shape) -> None:
        key = tuple(input_shape)
        originals = [layer.noise_rng for layer in self._layers]
        plan = self._take_prefetch(key, originals)
        counts = self._counts.get(key)
        if counts is None:
            wrappers = [_RecordingRng(rng) for rng in originals]
            for layer, wrapper in zip(self._layers, wrappers):
                layer.noise_rng = wrapper
            self._active = ("record", key, originals, wrappers)
            return
        if plan is None:
            plan = _draw_plan(self._layers, counts, originals)
        streams = [PlannedNormalStream(buffer) for buffer in plan]
        for layer, stream in zip(self._layers, streams):
            layer.noise_rng = stream
        self._active = ("planned", key, originals, streams)
        self._launch(key, originals, counts)

    def end_step(self) -> None:
        mode, key, originals, aux = self._active
        self._restore(originals)
        if mode == "record":
            self._counts[key] = [wrapper.drawn for wrapper in aux]
            self._launch(key, originals, self._counts[key])
            return
        leftover = sum(stream.remaining for stream in aux)
        if leftover:
            raise RuntimeError(
                f"GBO noise plan mismatch: {leftover} planned samples were "
                "never consumed — a layer's draw count changed mid-training"
            )

    def abort_step(self) -> None:
        if self._active is not None:
            self._restore(self._active[2])

    def close(self) -> None:
        """Wait for and discard any look-ahead plan still in flight."""
        pending, self._prefetch = self._prefetch, None
        if pending is not None:
            pending.join()

    def _launch(self, key, originals, counts: List[int]) -> None:
        if self._prefetch_enabled and all(type(rng) is RandomState for rng in originals):
            self._prefetch = _Prefetch(key, self._layers, originals, counts)

    def _take_prefetch(self, key, originals) -> Optional[List[np.ndarray]]:
        pending, self._prefetch = self._prefetch, None
        return None if pending is None else pending.take(key, originals)

    def _restore(self, originals) -> None:
        for layer, rng in zip(self._layers, originals):
            layer.noise_rng = rng
        self._active = None


class GBOTrainer:
    """Optimises per-layer bit-encoding logits on a frozen, pre-trained model.

    Parameters
    ----------
    model:
        A model exposing ``encoded_layers()`` returning the crossbar-mapped
        layers in forward order (e.g. :class:`repro.models.VGG9`).
    config:
        GBO hyper-parameters.
    engine:
        Deprecated: pass ``sim=SimConfig(engine=...)`` instead.
    sim:
        Simulation config whose ``engine`` is pinned on every encoded layer
        for the duration of training; each GBO forward evaluates the Eq. 5
        candidate mixture through
        :meth:`~repro.backend.engine.SimulationEngine.gbo_mixture_read` of
        that engine.  ``sim=None`` (or ``sim.engine is None``) keeps
        whatever engine each layer already uses (ultimately the process-wide
        default).  Noise/pulse state is taken from the model's current
        configuration — apply a config via :func:`repro.sim.apply_config`
        (or use the :mod:`repro.api` facade) beforehand.
    """

    def __init__(
        self,
        model,
        config: Optional[GBOConfig] = None,
        engine=None,
        sim: Optional[SimConfig] = None,
    ):
        self.model = model
        self.config = config or GBOConfig()
        if engine is not None:
            warn_deprecated(
                "GBOTrainer(engine=...) is deprecated; pass "
                "sim=SimConfig(engine=...) instead"
            )
            if sim is not None and sim.engine is not None:
                raise ValueError("pass either engine= or sim=, not both")
            # Keep the pin as passed: an engine *instance* need not be in
            # the registry (tests pin ad-hoc engines), so it must not be
            # round-tripped through a name lookup.
            self.engine = engine
            self.sim = sim
        else:
            self.sim = sim
            self.engine = sim.engine if sim is not None else None
        self._layers: List[EncodedLayerMixin] = list(model.encoded_layers())
        if not self._layers:
            raise ValueError("model has no encoded layers to optimise")

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def train(self, loader) -> GBOResult:
        """Run the GBO optimisation and return the selected schedule.

        The model's weights are frozen (Section III-A: "we fix the weights of
        networks and only train learnable parameters"); batch-normalisation
        statistics are also frozen by switching the model to eval mode, while
        every encoded layer runs in ``gbo`` forward mode so the mixture noise
        of Eq. 5 is injected.
        """
        config = self.config
        self.model.eval()
        self.model.freeze()
        logits = [layer.enable_gbo(config.space) for layer in self._layers]
        for layer in self._layers:
            layer._apply_mode("gbo")

        # Pin the requested engine for the duration of training only; the
        # layers' previous pins (possibly "track the process default") are
        # restored afterwards so later evaluations keep their own backend.
        previous_engines = None
        if self.engine is not None:
            previous_engines = [layer._engine for layer in self._layers]
            for layer in self._layers:
                layer._apply_engine(self.engine)

        optimizer = Adam(logits, lr=config.learning_rate)
        prefetch = config.plan_noise and threads.usable_cores() >= 2
        planner = _NoisePlanner(self._layers, prefetch=prefetch) if config.plan_noise else None
        # While the next step's noise is drawn on a second core, OpenBLAS is
        # capped at one thread so its second thread does not contend for it.
        blas_cap = threads.blas_thread_limit(1) if prefetch else contextlib.nullcontext()
        history: List[Dict[str, float]] = []
        step = 0
        try:
            with blas_cap:
                for epoch in range(config.epochs):
                    for inputs, targets in loader:
                        optimizer.zero_grad()
                        outputs = self._planned_forward(planner, inputs)
                        ce_loss = F.cross_entropy(outputs, targets)
                        latency = self._latency_term()
                        loss = ce_loss + latency * config.gamma
                        loss.backward()
                        optimizer.step()
                        step += 1
                        record = {
                            "epoch": float(epoch),
                            "step": float(step),
                            "loss": float(loss.data),
                            "cross_entropy": float(ce_loss.data),
                            "expected_latency": float(latency.data),
                        }
                        history.append(record)
                        if config.log_every and step % config.log_every == 0:
                            LOGGER.info(
                                "gbo step %d: loss=%.4f ce=%.4f latency=%.2f",
                                step,
                                record["loss"],
                                record["cross_entropy"],
                                record["expected_latency"],
                            )
        finally:
            if planner is not None:
                planner.close()
            if previous_engines is not None:
                for layer, previous in zip(self._layers, previous_engines):
                    # previous is either a pinned engine instance or None
                    # (track the process default) — _apply_engine handles both.
                    layer._apply_engine(previous)
        result = self._finalise(history)
        self._apply_schedule(result.schedule)
        return result

    def _planned_forward(self, planner: Optional["_NoisePlanner"], inputs) -> Tensor:
        """One model forward, with the step's noise pre-planned when enabled."""
        if planner is None:
            return self.model(Tensor(inputs))
        planner.begin_step(np.shape(inputs))
        try:
            outputs = self.model(Tensor(inputs))
        except BaseException:
            planner.abort_step()
            raise
        planner.end_step()
        return outputs

    def _latency_term(self) -> Tensor:
        """Differentiable total expected latency ``sum_l sum_k alpha_k n_k p``."""
        total: Optional[Tensor] = None
        for layer in self._layers:
            term = layer.gbo_expected_latency()
            total = term if total is None else total + term
        return total

    def _finalise(self, history: List[Dict[str, float]]) -> GBOResult:
        logits = [np.array(layer.gbo_logits.data, copy=True) for layer in self._layers]
        alphas = [np.array(layer.gbo_alphas().data, copy=True) for layer in self._layers]
        schedule = PulseSchedule([layer.gbo_selected_pulses() for layer in self._layers])
        pla_errors = self._selection_pla_errors(schedule)
        return GBOResult(
            schedule=schedule,
            logits=logits,
            alphas=alphas,
            history=history,
            pla_errors=pla_errors,
        )

    def _selection_pla_errors(self, schedule: PulseSchedule) -> List[float]:
        """PLA representation error each layer pays for its selected pulses.

        Measured over the layer's exact activation grid (the levels its
        quantiser can emit) at selection time, because the Eq. 5 objective
        mixes candidate *noise* only and never sees this re-encoding error —
        the mechanism behind the documented failure mode where GBO shortens
        the least noise-sensitive layer to 4 pulses and pays an unmodelled
        accuracy cost at evaluation.
        """
        errors: List[float] = []
        for index, (layer, pulses) in enumerate(zip(self._layers, schedule)):
            levels = layer.act_quantizer.levels
            error = activation_grid_error(levels, pulses, mode=layer.pla_mode)
            errors.append(error)
            LOGGER.info(
                "gbo layer %d selected %d pulses: PLA representation error "
                "%.4f over its %d-level grid (Eq. 5 models candidate noise "
                "only and is blind to this error)",
                index,
                pulses,
                error,
                levels,
            )
        return errors

    def _apply_schedule(self, schedule: PulseSchedule) -> None:
        """Configure the model for noisy inference with the selected schedule."""
        for layer, pulses in zip(self._layers, schedule):
            layer._apply_mode("noisy")
            layer._apply_pulses(pulses)


def apply_schedule(model, schedule: PulseSchedule) -> None:
    """Apply an explicit per-layer pulse schedule to a model's encoded layers.

    Utility used by the PLA baselines of Table I, where the schedule is
    uniform rather than learned.
    """
    layers = list(model.encoded_layers())
    if len(layers) != len(schedule):
        raise ValueError(
            f"schedule has {len(schedule)} entries but the model exposes {len(layers)} "
            "encoded layers"
        )
    for layer, pulses in zip(layers, schedule):
        layer._apply_mode("noisy")
        layer._apply_pulses(pulses)
