"""The :class:`SimulationEngine` interface and engine registry.

An engine answers four questions for the rest of the library:

1. how to execute a full pulse-train crossbar read (:meth:`pulsed_read`),
2. how to sample the accumulated read noise of a folded layer forward
   (:meth:`folded_read_noise`),
3. how to sample the GBO mixture noise of Eq. 5
   (:meth:`gbo_mixture_noise`), and
4. how to evaluate the full GBO candidate mixture — the ideal crossbar read
   of every candidate encoding plus its reparameterised noise — in one
   differentiable forward (:meth:`gbo_mixture_read`).

Implementations must be *statistically* interchangeable: for every method the
returned distribution is fixed by the paper's model, only the number of numpy
calls (and hence the draw layout) may differ.  The equivalence is enforced by
``tests/backend/test_engines.py``.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Callable, Dict, Optional, Sequence, Tuple, Union

import numpy as np

from repro.tensor import Tensor
from repro.tensor.random import RandomState

if TYPE_CHECKING:  # avoid a circular import: crossbar -> core -> backend
    from repro.crossbar.encoding import PulseTrain

#: Environment variable consulted by :func:`default_engine`.
BACKEND_ENV_VAR = "REPRO_BACKEND"

EngineLike = Union["SimulationEngine", str, None]


class SimulationEngine:
    """Strategy interface for executing noisy crossbar reads."""

    #: Registry name of the engine (set by subclasses).
    name: str = "abstract"

    def encoded_read(
        self,
        crossbar,
        values: np.ndarray,
        encoder,
        add_noise: bool = True,
        rng: Optional[RandomState] = None,
    ) -> np.ndarray:
        """Encode ``values`` with ``encoder`` and read the resulting train.

        The default implementation materialises the pulse train and defers to
        :meth:`pulsed_read`; engines may shortcut the encoding when the
        accumulated result has a closed form.
        """
        train = encoder.encode(values)
        if train.num_pulses == 0:
            raise ValueError(
                f"encoder {encoder!r} produced an empty pulse train; at least "
                "one pulse is required to perform a crossbar read"
            )
        return self.pulsed_read(crossbar, train, add_noise=add_noise, rng=rng)

    def pulsed_read(
        self,
        crossbar,
        train: "PulseTrain",
        add_noise: bool = True,
        rng: Optional[RandomState] = None,
    ) -> np.ndarray:
        """Accumulate the weighted noisy reads of every pulse in ``train``.

        Parameters
        ----------
        crossbar:
            A :class:`~repro.crossbar.array.CrossbarArray` or
            :class:`~repro.crossbar.tiling.TiledCrossbar`.
        train:
            Pulse train of shape ``(num_pulses, *batch, in_features)``.
        add_noise:
            Disable to obtain the ideal accumulated result.
        rng:
            Random state for noise sampling; defaults to the crossbar's own.
        """
        raise NotImplementedError

    def read_multi(
        self,
        crossbar,
        values: np.ndarray,
        encoders: Sequence,
        add_noise: bool = True,
        rngs: Optional[Sequence[Optional[RandomState]]] = None,
    ) -> np.ndarray:
        """One input batch, one weight set, K scenario reads — ``(K, ...)``.

        Scenario ``k`` is defined by ``encoders[k]`` (pulse count / schedule /
        PLA re-encoding are baked into the encoder) and draws its noise from
        ``rngs[k]`` — its *own* hash-derived stream, which is what makes the
        batched result bit-identical per scenario to K sequential
        :meth:`encoded_read` calls: per-scenario streams are never merged,
        only the deterministic shared work (encoding round-trip, ideal
        matmul) is deduplicated by engines that can prove it safe.

        The default implementation *is* the sequential loop — the bit-exact
        oracle every override must match sample for sample.
        """
        if rngs is None:
            rngs = [None] * len(encoders)
        if len(rngs) != len(encoders):
            raise ValueError(
                f"read_multi got {len(encoders)} encoders but {len(rngs)} rngs"
            )
        outputs = [
            self.encoded_read(crossbar, values, encoder, add_noise=add_noise, rng=rng)
            for encoder, rng in zip(encoders, rngs)
        ]
        return np.stack(outputs, axis=0)

    def folded_read_noise(
        self,
        shape: Tuple[int, ...],
        sigma: float,
        num_pulses: float,
        rng: RandomState,
    ) -> np.ndarray:
        """Additive noise of ``num_pulses`` accumulated equal-weight reads.

        Averaging ``p`` independent ``N(0, sigma^2)`` reads yields
        ``N(0, sigma^2 / p)`` (paper Eq. 4); engines may realise the sum
        pulse-by-pulse or as one folded draw.
        """
        raise NotImplementedError

    def folded_read_noise_multi(
        self,
        shape: Tuple[int, ...],
        sigmas: Sequence[float],
        pulse_counts: Sequence[float],
        rngs: Sequence[RandomState],
    ) -> np.ndarray:
        """K scenarios' folded read noise as one ``(K, *shape)`` buffer.

        Scenario ``k`` consumes exactly the samples :meth:`folded_read_noise`
        would draw from ``rngs[k]`` (zero-sigma scenarios draw nothing), so
        a stacked forward that adds slice ``k`` to scenario ``k``'s block is
        bit-identical to the sequential per-scenario forward.  The buffer is
        assembled here — in the same single-materialisation style as
        :meth:`plan_gbo_noise` — because the per-scenario streams are
        independent by construction and can never legally merge into one
        draw.
        """
        if not len(sigmas) == len(pulse_counts) == len(rngs):
            raise ValueError(
                f"folded_read_noise_multi got mismatched scenario packs: "
                f"{len(sigmas)} sigmas, {len(pulse_counts)} pulse counts, "
                f"{len(rngs)} rngs"
            )
        from repro.tensor.dtype import resolve_dtype

        buffer = np.zeros((len(sigmas),) + tuple(shape), dtype=resolve_dtype())
        for index, (sigma, pulses, rng) in enumerate(zip(sigmas, pulse_counts, rngs)):
            if sigma > 0.0:
                buffer[index] = self.folded_read_noise(shape, sigma, pulses, rng)
        return buffer

    def gbo_mixture_noise(
        self,
        alphas: Tensor,
        scales: Sequence[float],
        shape: Tuple[int, ...],
        rng: RandomState,
    ) -> Tensor:
        """Reparameterised GBO mixture ``sum_k alpha_k * scale_k * eps_k``.

        ``alphas`` are the softmax importance weights (a differentiable
        :class:`Tensor`); gradients must flow from the returned noise back to
        the logits.
        """
        raise NotImplementedError

    def gbo_mixture_read(
        self,
        read_op: Callable[[], Tensor],
        alphas: Tensor,
        scales: Sequence[float],
        rng: RandomState,
    ) -> Tensor:
        """Softmax mixture of per-candidate noisy crossbar reads (Eq. 5).

        Evaluates ``sum_k alpha_k * (read_k + scale_k * eps_k)`` where
        ``read_op`` performs one ideal (noise-free) crossbar read of the
        layer and ``scale_k`` is the accumulated noise deviation of candidate
        encoding ``k``.  Because ``read_op`` is deterministic and the noises
        are i.i.d. Gaussian, an engine may execute one read per candidate
        (reference) or a single read plus one stacked noise draw
        (vectorized); both consume identical samples from ``rng`` and
        gradients reach the logits through ``alphas`` either way.

        Parameters
        ----------
        read_op:
            Zero-argument callable returning the ideal layer output as a
            differentiable :class:`Tensor`.  Must be re-invocable: the
            reference engine calls it once per candidate.
        alphas:
            Softmax importance weights over the candidate space Omega.
        scales:
            Per-candidate accumulated noise standard deviations
            ``sigma / sqrt(n_k p)``.
        rng:
            Random state for the candidate noise draws.
        """
        raise NotImplementedError

    def plan_gbo_noise(
        self,
        counts: Sequence[int],
        rng: RandomState,
    ) -> list:
        """Materialise several layers' GBO mixture draws in one RNG call.

        ``counts[i]`` is the number of standard-normal samples layer ``i``
        will consume from ``rng`` during one optimisation step (its Eq. 5
        mixture is ``|Omega| * prod(output_shape)`` samples; zero when the
        layer's sigma is 0).  Returns one flat array per count.

        Because numpy's ``Generator`` yields identical values whether ``n``
        normals come from one call or from several consecutive calls, the
        single batched draw is *sample-exact* with respect to the per-layer
        draws it replaces — golden schedules and cross-engine equivalence
        are preserved bit for bit at float64.  Engines may override this to
        realise the plan differently (the reference engine draws literally
        per layer); all realisations must consume ``rng`` identically.  The
        GBO trainer may call this on a background thread (its look-ahead
        prefetch), so a realisation must touch no state other than ``rng``.
        """
        counts = [int(count) for count in counts]
        total = sum(counts)
        if total == 0:
            return [np.empty(0) for _ in counts]
        flat = np.asarray(rng.normal(0.0, 1.0, size=total)).reshape(-1)
        buffers = []
        cursor = 0
        for count in counts:
            buffers.append(flat[cursor : cursor + count])
            cursor += count
        return buffers

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


_REGISTRY: Dict[str, SimulationEngine] = {}
_DEFAULT: Optional[SimulationEngine] = None


def register_engine(engine: SimulationEngine) -> SimulationEngine:
    """Add an engine instance to the registry under its ``name``."""
    _REGISTRY[engine.name] = engine
    return engine


def available_engines() -> Tuple[str, ...]:
    """Names of all registered engines."""
    return tuple(sorted(_REGISTRY))


def get_engine(name: str) -> SimulationEngine:
    """Look up a registered engine by name."""
    try:
        return _REGISTRY[name]
    except KeyError as error:
        raise KeyError(
            f"unknown backend {name!r}; available backends: {sorted(_REGISTRY)}"
        ) from error


def default_engine() -> SimulationEngine:
    """The process-wide default engine.

    Resolution order: an engine installed via :func:`set_default_engine`,
    then the ``REPRO_BACKEND`` environment variable, then ``"vectorized"``.
    """
    if _DEFAULT is not None:
        return _DEFAULT
    return get_engine(os.environ.get(BACKEND_ENV_VAR, "vectorized"))


def set_default_engine(engine: EngineLike) -> None:
    """Install (or, with ``None``, clear) the process-wide default engine."""
    global _DEFAULT
    _DEFAULT = None if engine is None else resolve_engine(engine)


def resolve_engine(engine: EngineLike) -> SimulationEngine:
    """Coerce an engine instance / name / ``None`` into an engine."""
    if engine is None:
        return default_engine()
    if isinstance(engine, str):
        return get_engine(engine)
    return engine
