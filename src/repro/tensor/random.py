"""Seeded random number generation shared across the library.

Every stochastic component of the reproduction (weight initialisation,
data shuffling, crossbar noise sampling, synthetic data generation) draws
from an explicit :class:`RandomState` or from the current execution
context's default generator (see :mod:`repro.context`) seeded via
:func:`manual_seed`, so all experiments are exactly repeatable.

"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple, Union

import numpy as np

from repro.tensor.dtype import resolve_dtype

ShapeLike = Union[int, Tuple[int, ...], Sequence[int]]

_FLOAT64 = np.dtype(np.float64)


class RandomState:
    """Thin wrapper around ``numpy.random.Generator`` with a stable API."""

    def __init__(self, seed: Optional[int] = None):
        self._seed = seed
        self._rng = np.random.default_rng(seed)

    @property
    def seed(self) -> Optional[int]:
        """Seed this generator was created with (``None`` if unseeded)."""
        return self._seed

    def reseed(self, seed: int) -> None:
        """Reset the generator to a new seed."""
        self._seed = seed
        self._rng = np.random.default_rng(seed)

    def normal(self, loc: float = 0.0, scale: float = 1.0, size: Optional[ShapeLike] = None) -> np.ndarray:
        """Gaussian samples in the process compute dtype.

        At float64 (the default policy) this is numpy's ``Generator.normal``
        verbatim — bit-identical to the historical stream.  At float32 the
        single-precision ziggurat sampler is used instead; it consumes the
        underlying bit stream differently, so float32 draws are statistically
        equivalent to (never bit-identical with) the float64 ones.
        """
        dtype = resolve_dtype()
        if dtype == _FLOAT64:
            return self._rng.normal(loc=loc, scale=scale, size=size)
        samples = self._rng.standard_normal(size=size, dtype=dtype)
        scale = np.asarray(scale, dtype=dtype)
        loc = np.asarray(loc, dtype=dtype)
        if scale.ndim == 0 and scale == 1.0 and loc.ndim == 0 and loc == 0.0:
            return samples
        return samples * scale + loc

    def uniform(self, low: float = 0.0, high: float = 1.0, size: Optional[ShapeLike] = None) -> np.ndarray:
        """Uniform samples in ``[low, high)`` in the process compute dtype."""
        dtype = resolve_dtype()
        if dtype == _FLOAT64:
            return self._rng.uniform(low=low, high=high, size=size)
        unit = self._rng.random(size=size, dtype=dtype)
        low = np.asarray(low, dtype=dtype)
        high = np.asarray(high, dtype=dtype)
        return low + (high - low) * unit

    def randint(self, low: int, high: int, size: Optional[ShapeLike] = None) -> np.ndarray:
        """Integer samples in ``[low, high)``."""
        return self._rng.integers(low=low, high=high, size=size)

    def permutation(self, n: int) -> np.ndarray:
        """Random permutation of ``range(n)``."""
        return self._rng.permutation(n)

    def choice(self, options, size: Optional[ShapeLike] = None, replace: bool = True, p=None):
        """Random choice from ``options``."""
        return self._rng.choice(options, size=size, replace=replace, p=p)

    def bernoulli(self, p: float, size: ShapeLike) -> np.ndarray:
        """Bernoulli(p) samples as floats in {0, 1}.

        The comparison always happens on a float64 uniform draw so the
        sampled positions are identical under every compute dtype; only the
        dtype of the returned {0, 1} floats follows the policy.
        """
        return (self._rng.uniform(size=size) < p).astype(resolve_dtype())

    def spawn(self) -> "RandomState":
        """Derive an independent child generator (deterministic given parent)."""
        child_seed = int(self._rng.integers(0, 2**31 - 1))
        return RandomState(child_seed)

    @property
    def state(self) -> dict:
        """The bit generator's position in its stream (numpy's ``bit_generator.state``).

        Assigning a state taken from a generator of the same kind moves this
        one to that exact position.
        """
        return self._rng.bit_generator.state

    @state.setter
    def state(self, value: dict) -> None:
        self._rng.bit_generator.state = value

    def clone(self) -> "RandomState":
        """An independent copy at this generator's exact stream position.

        The copy yields the very samples this generator would yield next,
        without advancing it (unlike :meth:`spawn`, which derives a new
        stream and consumes the parent).
        """
        twin = RandomState.__new__(RandomState)
        twin._seed = self._seed
        twin._rng = np.random.Generator(type(self._rng.bit_generator)(0))
        twin.state = self.state
        return twin


class PlannedNormalStream:
    """Serves pre-materialised standard-normal samples through ``normal()``.

    The GBO noise planner batches every encoded layer's Eq. 5 mixture draw
    for one optimisation step into a single flat RNG materialisation
    (:meth:`repro.backend.engine.SimulationEngine.plan_gbo_noise`) and
    temporarily replaces each layer's ``noise_rng`` with one of these
    streams over its slice of the buffer.  Serving slices is *sample-exact*:
    numpy's ``Generator`` produces the same values whether ``n`` normals are
    drawn in one call or split across several, so the layers observe exactly
    the samples they would have drawn live, in the same order.

    Only ``normal`` is provided — any other use of the stand-in RNG during a
    planned step would be a planning bug and fails loudly.  Draws beyond the
    planned budget raise as well.
    """

    def __init__(self, buffer: np.ndarray):
        self._buffer = np.asarray(buffer).reshape(-1)
        self._cursor = 0

    @property
    def remaining(self) -> int:
        """Number of planned samples not yet served."""
        return int(self._buffer.size - self._cursor)

    def normal(
        self, loc: float = 0.0, scale: float = 1.0, size: Optional[ShapeLike] = None
    ) -> np.ndarray:
        if size is None:
            shape: Tuple[int, ...] = ()
        elif isinstance(size, (int, np.integer)):
            shape = (int(size),)
        else:
            shape = tuple(int(dim) for dim in size)
        count = int(np.prod(shape)) if shape else 1
        end = self._cursor + count
        if end > self._buffer.size:
            raise RuntimeError(
                f"planned noise stream exhausted: requested {count} samples "
                f"with only {self.remaining} of {self._buffer.size} left"
            )
        flat = self._buffer[self._cursor : end]
        self._cursor = end
        out = flat.reshape(shape) if shape else flat[0]
        if not (np.isscalar(scale) and scale == 1.0 and np.isscalar(loc) and loc == 0.0):
            out = out * scale + loc
        return out


def default_rng() -> RandomState:
    """The current execution context's default random state.

    Formerly a module-level singleton; now resolved through
    :func:`repro.context.current_context`, so worker processes and
    explicitly activated contexts each own an independent stream while the
    default path (no context activated) behaves exactly as the old global:
    one shared, seed-0 generator per process.
    """
    from repro.context import current_context

    return current_context().rng


def manual_seed(seed: int) -> None:
    """Reseed the current context's default random state."""
    default_rng().reseed(seed)
