"""Arrival processes: Poisson and its stress-test alternatives.

The paper's model assumes Poisson sources; the Table-1 ladder's
exactness (Poisson thinning, M/M/1 class queues) leans on it.  To
quantify that reliance, the simulator supports swapping the interarrival
distribution while keeping each source's *rate*:

* ``poisson`` — exponential interarrivals (the paper's model; cv 1);
* ``deterministic`` — evenly spaced packets (cv 0, smoother than
  Poisson);
* ``hyperexponential`` — a balanced two-phase mix with cv 2 (burstier
  than Poisson).

The ``ablation_arrivals`` experiment measures how far the ladder's
realized allocation drifts from ``C^FS`` under each.

Two interfaces expose the same distributions:

* :func:`interarrival_sampler` — one variate per call (simple, used by
  tandem/network code and tests);
* :class:`VariateStream` — block-batched draws for the event engine's
  hot loop, with a documented draw-order contract.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from repro.exceptions import SimulationError

#: Known process names, their interarrival coefficient of variation.
PROCESS_CV = {
    "poisson": 1.0,
    "deterministic": 0.0,
    "hyperexponential": 2.0,
}

#: Default number of variates a :class:`VariateStream` pre-draws per
#: block.  The golden-sequence regression tests pin the realized
#: sequences at this size; see the class docstring for which processes
#: are block-size invariant.
DEFAULT_BLOCK_SIZE = 1024

#: Recognized variate modes (see :class:`VariateStream`): ``default``
#: keeps numpy's native samplers; ``inverse`` and ``antithetic`` draw
#: by inversion from a shared uniform stream so that two streams with
#: the same seed form an antithetic pair.
VARIATE_MODES = ("default", "inverse", "antithetic")

#: Floor applied to uniforms before ``log`` in the antithetic branch
#: (``U = 0.0`` is a valid ``rng.random()`` output).
_LOG_FLOOR = 1e-300


class VariateStream:
    """A batched, single-distribution variate source for the hot loop.

    Per-event ``rng.exponential(...)`` calls dominate the event engine
    at high load; this class amortizes them by pre-drawing
    ``block_size`` variates at a time into a plain Python list and
    serving them one by one with :meth:`draw`.

    Draw-order contract (regression-tested; bump the engine version
    tag in :mod:`repro.sim.runner` if it changes):

    * ``poisson`` / ``exponential`` — each block is one
      ``rng.exponential(1/rate, block_size)`` call.  NumPy fills the
      array by applying the scalar routine sequentially to the bit
      stream, so the realized sequence is **block-size invariant**:
      element ``k`` equals the k-th single-call draw.
    * ``deterministic`` — the constant gap ``1/rate``; consumes no
      randomness (the stream's generator stays untouched).
    * ``hyperexponential`` — each block draws ``block_size`` uniforms,
      then ``block_size`` standard exponentials, and scales each
      exponential by the phase the paired uniform selected (balanced
      two-phase fit, cv 2, as in :func:`interarrival_sampler`).  The
      uniform/exponential interleaving makes this sequence a function
      of the block size, so it is guaranteed bit-identical only at
      :data:`DEFAULT_BLOCK_SIZE`.

    Variate modes (antithetic pairing)
    ----------------------------------
    ``mode="default"`` is the contract above.  The other two modes
    exist because numpy's ziggurat exponential sampler is not an
    inversion: there is no way to mirror its output.  ``"inverse"``
    draws every variate by inversion from uniforms
    (``X = -log(1 - U) / rate``) and ``"antithetic"`` applies the
    mirrored inversion (``X = -log(U) / rate``) to the *same* uniform
    stream — so two streams built from identically seeded generators,
    one per mode, form an exact antithetic pair.  Both consume one
    uniform per exponential variate (two for hyperexponential), so a
    pair stays draw-for-draw aligned.  These modes define their own
    sequences; they do not alter the default contract.

    ``draws`` counts variates served over the stream's lifetime — the
    common-random-numbers contract tests compare these counters across
    policies to prove paired configs consume identical sequences.
    """

    __slots__ = ("process", "rate", "block_size", "mode", "draws",
                 "_rng", "_buf", "_pos", "_hyper_p", "_hyper_rates")

    def __init__(self, process: str, rate: float,
                 rng: np.random.Generator,
                 block_size: int = DEFAULT_BLOCK_SIZE,
                 mode: str = "default") -> None:
        if rate <= 0.0:
            raise SimulationError(f"rate must be positive, got {rate}")
        if block_size < 1:
            raise SimulationError(
                f"block size must be >= 1, got {block_size}")
        key = process.strip().lower()
        if key == "exponential":
            key = "poisson"        # service streams use either name
        if key not in PROCESS_CV:
            raise SimulationError(
                f"unknown arrival process {process!r}; known: "
                f"{', '.join(sorted(PROCESS_CV))}")
        if mode not in VARIATE_MODES:
            raise SimulationError(
                f"unknown variate mode {mode!r}; known: "
                f"{', '.join(VARIATE_MODES)}")
        self.process = key
        self.rate = float(rate)
        self.block_size = int(block_size)
        self.mode = mode
        self.draws = 0
        self._rng = rng
        self._pos = 0
        if key == "hyperexponential":
            c2 = PROCESS_CV["hyperexponential"] ** 2
            p = 0.5 * (1.0 + math.sqrt((c2 - 1.0) / (c2 + 1.0)))
            self._hyper_p = p
            self._hyper_rates = (2.0 * p * self.rate,
                                 2.0 * (1.0 - p) * self.rate)
        else:
            self._hyper_p = math.nan
            self._hyper_rates = (math.nan, math.nan)
        if key == "deterministic":
            # Constant gaps: fill once, never touch the generator.
            self._buf = [1.0 / self.rate] * self.block_size
        else:
            self._buf = []

    def _standard_exponentials(self) -> np.ndarray:
        """One block of unit-rate exponentials in the stream's mode."""
        if self.mode == "default":
            return self._rng.standard_exponential(self.block_size)
        uniforms = self._rng.random(self.block_size)
        if self.mode == "inverse":
            return -np.log1p(-uniforms)
        return -np.log(np.maximum(uniforms, _LOG_FLOOR))

    def _refill(self) -> list:
        """Draw the next block (see the draw-order contract above)."""
        if self.process == "poisson":
            if self.mode == "default":
                block = self._rng.exponential(1.0 / self.rate,
                                              self.block_size)
            else:
                block = self._standard_exponentials() / self.rate
        elif self.process == "deterministic":
            return self._buf
        else:
            uniforms = self._rng.random(self.block_size)
            if self.mode == "antithetic":
                uniforms = 1.0 - uniforms
            exponentials = self._standard_exponentials()
            fast, slow = self._hyper_rates
            # The mirrored uniforms only *select* a phase; the divisor
            # is one of two strictly positive phase rates.
            block = exponentials / np.where(  # greedwork: ignore[GW201]
                uniforms < self._hyper_p, fast, slow)
        self._buf = block.tolist()
        return self._buf

    def draw(self) -> float:
        """The next variate (refilling the block when exhausted)."""
        pos = self._pos
        buf = self._buf
        if pos >= len(buf):
            buf = self._refill()
            pos = 0
        self._pos = pos + 1
        self.draws += 1
        return buf[pos]

    def take(self, n: int) -> np.ndarray:
        """The next ``n`` variates as an array (mostly for tests)."""
        if n < 0:
            raise SimulationError(f"cannot take {n} variates")
        out = np.empty(n)
        # Test/diagnostic accessor, not an engine hot path; the chunked
        # engine uses peek_block/consume.
        for k in range(n):
            out[k] = self.draw()
        return out

    # -- chunked bulk access (the chunked engine backend) ---------------
    #
    # The chunked event kernels consume variates in arrays instead of
    # one ``draw()`` call per event.  The protocol below is exactly
    # equivalent to a sequence of ``draw()`` calls — same refill
    # points, same generator state, same ``draws`` counter — which is
    # what keeps the chunked backend bit-identical to the scalar one:
    #
    # * :meth:`buffered` exposes the not-yet-served tail of the
    #   current block *without* touching the generator;
    # * :meth:`peek_block` does the same but refills first when the
    #   buffer is exhausted (only call it when at least one more
    #   variate is genuinely needed, or the extra refill desyncs the
    #   generator from the scalar backend's);
    # * :meth:`consume` commits ``k`` of the exposed variates, exactly
    #   like ``k`` ``draw()`` calls would have.

    def buffered(self) -> np.ndarray:
        """Remaining buffered variates; never touches the generator."""
        return np.asarray(self._buf[self._pos:], dtype=float)

    def peek_block(self) -> np.ndarray:
        """Remaining buffered variates, refilling an empty buffer.

        The refill happens at exactly the point a ``draw()`` call
        would have triggered it, so callers must only invoke this when
        the next variate is actually needed.
        """
        if self._pos >= len(self._buf):
            self._buf = self._refill()
            self._pos = 0
        return np.asarray(self._buf[self._pos:], dtype=float)

    def consume(self, n: int) -> None:
        """Commit ``n`` previously peeked variates as served."""
        if n < 0 or self._pos + n > len(self._buf):
            raise SimulationError(
                f"cannot consume {n} variates "
                f"({len(self._buf) - self._pos} buffered)")
        self._pos += n
        self.draws += n


def interarrival_sampler(process: str, rate: float,
                         rng: np.random.Generator) -> Callable[[], float]:
    """A zero-argument sampler of interarrival times at mean ``1/rate``.

    The hyperexponential variant is the standard balanced-means H2 fit
    for squared coefficient of variation ``c2 = 4``: phases with
    probabilities ``p`` and ``1 - p``, ``p = (1 + sqrt((c2-1)/(c2+1)))/2``,
    and rates ``2 p rate`` and ``2 (1-p) rate``.
    """
    if rate <= 0.0:
        raise SimulationError(f"rate must be positive, got {rate}")
    key = process.strip().lower()
    if key == "poisson":
        mean = 1.0 / rate

        def sample_poisson() -> float:
            return float(rng.exponential(mean))

        return sample_poisson
    if key == "deterministic":
        gap = 1.0 / rate

        def sample_deterministic() -> float:
            return gap

        return sample_deterministic
    if key == "hyperexponential":
        c2 = PROCESS_CV["hyperexponential"] ** 2
        if c2 < 1.0:
            raise SimulationError(
                f"hyperexponential balanced-means fit needs CV^2 >= 1, "
                f"got {c2}")
        p = 0.5 * (1.0 + math.sqrt((c2 - 1.0) / (c2 + 1.0)))
        rate_fast = 2.0 * p * rate
        rate_slow = 2.0 * (1.0 - p) * rate

        def sample_hyper() -> float:
            if rng.random() < p:
                return float(rng.exponential(1.0 / rate_fast))
            return float(rng.exponential(1.0 / rate_slow))

        return sample_hyper
    raise SimulationError(
        f"unknown arrival process {process!r}; known: "
        f"{', '.join(sorted(PROCESS_CV))}")
