"""Deterministic random streams.

The generator is SplitMix64 (Steele, Lea & Flood's mixing constants) driven by
a draw counter, so the i-th draw of a stream is a pure function of (seed, i).
That makes streams bit-identical across runs and platforms and lets blocks of
draws be produced with vectorized integer arithmetic without changing the
stream.

Array draws are served from a block of already-clamped uniforms read ahead of
the counter; a draw that runs past the block's end fetches the next one.
Scalar draws compute their one value. Both advance the same counter, so every
value keeps the bits it would have if drawn alone.
"""

import math

import numpy as np

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_MASK64 = 0xFFFFFFFFFFFFFFFF
_TWO53 = float(2**53)
_EPS53 = 2.0**-53
_AHEAD = 4096  # uniforms an array draw fetches past a block's end, 32 KB


def _mix(z):
    # uint64 wraparound is the point; silence numpy's scalar overflow warning
    with np.errstate(over="ignore"):
        z = (z ^ (z >> np.uint64(30))) * _MIX1
        z = (z ^ (z >> np.uint64(27))) * _MIX2
        return z ^ (z >> np.uint64(31))


def _mix_int(z: int) -> int:
    """``_mix`` of one draw in Python int arithmetic, for scalar draws."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _clamped(seed: int, start: int, n: int) -> np.ndarray:
    """Draws start + 1 .. start + n of stream ``seed`` as clamped uniforms."""
    idx = np.arange(start + 1, start + n + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = _mix(np.uint64(seed) + _GAMMA * idx)
    u = (z >> np.uint64(11)).astype(np.float64) / _TWO53
    return np.clip(u, _EPS53, 1.0 - _EPS53)


class Rng:
    """SplitMix64 stream of uniform draws.

    Identical seeds produce identical streams. Uniform doubles are clamped to
    [2^-53, 1 - 2^-53] so downstream log/log-log transforms never see 0 or 1.
    """

    __slots__ = ("seed", "_counter", "_block", "_block_lo")

    def __init__(self, seed: int):
        self.seed = int(seed) & _MASK64
        self._counter = 0
        self._block = None  # clamped uniforms of draws _block_lo + 1, ...
        self._block_lo = 0

    def _uniforms(self, n: int) -> np.ndarray:
        """The next n clamped uniforms, a view into the block. A stream's
        first array draw fetches exactly n, so a one-shot stream pays for no
        read-ahead; a later draw past the block's end fetches max(n, _AHEAD)."""
        at = self._counter - self._block_lo
        block = self._block
        if block is None or at + n > block.size:
            fetch = n if block is None else max(n, _AHEAD)
            block = self._block = _clamped(self.seed, self._counter, fetch)
            self._block_lo = self._counter
            at = 0
        self._counter += n
        return block[at:at + n]

    def _raw_int(self) -> int:
        """The next raw 64-bit draw of the stream, without numpy's per-call
        overhead."""
        self._counter += 1
        return _mix_int((self.seed + 0x9E3779B97F4A7C15 * self._counter) & _MASK64)

    def uniform(self, shape=()) -> "np.ndarray | float":
        """Doubles in the open interval (0, 1); scalar when shape is ()."""
        shape = (shape,) if isinstance(shape, int) else tuple(shape)
        if not shape:
            return min(max((self._raw_int() >> 11) / _TWO53, _EPS53), 1.0 - _EPS53)
        return self._uniforms(math.prod(shape)).reshape(shape)

    def gumbel(self, shape=()) -> "np.ndarray | float":
        """Standard Gumbel(0,1) via -log(-log(u))."""
        u = self.uniform(shape)
        return -np.log(-np.log(u))

    def bernoulli(self, p: float, shape=()) -> np.ndarray:
        """Boolean array, True with probability p."""
        shape = (shape,) if isinstance(shape, int) else tuple(shape)
        u = self.uniform(shape if shape else (1,))
        keep = np.asarray(u) < p
        return keep if shape else bool(keep[0])

    def randint(self, n: int) -> int:
        """Integer in [0, n) by the multiply-high reduction of one raw draw."""
        if n <= 0:
            raise ValueError(f"randint bound must be positive, got {n}")
        return (self._raw_int() * n) >> 64

    def choice(self, seq):
        return seq[self.randint(len(seq))]

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randint(i + 1)
            items[i], items[j] = items[j], items[i]

    def spawn(self, index: int) -> "Rng":
        """Independent child stream; a pure function of (seed, index) for
        0 <= index < 2^64 - 1."""
        index = int(index)
        if not 0 <= index < _MASK64:
            raise ValueError(f"spawn index must lie in [0, 2^64 - 1), got {index}")
        return Rng(_mix_int(self.seed ^ ((0x9E3779B97F4A7C15 * (index + 1)) & _MASK64)))
