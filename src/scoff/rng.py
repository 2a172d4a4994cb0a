"""Deterministic random streams.

The generator is SplitMix64 (Steele, Lea & Flood's mixing constants) driven by
a draw counter, so the i-th draw of a stream is a pure function of (seed, i).
That makes streams bit-identical across runs and platforms and lets blocks of
draws be produced with vectorized integer arithmetic without changing the
stream.
"""

import numpy as np

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_MASK64 = 0xFFFFFFFFFFFFFFFF
_TWO53 = float(2**53)
_EPS53 = 2.0**-53


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


class Rng:
    """SplitMix64 stream of uniform draws.

    Identical seeds produce identical streams. Uniform doubles are clamped to
    [2^-53, 1 - 2^-53] so downstream log/log-log transforms never see 0 or 1.
    """

    __slots__ = ("seed", "_counter")

    def __init__(self, seed: int):
        self.seed = int(seed) & _MASK64
        self._counter = 0

    def _raw(self, n: int) -> np.ndarray:
        idx = np.arange(self._counter + 1, self._counter + n + 1, dtype=np.uint64)
        self._counter += n
        with np.errstate(over="ignore"):
            return _mix(np.uint64(self.seed) + _GAMMA * idx)

    def _raw_int(self) -> int:
        """The next draw of the stream, equal to ``_raw(1)[0]`` but without
        numpy's per-call overhead."""
        self._counter += 1
        return _mix_int((self.seed + 0x9E3779B97F4A7C15 * self._counter) & _MASK64)

    def uniform(self, shape=()) -> "np.ndarray | float":
        """Doubles in the open interval (0, 1); scalar when shape is ()."""
        shape = (shape,) if isinstance(shape, int) else tuple(shape)
        if not shape:
            return min(max((self._raw_int() >> 11) / _TWO53, _EPS53), 1.0 - _EPS53)
        n = 1
        for s in shape:
            n *= s
        u = (self._raw(n) >> np.uint64(11)).astype(np.float64) / _TWO53
        return np.clip(u, _EPS53, 1.0 - _EPS53).reshape(shape)

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
        """Independent child stream; a pure function of (seed, index)."""
        with np.errstate(over="ignore"):
            child = _mix(np.uint64(self.seed) ^ (_GAMMA * np.uint64(int(index) + 1)))
        return Rng(int(child))
