"""Counter-based pseudo-random values for deterministic generation.

The generator is the SplitMix64 output function applied to
``seed + (index + 1) * 0x9E3779B97F4A7C15`` (all arithmetic mod 2**64).
Every draw is a pure function of (seed, index), so any implementation
of the same recipe reproduces identical streams.
"""

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def splitmix64(seed: int, index: int) -> int:
    """Return the 64-bit value at position ``index`` of the stream for ``seed``."""
    z = (seed + (index + 1) * _GAMMA) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return (z ^ (z >> 31)) & _MASK

