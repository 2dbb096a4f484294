"""Deterministic pseudo-random numbers for reproducible generation.

splitmix64 is used because its output is fully specified by the algorithm, so
generated documents are byte-identical across platforms and Python versions,
unlike random.Random whose internal draw order is not a contract we own.
"""

MASK64 = (1 << 64) - 1


class SplitMix64:
    """The splitmix64 sequence seeded by a single 64-bit integer."""

    def __init__(self, seed: int):
        self.state = seed & MASK64

    def next64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return (z ^ (z >> 31)) & MASK64

    def below(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection, so the draw is unbiased."""
        if n <= 0:
            raise ValueError(f"below() needs a positive bound, got {n}")
        # largest multiple of n that fits in 64 bits
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            x = self.next64()
            if x < limit:
                return x % n
