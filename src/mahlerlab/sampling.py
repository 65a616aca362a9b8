"""The one source of Monte Carlo random numbers.  Block b of a draw, the
samples [b*size, (b+1)*size), comes from Philox keyed by
[seed mod 2^64, stream * 2^32 + b], so it depends on (seed, stream, b) alone:
a longer draw starts with the whole blocks of a shorter one, and a parallel
scheduler would reproduce the sequential draw.  Stream 0 is a sampler's
default; each part of a call that combines draws (a body, its polar, a
product's dual factor) takes a stream of its own."""
import numpy as np


def block_rng(seed: int, stream: int, block: int) -> np.random.Generator:
    """Philox keyed by (seed, stream, block), built from uint64 words: from a
    list, numpy takes a word >= 2^63 through float64, and every seed in
    [-1024, -1] would draw seed 0's points."""
    key = np.array([seed & (2**64 - 1), (stream << 32) + block], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def blocks(seed: int, stream: int, samples: int, size: int):
    """(generator, points) for each block of a draw; the last holds the rest."""
    for b, start in enumerate(range(0, samples, size)):
        yield block_rng(seed, stream, b), min(size, samples - start)
