"""Seedable random number generation.

All randomized behavior in the toolkit (trim-length sampling, bootstrap
resampling, fuzz corpora) draws from numpy's PCG64 bit generator, which has
a published algorithm and produces identical streams on every platform.
"""

import numpy as np


def make_rng(seed: int) -> np.random.Generator:
    """PCG64 generator for a root seed."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))

