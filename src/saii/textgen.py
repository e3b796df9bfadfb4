"""Seeded random sequence generation for verification and benchmarks."""

from __future__ import annotations

import numpy as np

from .alphabet import PackedSequence


def make_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def random_sequence(rng: np.random.Generator, length: int) -> PackedSequence:
    """Uniform ACGT sequence of exactly `length` symbols."""
    return PackedSequence.from_codes(rng.integers(0, 4, size=length, dtype=np.uint8).tolist())
