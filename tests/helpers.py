"""Test-only helpers over the simulator's and the oracle's types: density
matrices and distances between outcome distributions."""
from __future__ import annotations

from typing import Sequence

import numpy as np

from trapver.simulator import Distribution

from oracle import StateVector


def density_matrix(s: StateVector) -> np.ndarray:
    return np.outer(s.amps, s.amps.conj())


def tv_distance(p: Distribution, q: Distribution) -> float:
    if p.nbits != q.nbits:
        raise ValueError(
            f"distributions over different lengths: {p.nbits} vs {q.nbits}"
        )
    keys = set(p.probs) | set(q.probs)
    return 0.5 * sum(
        abs(p.probs.get(k, 0.0) - q.probs.get(k, 0.0)) for k in keys
    )


def empirical_distribution(samples: Sequence[str]) -> Distribution:
    if not samples:
        raise ValueError("no samples")
    counts: dict[str, int] = {}
    for s in samples:
        counts[s] = counts.get(s, 0) + 1
    total = len(samples)
    return Distribution(
        nbits=len(samples[0]),
        probs={k: v / total for k, v in counts.items()},
    )
