"""Test-only helpers over the package's and the oracle's types: density
matrices, distances between outcome distributions, and the constructors
and maxima that only tests ask for."""
from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from trapver.bounds import attack_gap, valid_attack_classes
from trapver.graphs import ANGLE_STEPS, ROLE_COMPUTATIONAL, GraphSpec, lattice_edges
from trapver.protocol import AttackSpec
from trapver.simulator import (
    PHASES, Distribution, bit_strings, component_probability_rows, index_bits,
)

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


def array_distribution(probs: np.ndarray) -> Distribution:
    """A probability array, bit j of the index = character j, as the
    string-keyed `Distribution` the distances above read."""
    nbits = probs.size.bit_length() - 1
    return Distribution(nbits, dict(zip(bit_strings(index_bits(nbits)), probs.tolist())))


def probabilities_at(
    vertices: Sequence[int], edges: Sequence[tuple[int, int]], steps: Sequence[int]
) -> np.ndarray:
    """One component's outcome probabilities with ``vertices[j]`` measured
    at grid step ``steps[j]``: the kernel's one-row case."""
    phases = PHASES[[[k % ANGLE_STEPS for k in steps]]]
    return component_probability_rows(vertices, edges, phases)[0]


def bits_of(strings: Sequence[str]) -> tuple[tuple[int, ...], ...]:
    """Packed ``"0101…"`` record strings as tuples of 0/1 integers."""
    return tuple(tuple(map(int, s)) for s in strings)


def build_square_lattice(m: int, n: int) -> GraphSpec:
    """The uncarved lattice: every cell computational at angle 0."""
    if m < 1 or n < 1:
        raise ValueError("lattice dimensions must be positive")
    size = m * n
    return GraphSpec(
        m=m,
        n=n,
        roles=(ROLE_COMPUTATIONAL,) * size,
        phi_k=(0,) * size,
        edges=lattice_edges(m, n),
    )


def single_pauli_attack(letters: Mapping[tuple[int, int], str]) -> AttackSpec:
    """Deterministic attack: one Pauli string with weight 1."""
    return AttackSpec(pauli_terms=((1.0, tuple(sorted(letters.items()))),))


def max_attack_gap(kappa: int) -> Fraction:
    """Exhaustive maximum of the gap over every valid class."""
    return max(attack_gap(a)[2] for a in valid_attack_classes(kappa))
