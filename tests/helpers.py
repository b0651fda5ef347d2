"""Test-only helpers over the package's and the oracle's types: density
matrices, the check of an outcome distribution and distances between
them, and the constructors and maxima that only tests ask for."""
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


def check_distribution(d: Distribution) -> Distribution:
    """``d`` itself, once its strings all have ``d.nbits`` characters of
    0 and 1, no probability is below -1e-12 and they sum to 1 within
    1e-10.  Lengths, alphabet and signs are checked over the whole table at
    once; the keys are looped over only to name the first fault."""
    keys = d.probs.keys()
    probs = np.fromiter(d.probs.values(), float, len(keys))
    if (
        set(map(len, keys)) - {d.nbits}
        or "".join(keys).encode().translate(None, b"01")
        or (probs < -1e-12).any()
    ):
        for key, p in d.probs.items():
            if len(key) != d.nbits or set(key) - {"0", "1"}:
                raise ValueError(f"malformed outcome string {key!r}")
            if p < -1e-12:
                raise ValueError(f"negative probability for {key!r}")
    total = sum(d.probs.values(), 0.0)
    if abs(total - 1) > 1e-10:
        raise ValueError(f"probabilities sum to {total!r}, not 1")
    return d


def tv_distance(p: Distribution, q: Distribution) -> float:
    """Total-variation distance of two checked distributions."""
    check_distribution(p)
    check_distribution(q)
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
