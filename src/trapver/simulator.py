"""Graph-state outcome distributions and the exact output-distribution oracles.

Two independent routes to the same answer live here on purpose: the
per-component Walsh-Hadamard route (`exact_output_distribution`) and the
imaginary-temperature partition-function route
(`ising_partition_probability`).  They share no code beyond the graph
structure, so agreement between them is evidence, not tautology.

Bit convention, used everywhere in this package: amplitudes are indexed
little-endian — bit ``j`` of the array index is qubit ``j``.  Outcome
strings read left to right in ascending vertex order, i.e. the leftmost
character belongs to the lowest vertex id.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .graphs import GraphSpec

DEFAULT_QUBIT_CAP = 22

PAULI_LETTERS = ("X", "Y", "Z")

DEFAULT_PAULI_MIX: Mapping[str, float] = {"X": 1 / 3, "Y": 1 / 3, "Z": 1 / 3}


class QubitCapError(ValueError):
    """Instance exceeds the configured dense-simulation size."""


def _check_cap(n: int, cap: int) -> None:
    if n > cap:
        raise QubitCapError(f"instance needs {n} qubits, cap is {cap}")


@dataclass(frozen=True)
class NoiseModel:
    """Error-event probabilities and the Pauli mixture used on an event.

    ``eps_v`` hits each qubit once at preparation; ``eps_p`` hits each
    entangling gate and each measurement.  A zero rate never fires, and
    a noiseless model consumes no RNG draws.
    """

    eps_v: float = 0.0
    eps_p: float = 0.0
    mix: Mapping[str, float] = field(
        default_factory=lambda: dict(DEFAULT_PAULI_MIX)
    )

    def __post_init__(self) -> None:
        if not (0 <= self.eps_v < 1 and 0 <= self.eps_p < 1):
            raise ValueError("error probabilities must lie in [0, 1)")
        weights = list(self.mix.values())
        if any(w < 0 for w in weights):
            raise ValueError("Pauli mixture weights must be nonnegative")
        if abs(sum(weights) - 1) > 1e-9:
            raise ValueError("Pauli mixture weights must sum to 1")
        for letter in self.mix:
            if letter not in PAULI_LETTERS:
                raise ValueError(f"mixture letter {letter!r} not in X/Y/Z")

    def is_noiseless(self) -> bool:
        return self.eps_v == 0 and self.eps_p == 0


@dataclass(frozen=True)
class Distribution:
    """Probabilities over fixed-length outcome strings."""

    nbits: int
    probs: Mapping[str, float]

    def __post_init__(self) -> None:
        total = 0.0
        for key, p in self.probs.items():
            if len(key) != self.nbits or set(key) - {"0", "1"}:
                raise ValueError(f"malformed outcome string {key!r}")
            if p < -1e-12:
                raise ValueError(f"negative probability for {key!r}")
            total += p
        if abs(total - 1) > 1e-10:
            raise ValueError(f"probabilities sum to {total!r}, not 1")


def fwht_inplace(a: np.ndarray) -> None:
    """Unnormalized Walsh-Hadamard transform, kernel (−1)^{s·z}, of each
    row of C-contiguous ``a`` along its last axis.

    One half-size scratch buffer, allocated once, holds each stage's
    upper halves, so the transform never holds more than ``a`` plus half
    of it.  Every butterfly is (x − y, x + y) in the same order, so the
    result is bit for bit that of a fresh copy per stage.
    """
    h = 1
    scratch = np.empty(a.size // 2, a.dtype)
    while h < a.shape[-1]:
        view = a.reshape(-1, 2 * h)
        y = scratch.reshape(-1, h)
        np.copyto(y, view[:, h:])
        np.subtract(view[:, :h], y, out=view[:, h:])
        view[:, :h] += y
        h *= 2


def _induced_components(g: GraphSpec) -> list[tuple[int, ...]]:
    """Connected components of the non-dummy induced subgraph, ids ascending."""
    adj = g.induced_neighbors
    seen: set[int] = set()
    comps: list[tuple[int, ...]] = []
    for start in g.non_dummy_ids():
        if start in seen:
            continue
        stack, comp = [start], []
        seen.add(start)
        while stack:
            v = stack.pop()
            comp.append(v)
            for u in adj[v]:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        comps.append(tuple(sorted(comp)))
    return comps


def component_probabilities(
    vertices: Sequence[int],
    edges: Iterable[tuple[int, int]],
    angles: Mapping[int, float],
) -> np.ndarray:
    """Outcome probabilities for one connected graph-state component,
    measured at ``angles``; index bit ``j`` belongs to ``vertices[j]``."""
    phases = np.array([[np.exp(-1j * angles[v]) for v in vertices]])
    return component_probability_rows(vertices, edges, phases)[0]


def component_probability_rows(
    vertices: Sequence[int],
    edges: Iterable[tuple[int, int]],
    phases: np.ndarray,
) -> np.ndarray:
    """`component_probabilities` at many angle settings at once: row ``i``
    of ``phases`` holds e^{−iδ} per vertex, row ``i`` of the result the
    probabilities.  Each row is computed exactly as a row on its own.

    The amplitude for outcome ``s`` is the Walsh-Hadamard transform, at
    index ``s``, of z ↦ (−1)^{#edges inside z} · e^{−i δ·z}, scaled by
    2^{−|V|}.
    """
    rows, c = len(phases), len(vertices)
    pos = {v: j for j, v in enumerate(vertices)}
    earlier: list[list[int]] = [[] for _ in range(c)]
    for a, b in edges:
        lo, hi = sorted((pos[a], pos[b]))
        earlier[hi].append(lo)
    # Fill f by doubling: indices with bit j set are the block below them
    # times vertex j's phase, negated where an earlier neighbour's bit is 1.
    f = np.empty((rows, 2**c), dtype=np.complex128)
    f[:, 0] = 1.0
    for j in range(c):
        upper = f[:, 2**j : 2 ** (j + 1)]
        np.multiply(f[:, : 2**j], phases[:, j, None], out=upper)
        for lo in earlier[j]:
            upper.reshape(rows, -1, 2, 2**lo)[:, :, 1, :] *= -1
    fwht_inplace(f)
    # |f|² / 4^c without a second full-size complex or float copy.
    parts = f.view(np.float64).reshape(rows, -1, 2)
    np.square(parts, out=parts)
    probs = np.add(parts[:, :, 0], parts[:, :, 1])
    probs *= 0.25**c
    return probs


def exact_probability_array(
    g: GraphSpec,
    angles: Mapping[int, float],
    cap: int = DEFAULT_QUBIT_CAP,
) -> np.ndarray:
    """Joint outcome probabilities, index bit ``j`` = j-th non-dummy vertex."""
    nd = g.non_dummy_ids()
    _check_cap(len(nd), cap)
    for v in nd:
        if v not in angles:
            raise ValueError(f"no measurement angle for vertex {v}")
    comps = _induced_components(g)
    induced = set(g.induced_edges())
    joint = np.ones(1, dtype=np.float64)
    order: list[int] = []
    for comp in comps:
        comp_edges = [e for e in induced if e[0] in comp and e[1] in comp]
        p = component_probabilities(comp, comp_edges, angles)
        # Little-endian outer product: the new component lands in the
        # high bits, previously placed vertices keep the low bits.  The
        # first component is the joint array itself, not a copy of it.
        joint = np.multiply.outer(p, joint).reshape(-1) if order else p
        order.extend(comp)
    n = len(nd)
    # Permute bit positions so bit j belongs to nd[j].
    axes_vertex = [order[n - 1 - a] for a in range(n)]  # axis -> vertex
    want_axis_vertex = [nd[n - 1 - a] for a in range(n)]
    perm = [axes_vertex.index(v) for v in want_axis_vertex]
    joint = joint.reshape((2,) * n).transpose(perm).reshape(-1)
    return joint


def bits_to_string(index: int, nbits: int) -> str:
    """Little-endian index to outcome string, lowest bit leftmost."""
    return "".join("1" if (index >> j) & 1 else "0" for j in range(nbits))


def string_to_bits(s: str) -> int:
    return sum(1 << j for j, ch in enumerate(s) if ch == "1")


def exact_output_distribution(
    g: GraphSpec,
    angles: Mapping[int, float],
    cap: int = DEFAULT_QUBIT_CAP,
) -> Distribution:
    """Exact outcome distribution of measuring the carved graph state.

    Non-dummy vertices are prepared as |+⟩, entangled along the induced
    edges, and each measured in the xy-plane at its angle.  No sampling is
    involved; probabilities come from full enumeration.
    """
    probs = exact_probability_array(g, angles, cap=cap)
    n = len(g.non_dummy_ids())
    return Distribution(
        nbits=n,
        probs={bits_to_string(i, n): float(p) for i, p in enumerate(probs)},
    )


@dataclass(frozen=True)
class IsingInstance:
    """Couplings and fields whose imaginary-temperature trace reproduces
    the sampler's outcome probabilities."""

    n: int
    edges: tuple[tuple[int, int], ...]
    couplings: tuple[float, ...]
    fields: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.couplings) != len(self.edges):
            raise ValueError("one coupling per edge required")
        if len(self.fields) != self.n:
            raise ValueError("one local field per vertex required")
        for a, b in self.edges:
            if not (0 <= a < self.n and 0 <= b < self.n):
                raise ValueError(f"edge {(a, b)} out of range")

    @classmethod
    def from_carved_graph(
        cls, g: GraphSpec, angles: Mapping[int, float]
    ) -> "IsingInstance":
        """Map measurement angles to fields: J = π/4 on every surviving
        edge, B_i = π·deg(i)/4 − δ_i/2, vertices relabeled 0..N−1 in
        ascending id order."""
        nd = g.non_dummy_ids()
        pos = {v: i for i, v in enumerate(nd)}
        edges = tuple(
            (pos[a], pos[b]) for a, b in g.induced_edges()
        )
        fields = tuple(
            math.pi * g.induced_degree(v) / 4 - angles[v] / 2 for v in nd
        )
        return cls(
            n=len(nd),
            edges=edges,
            couplings=(math.pi / 4,) * len(edges),
            fields=fields,
        )


def ising_partition_probability(
    inst: IsingInstance,
    x: str | Sequence[int],
    cap: int = DEFAULT_QUBIT_CAP,
    chunk: int = 1 << 16,
) -> float:
    """|Tr e^{−i(H + (π/2)Σ x_i Z_i)}|² / 2^{2N} by explicit spin summation.

    H = −Σ J Z_iZ_j + Σ B_i Z_i is diagonal, so the trace is a sum of
    phases over all 2^N spin configurations s ∈ {±1}^N, evaluated here in
    chunks to bound memory.
    """
    _check_cap(inst.n, cap)
    bits = (
        [int(ch) for ch in x] if isinstance(x, str) else [int(b) for b in x]
    )
    if len(bits) != inst.n:
        raise ValueError(f"outcome has {len(bits)} bits, expected {inst.n}")
    shifted = np.array(inst.fields) + math.pi / 2 * np.array(bits)
    total = 0.0 + 0.0j
    for start in range(0, 2**inst.n, chunk):
        idx = np.arange(start, min(start + chunk, 2**inst.n))
        # spin s_i = +1 for index bit 0, -1 for bit 1
        spins = 1.0 - 2.0 * (
            (idx[:, None] >> np.arange(inst.n)[None, :]) & 1
        )
        energy = shifted @ spins.T
        for (a, b), j in zip(inst.edges, inst.couplings):
            energy -= j * spins[:, a] * spins[:, b]
        total += np.exp(-1j * energy).sum()
    return float(abs(total) ** 2 / 2 ** (2 * inst.n))
