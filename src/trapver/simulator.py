"""Graph-state outcome probabilities, the noise model and outcome strings.

One route gives outcome probabilities: the Walsh-Hadamard transform of a
component's graph-state phases, `component_probability_rows`, which
`exact_probability_array` joins over a carving's `GraphSpec.components`.
The tests check it against an independent spin-sum oracle.  Angles are
grid steps k meaning kπ/8, as in `graphs`; `PHASES` holds their e^{−iδ}.

Bit convention, used everywhere in this package: amplitudes are indexed
little-endian — bit ``j`` of the array index is qubit ``j``.  Outcome
strings (`bit_strings`) read left to right in ascending vertex order,
i.e. the leftmost character belongs to the lowest vertex id.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .graphs import ANGLE_STEPS, GraphSpec, k_to_radians

# e^{−iδ} at each grid step k, δ = kπ/8: every angle the package measures at.
PHASES = np.array([np.exp(-1j * k_to_radians(k)) for k in range(ANGLE_STEPS)])

PAULI_LETTERS = ("X", "Y", "Z")

DEFAULT_PAULI_MIX: Mapping[str, float] = {"X": 1 / 3, "Y": 1 / 3, "Z": 1 / 3}


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
    """Probabilities over fixed-length outcome strings, as a plain record."""

    nbits: int
    probs: Mapping[str, float]


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


def component_probability_rows(
    vertices: Sequence[int],
    edges: Iterable[tuple[int, int]],
    phases: np.ndarray,
) -> np.ndarray:
    """Outcome probabilities of one connected graph-state component at many
    angle settings at once: row ``i`` of ``phases`` holds e^{−iδ} per vertex
    (`PHASES` at its grid step), row ``i`` of the result the probabilities,
    index bit ``j`` belonging to ``vertices[j]``.  Each row is computed
    exactly as a row on its own.

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


def exact_probability_array(g: GraphSpec, steps: Mapping[int, int] | None = None) -> np.ndarray:
    """Joint outcome probabilities, index bit ``j`` = j-th non-dummy vertex,
    each vertex ``v`` measured at grid step ``steps[v]`` (``g.phi_k`` by
    default), taken mod 16.  It holds 8·2^N bytes for N non-dummy vertices
    and 24·2^c while transforming a component of c; size is the caller's
    budget (the CLI's ``--cap`` and memory check)."""
    nd = g.non_dummy_ids()
    steps = dict(enumerate(g.phi_k)) if steps is None else steps
    for v in nd:
        if v not in steps:
            raise ValueError(f"no measurement angle for vertex {v}")
    joint = np.ones(1, dtype=np.float64)
    order: list[int] = []
    for vertices, edges in g.components:
        phases = PHASES[[[steps[v] % ANGLE_STEPS for v in vertices]]]
        p = component_probability_rows(vertices, edges, phases)[0]
        # Little-endian outer product: the new component lands in the
        # high bits, previously placed vertices keep the low bits.  The
        # first component is the joint array itself, not a copy of it.
        joint = np.multiply.outer(p, joint).reshape(-1) if order else p
        order.extend(vertices)
    n = len(nd)
    # Axis a of the (2,)*n view holds bit n-1-a; permute so bit j is nd[j].
    perm = [n - 1 - order.index(v) for v in reversed(nd)]
    return joint.reshape((2,) * n).transpose(perm).reshape(-1)


def index_bits(nbits: int) -> np.ndarray:
    """Row ``i``: the ``nbits`` bits of ``i``, lowest first, as uint8."""
    index = np.arange(2**nbits, dtype="<u8").reshape(-1, 1).view(np.uint8)
    return np.unpackbits(index, axis=1, count=nbits, bitorder="little")


def bit_strings(bits: np.ndarray) -> list[str]:
    """Each row of the 0/1 array ``bits`` as an outcome string: column j
    is character j, so a little-endian index's bits read lowest first."""
    nbits = bits.shape[1]
    text = (bits + ord("0")).astype(np.uint8).tobytes().decode("ascii")
    return [text[i * nbits : (i + 1) * nbits] for i in range(len(bits))]
