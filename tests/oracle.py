"""Test oracles: the dense state vector and one-run views of the engine.

The dense state vector simulates a round qubit by qubit: the sender's
preparations, the blanket cZs, the basis rotations and every noise event
where it strikes.  The engine never builds it; it is the independent
route the frame kernel's exact distributions are checked against.

One-run views: a repetition's key, its encrypted angles, the decryption
of one run's raw outcomes and one round's noise events.  The engine
computes these for a whole batch at once; these read the same draws and
arrays for a single run.

The joint register: a run whose deviation is one unitary on every
round's qubits at once, simulated as a dense state per run.  It is the
independent route the engine's Pauli-mixture treatment of unitary
attacks (`trapver.protocol.unitary_attack`) is checked against.

The per-stage-copy Walsh-Hadamard transform: the kernel as it was
before it kept one scratch buffer, against which the engine's
`trapver.simulator.fwht_inplace` is checked bit for bit."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from trapver.graphs import ANGLE_STEPS, GraphSpec, k_to_radians, radians_to_k
from trapver.protocol import (
    _CODE_LETTER,
    RoundLayout,
    SecretKey,
    _decode_events,
    _decrypt,
    _draw_blocks,
    _key_words,
    _keys,
    _masks,
    _sites,
)
from trapver.simulator import DEFAULT_QUBIT_CAP, NoiseModel, _check_cap

_SQRT_HALF = 1 / math.sqrt(2)


# ---------------------------------------------------------------------------
# Dense state vector


@dataclass
class StateVector:
    """Mutable dense state on ``n`` qubits; amplitudes little-endian."""

    n: int
    amps: np.ndarray

    def __post_init__(self) -> None:
        if self.amps.shape != (2**self.n,):
            raise ValueError(
                f"amplitude array has shape {self.amps.shape}, "
                f"expected ({2**self.n},)"
            )
        if self.amps.dtype != np.complex128:
            self.amps = self.amps.astype(np.complex128)

    def norm_sq(self) -> float:
        return float(np.vdot(self.amps, self.amps).real)

    def _bit_view(self, q: int) -> np.ndarray:
        """View with axis 1 = qubit q: shape (high, 2, low)."""
        if not 0 <= q < self.n:
            raise IndexError(f"qubit {q} out of range for {self.n}-qubit state")
        return self.amps.reshape(2 ** (self.n - q - 1), 2, 2**q)


def prepare_qubit(kind: str, *params: float) -> StateVector:
    """Single-qubit preparations the sender is allowed to emit.

    ``plus_theta(theta)`` is the rotated plus state, ``dummy(d)`` a
    computational-basis state, and ``z_flipped_plus(theta, parity)`` the
    rotated plus state with a conditional Z — the form actually sent once
    the neighbouring dummy bits are folded in.  Angles must sit on the
    16-point grid.
    """
    if kind == "plus_theta":
        (theta,) = params
        k = radians_to_k(theta)
        amps = np.array(
            [_SQRT_HALF, _SQRT_HALF * np.exp(1j * k_to_radians(k))]
        )
    elif kind == "dummy":
        (d,) = params
        if d not in (0, 1):
            raise ValueError(f"dummy bit must be 0 or 1, got {d!r}")
        amps = np.zeros(2, dtype=np.complex128)
        amps[int(d)] = 1.0
    elif kind == "z_flipped_plus":
        theta, parity = params
        if parity not in (0, 1):
            raise ValueError(f"flip parity must be 0 or 1, got {parity!r}")
        k = radians_to_k(theta)
        phase = k_to_radians(k) + int(parity) * math.pi
        amps = np.array([_SQRT_HALF, _SQRT_HALF * np.exp(1j * phase)])
    else:
        raise ValueError(f"unknown preparation kind {kind!r}")
    return StateVector(n=1, amps=amps.astype(np.complex128))


def tensor(states: Sequence[StateVector], cap: int = DEFAULT_QUBIT_CAP) -> StateVector:
    """Join single-qubit (or larger) registers; qubit 0 = first state."""
    total = sum(s.n for s in states)
    _check_cap(total, cap)
    amps = np.ones(1, dtype=np.complex128)
    for s in states:
        # kron puts its left factor in the high bits
        amps = np.kron(s.amps, amps)
    return StateVector(n=total, amps=amps)


def apply_cz(s: StateVector, i: int, j: int) -> StateVector:
    if i == j:
        raise ValueError("cZ needs two distinct qubits")
    if not (0 <= i < s.n and 0 <= j < s.n):
        raise IndexError(f"qubit pair ({i}, {j}) out of range")
    idx = np.arange(2**s.n)
    both = ((idx >> i) & (idx >> j) & 1).astype(bool)
    s.amps[both] *= -1
    return s


def apply_pauli(s: StateVector, q: int, letter: str) -> StateVector:
    v = s._bit_view(q)
    if letter == "I":
        return s
    if letter == "X":
        tmp = v[:, 0, :].copy()
        v[:, 0, :] = v[:, 1, :]
        v[:, 1, :] = tmp
    elif letter == "Y":
        tmp = v[:, 0, :].copy()
        v[:, 0, :] = -1j * v[:, 1, :]
        v[:, 1, :] = 1j * tmp
    elif letter == "Z":
        v[:, 1, :] *= -1
    else:
        raise ValueError(f"unknown Pauli letter {letter!r}")
    return s


def apply_phase(s: StateVector, q: int, angle: float) -> StateVector:
    """diag(1, e^{i*angle}) on qubit q."""
    v = s._bit_view(q)
    v[:, 1, :] *= np.exp(1j * angle)
    return s


def measure_xy(
    s: StateVector, q: int, delta: float, rng: np.random.Generator
) -> tuple[int, StateVector]:
    """Measure qubit q in the |±_delta⟩ basis; factor the qubit out.

    Implemented as the z-rotation by −delta followed by an X-basis readout.
    The surviving register keeps its little-endian labels with q removed,
    i.e. every qubit above q shifts down by one.
    """
    v = s._bit_view(q)
    rot = np.exp(-1j * delta)
    branch0 = (v[:, 0, :] + rot * v[:, 1, :]) * _SQRT_HALF
    branch1 = (v[:, 0, :] - rot * v[:, 1, :]) * _SQRT_HALF
    p0 = float(np.vdot(branch0, branch0).real)
    p1 = float(np.vdot(branch1, branch1).real)
    total = p0 + p1
    bit = 1 if rng.random() * total >= p0 else 0
    kept = branch1 if bit else branch0
    prob = p1 if bit else p0
    if prob <= 0:
        raise ArithmeticError(
            f"measured impossible outcome {bit} on qubit {q}"
        )
    amps = (kept / math.sqrt(prob)).reshape(-1)
    return bit, StateVector(n=s.n - 1, amps=amps)


# ---------------------------------------------------------------------------
# Dense rounds


class NoiseEvent(NamedTuple):
    """One Pauli error in a round.

    ``step`` −1 is the preparation, 0..E−1 the cZ on ``g.edges[step]``
    (the error follows that gate), and E = ``len(g.edges)`` the readout.
    """

    step: int
    vertex: int
    letter: str


def neighbor_dummy_parity(
    g: GraphSpec, d: Sequence[int]
) -> dict[int, int]:
    """XOR of dummy bits over each non-dummy vertex's dummy neighbours.

    ``d`` is ordered by ascending dummy vertex id.  This parity is what the
    sender folds into each qubit's preparation so the receiver's blanket
    entangling pass lands on the intended state.
    """
    dummies = g.dummy_ids()
    if len(d) != len(dummies):
        raise ValueError(
            f"dummy bit vector has length {len(d)}, expected {len(dummies)}"
        )
    bit_of = dict(zip(dummies, d))
    out: dict[int, int] = {}
    for v in g.non_dummy_ids():
        acc = 0
        for u in g.neighbors(v):
            if g.is_dummy(u):
                acc ^= int(bit_of[u]) & 1
        out[v] = acc
    return out


def encrypt_angles(key: SecretKey, layout: RoundLayout) -> np.ndarray:
    """Measurement angles the prover is told, per canonical round and cell.

    Non-dummy cells carry δ = θ + (−1)^{r′}φ + rπ on the 16-point grid;
    dummy cells get their pre-drawn decoy so the transcript looks the
    same everywhere.  Takes one key or a batch's key arrays.
    """
    dummy, phi = layout._cells
    k = key.theta_k + np.where(key.rprime, -phi, phi) + 8 * key.r
    return np.where(dummy, key.dummy_delta_k, k % ANGLE_STEPS)


def dense_round_state(
    g: GraphSpec,
    theta_k: np.ndarray,
    d_bits: np.ndarray,
    delta_k: np.ndarray,
    events: Sequence[NoiseEvent],
    letters: Mapping[int, str],
    cap: int = DEFAULT_QUBIT_CAP,
) -> StateVector:
    """Full-lattice state of one round, right before the X readouts.

    Preparation (each dummy neighbour's bit folded in as a Z), blanket
    entangling over every lattice edge, basis rotations, then any Pauli
    deviation letters for this round; each noise event is applied where
    its ``step`` puts it, readout events last.
    """
    size = g.m * g.n
    _check_cap(size, cap)
    at: dict[int, list[NoiseEvent]] = {}
    for ev in events:
        at.setdefault(ev.step, []).append(ev)

    def hit(step: int) -> None:
        for ev in at.get(step, ()):
            apply_pauli(state, ev.vertex, ev.letter)

    parity = neighbor_dummy_parity(g, [d_bits[u] for u in g.dummy_ids()])
    state = tensor(
        [
            prepare_qubit("dummy", int(d_bits[v])) if g.is_dummy(v)
            else prepare_qubit("z_flipped_plus", k_to_radians(theta_k[v]), parity[v])
            for v in range(size)
        ],
        cap=cap,
    )
    hit(-1)
    for step, (a, b) in enumerate(g.edges):
        apply_cz(state, a, b)
        hit(step)
    for v in range(size):
        apply_phase(state, v, -k_to_radians(delta_k[v]))
    for v, letter in sorted(letters.items()):
        apply_pauli(state, v, letter)
    hit(len(g.edges))
    return state


# ---------------------------------------------------------------------------
# The per-stage-copy Walsh-Hadamard transform


def fwht_per_stage_copy(a: np.ndarray) -> None:
    """Unnormalized Walsh-Hadamard transform of each row of C-contiguous
    ``a`` along its last axis, with a fresh copy of the upper halves at
    every stage."""
    h = 1
    while h < a.shape[-1]:
        view = a.reshape(-1, 2 * h)
        y = view[:, h:].copy()
        np.subtract(view[:, :h], y, out=view[:, h:])
        view[:, :h] += y
        h *= 2


# ---------------------------------------------------------------------------
# One-run views and the joint register


def keygen(layout: RoundLayout, rng: np.random.Generator) -> SecretKey:
    """Draw a fresh uniform key: the key words of one repetition's block,
    so a seeded generator reproduces the key exactly, and `run_protocol`
    given an equally seeded generator runs under the same key."""
    return _keys(layout, _draw_blocks([rng], _key_words(layout))).run(0)


def decrypt(
    key: SecretKey,
    layout: RoundLayout,
    raw_rounds: Sequence[Sequence[int]],
) -> tuple[tuple[int, ...], ...]:
    """Per-slot decrypted outcomes over non-dummy vertices (ascending),
    by the batch decryption for one run.  Dummy outcomes never appear in
    the output."""
    if len(raw_rounds) != layout.rounds:
        raise ValueError(f"got {len(raw_rounds)} rounds of outcomes, expected {layout.rounds}")
    for slot, raw in enumerate(raw_rounds):
        if len(raw) != layout.m * layout.n:
            raise ValueError(f"slot {slot}: need one outcome per cell")
    raw_c = np.zeros((1, layout.rounds, layout.m * layout.n), np.uint8)
    raw_c[0, list(key.perm)] = raw_rounds
    dec = _decrypt(layout, _masks(layout, key)[None], raw_c)[0]
    return tuple(
        tuple(dec[gi, list(layout.graphs[gi].non_dummy_ids())].tolist())
        for gi in key.perm
    )


def sample_events(
    g: GraphSpec, noise: NoiseModel, rng: np.random.Generator
) -> list[NoiseEvent]:
    """One round's noise events in time order, from one uniform per site
    drawn from ``rng``; a noiseless model draws nothing."""
    if noise.is_noiseless():
        return []
    _, steps, verts, codes = _decode_events(g, noise, rng.random((1, _sites(g))))
    return [
        NoiseEvent(s, v, _CODE_LETTER[c])
        for s, v, c in zip(steps.tolist(), verts.tolist(), codes.tolist())
    ]


def joint_raw_rounds(
    layout: RoundLayout,
    key: SecretKey,
    unitary: np.ndarray,
    private_qubits: int,
    events: Sequence[Sequence[NoiseEvent]],
    rng: np.random.Generator,
    cap: int = DEFAULT_QUBIT_CAP,
) -> list[list[int]]:
    """Raw outcomes per slot with ``unitary`` applied to all rounds in one
    register: every slot's qubits (slot-major, little-endian) plus
    ``private_qubits`` fresh |0⟩ ancillas on top.

    ``events[gi]`` are the noise events of canonical round ``gi``.
    Before the unitary the register is the product of the rounds' dense
    states right before their readouts; readout errors act after it.
    Qubits are read out in the X basis, highest first, from ``rng``.
    """
    size = layout.m * layout.n
    total = layout.rounds * size + private_qubits
    _check_cap(total, cap)
    if unitary.shape != (2**total, 2**total):
        raise ValueError(f"unitary has shape {unitary.shape}, instance needs {total} qubits")
    deltas = encrypt_angles(key, layout)
    states, readout = [], []
    for slot in range(layout.rounds):
        gi = key.perm[slot]
        g = layout.graphs[gi]
        before = [ev for ev in events[gi] if ev.step < len(g.edges)]
        tables = (key.theta_k[gi], key.d[gi], deltas[gi])
        states.append(dense_round_state(g, *tables, before, {}, cap=cap))
        readout += [(slot * size + v, p) for step, v, p in events[gi] if step == len(g.edges)]
    states += [prepare_qubit("dummy", 0)] * private_qubits
    state = tensor(states, cap=cap)
    state.amps = unitary @ state.amps
    for q, letter in readout:
        apply_pauli(state, q, letter)
    bits = [0] * (layout.rounds * size)
    for q in reversed(range(len(bits))):  # highest first, so labels hold
        bits[q], state = measure_xy(state, q, 0.0, rng)
    return [bits[s * size : (s + 1) * size] for s in range(layout.rounds)]


def joint_unitary_run(
    layout: RoundLayout,
    unitary: np.ndarray,
    private_qubits: int,
    noise: NoiseModel,
    rng: np.random.Generator,
) -> tuple[bool, str]:
    """One protocol run against a joint unitary deviation, all from
    ``rng``: `keygen`, each canonical round's `sample_events`, the joint
    register, `decrypt`.  Returns the verdict (every trap slot decoded to
    zeros) and the decrypted computation string."""
    key = keygen(layout, rng)
    events = [sample_events(g, noise, rng) for g in layout.graphs]
    raw = joint_raw_rounds(layout, key, unitary, private_qubits, events, rng)
    dec = decrypt(key, layout, raw)
    accept = not any(any(dec[s]) for s in range(layout.rounds) if key.perm[s] != 0)
    return accept, "".join(map(str, dec[key.target_slot]))
