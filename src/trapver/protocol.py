"""End-to-end protocol execution: keys, encryption, rounds, verdicts.

A protocol run is 2κ+1 rounds — one computation round and κ trap rounds
per parity — executed in a secret random order against a prover that may
be honest, noisy, or actively deviating.  `_run_protocol` is the one
function that executes a run: it draws the key, samples one term of the
attack mixture, runs every round, decrypts and reads the trap verdicts
into a `RunRecord`.  `run_protocol`, `run_scheme` and
`estimate_fidelity_gap` all go through it.  Every round with at most
Pauli deviations is simulated by one kernel, `run_round`; only a joint
unitary deviation, which spans rounds, needs the dense state vector.

The kernel rests on the one-time pad: the verifier only sends padded
single-qubit states, so for any key a round's raw outcome distribution is
the key-independent distribution of its carving at the base angles,
XOR-shifted by a mask — r, plus r′ of each surviving neighbour (an r
adds π to the angle, which flips the outcome; an r′ negates it, which
the graph-state stabiliser turns into flips on the neighbours).  Each
carving's per-component base distributions are computed once and cached
as CDFs, so a round costs one binary search per component, one coin per
dummy and O(cells) bit work.  Trap components are deterministic.

Noise is a Pauli error on each preparation, each blanket cZ and each
readout.  A round is a stabiliser circuit followed by one rotation per
qubit, so each sampled error is carried to the end of the round as a
Pauli frame: an X part on v adds Z to v's later cZ partners and, since
diag(1, e^{−iδ})·X = e^{−iδ}·X·diag(1, e^{iδ}), turns v's rotation from
−δ to +δ; Z parts flip outcomes.  A component whose frame holds no X bit
is drawn from its cached CDF as above; one that does is recomputed at
its per-key angles.

The deviation model places Pauli attacks between the prover's basis
rotations and the X readouts, which is where arbitrary deviations are
reduced to Pauli mixtures by the encryption twirl; a Z or Y letter is
therefore exactly a raw-outcome bit flip, and an X letter does nothing.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .graphs import (
    ANGLE_STEPS,
    GraphSpec,
    bridge_corrections,
    carve_target,
    carve_trap_graph,
    k_to_radians,
    neighbor_dummy_parity,
)
from .simulator import (
    DEFAULT_QUBIT_CAP,
    Distribution,
    NoiseModel,
    StateVector,
    _check_cap,
    _induced_components,
    apply_cz,
    apply_pauli,
    apply_phase,
    bits_to_string,
    component_probabilities,
    exact_probability_array,
    measure_xy,
    prepare_qubit,
    tensor,
)

# Bumped whenever a seed would draw different outcomes.  Engine 2 samples
# noiseless rounds from cached base distributions shifted by the key mask;
# engine 3 carries noise as a Pauli frame over the same distributions.
ENGINE_VERSION = 3

KIND_TARGET = "target"
KIND_EVEN = "even"
KIND_ODD = "odd"


@dataclass(frozen=True)
class RoundLayout:
    """The 2κ+1 carvings of one protocol instance, in canonical order:
    the computation target first, then the κ even-parity trap graphs,
    then the κ odd-parity ones.  The secret permutation maps execution
    slots onto this list."""

    m: int
    n: int
    kappa: int
    graphs: tuple[GraphSpec, ...]
    kinds: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.kappa < 1:
            raise ValueError(f"kappa must be >= 1, got {self.kappa}")
        expected = (
            (KIND_TARGET,)
            + (KIND_EVEN,) * self.kappa
            + (KIND_ODD,) * self.kappa
        )
        if self.kinds != expected:
            raise ValueError(
                f"round kinds must be {expected}, got {self.kinds}"
            )
        if len(self.graphs) != 2 * self.kappa + 1:
            raise ValueError("need one graph per round")
        for g in self.graphs:
            if (g.m, g.n) != (self.m, self.n):
                raise ValueError("all rounds must share the lattice shape")

    @property
    def rounds(self) -> int:
        return 2 * self.kappa + 1

    @property
    def target(self) -> GraphSpec:
        return self.graphs[0]


def make_round_layout(m: int, n: int, kappa: int) -> RoundLayout:
    target = carve_target(m, n)
    even = carve_trap_graph(m, n, "even")
    odd = carve_trap_graph(m, n, "odd")
    if not even.trap_ids() or not odd.trap_ids():
        raise ValueError("carving leaves one parity without trap positions")
    return RoundLayout(
        m=m,
        n=n,
        kappa=kappa,
        graphs=(target,) + (even,) * kappa + (odd,) * kappa,
        kinds=(KIND_TARGET,) + (KIND_EVEN,) * kappa + (KIND_ODD,) * kappa,
    )


@dataclass(frozen=True)
class SecretKey:
    """Everything the verifier keeps private for one protocol run.

    All per-round tables are indexed by canonical graph position, not by
    execution slot; ``perm[slot]`` says which canonical graph runs in a
    slot.  ``theta_k`` covers non-dummy vertices; dummies get their decoy
    measurement angle directly in ``dummy_delta_k``.
    """

    perm: tuple[int, ...]
    theta_k: tuple[Mapping[int, int], ...]
    r: tuple[Mapping[int, int], ...]
    rprime: tuple[Mapping[int, int], ...]
    d: tuple[Mapping[int, int], ...]
    dummy_delta_k: tuple[Mapping[int, int], ...]

    @property
    def target_slot(self) -> int:
        return self.perm.index(0)


def keygen(layout: RoundLayout, rng: np.random.Generator) -> SecretKey:
    """Draw a fresh uniform key.  The draw order is fixed — permutation
    first, then per canonical round: θ, r, r′, dummy bits, dummy decoys —
    so a seeded generator reproduces the key exactly."""
    perm = tuple(int(i) for i in rng.permutation(layout.rounds))
    theta, r, rprime, d, decoy = [], [], [], [], []
    for g in layout.graphs:
        nd = g.non_dummy_ids()
        dm = g.dummy_ids()
        theta.append(
            dict(zip(nd, (int(x) for x in rng.integers(0, 16, size=len(nd)))))
        )
        size = g.m * g.n
        r.append(
            dict(enumerate(int(x) for x in rng.integers(0, 2, size=size)))
        )
        rprime.append(
            dict(enumerate(int(x) for x in rng.integers(0, 2, size=size)))
        )
        d.append(
            dict(zip(dm, (int(x) for x in rng.integers(0, 2, size=len(dm)))))
        )
        decoy.append(
            dict(zip(dm, (int(x) for x in rng.integers(0, 16, size=len(dm)))))
        )
    return SecretKey(
        perm=perm,
        theta_k=tuple(theta),
        r=tuple(r),
        rprime=tuple(rprime),
        d=tuple(d),
        dummy_delta_k=tuple(decoy),
    )


def encrypt_angles(
    key: SecretKey, layout: RoundLayout
) -> tuple[dict[int, int], ...]:
    """Measurement angles the prover is told, per canonical round.

    Non-dummy vertices carry δ = θ + (−1)^{r′}φ + rπ on the 16-point
    grid; dummy vertices get their pre-drawn decoy so the transcript
    looks the same everywhere.
    """
    out = []
    for gi, g in enumerate(layout.graphs):
        deltas: dict[int, int] = {}
        for v in range(g.m * g.n):
            if g.is_dummy(v):
                deltas[v] = key.dummy_delta_k[gi][v]
            else:
                sign = -1 if key.rprime[gi][v] else 1
                deltas[v] = (
                    key.theta_k[gi][v]
                    + sign * g.phi_k[v]
                    + 8 * key.r[gi][v]
                ) % ANGLE_STEPS
        out.append(deltas)
    return tuple(out)


@dataclass(frozen=True)
class AttackSpec:
    """A prover deviation: a Pauli mixture or one explicit unitary.

    ``pauli_terms`` is a weighted list; each term maps (slot, vertex) to
    a letter and one term is sampled per protocol run, so the same string
    spans all rounds of that run.  ``unitary`` acts jointly on every
    round's qubits (slot-major, little-endian) plus ``private_qubits``
    fresh |0⟩ ancillas on top, and is only simulable under the qubit cap.
    """

    pauli_terms: tuple[tuple[float, tuple[tuple[tuple[int, int], str], ...]], ...] | None = None
    unitary: np.ndarray | None = None
    private_qubits: int = 0

    def __post_init__(self) -> None:
        if self.pauli_terms is not None and self.unitary is not None:
            raise ValueError("attack is either Pauli terms or a unitary")
        if self.pauli_terms is not None:
            weights = [w for w, _ in self.pauli_terms]
            if any(w < 0 for w in weights):
                raise ValueError("attack weights must be nonnegative")
            if abs(sum(weights) - 1) > 1e-9:
                raise ValueError("attack weights must sum to 1")
            for _, letters in self.pauli_terms:
                for (_slot, _v), letter in letters:
                    if letter not in "IXYZ":
                        raise ValueError(f"bad Pauli letter {letter!r}")
        if self.unitary is not None:
            dim = self.unitary.shape[0]
            if self.unitary.shape != (dim, dim) or dim & (dim - 1):
                raise ValueError("unitary must be square with 2^q rows")
            if self.private_qubits < 0:
                raise ValueError("private register size must be >= 0")
            dev = np.linalg.norm(
                self.unitary.conj().T @ self.unitary - np.eye(dim)
            )
            if dev > 1e-10:
                raise ValueError(f"matrix is not unitary (deviation {dev:g})")

    @property
    def is_honest(self) -> bool:
        return self.pauli_terms is None and self.unitary is None

    def check_against(self, layout: RoundLayout) -> None:
        """Reject Pauli letters on slots or cells ``layout`` does not have."""
        for _, letters in self.pauli_terms or ():
            for (slot, v), _letter in letters:
                if not 0 <= slot < layout.rounds:
                    raise ValueError(
                        f"attack letter on slot {slot}, but the layout "
                        f"runs slots 0..{layout.rounds - 1}"
                    )
                if not 0 <= v < layout.m * layout.n:
                    raise ValueError(
                        f"attack letter on vertex {v}, but the lattice "
                        f"has cells 0..{layout.m * layout.n - 1}"
                    )


HONEST = AttackSpec()


def single_pauli_attack(
    letters: Mapping[tuple[int, int], str]
) -> AttackSpec:
    """Deterministic attack: one Pauli string with weight 1."""
    return AttackSpec(
        pauli_terms=((1.0, tuple(sorted(letters.items()))),)
    )


def _sample_letters(
    strategy: AttackSpec | None, rng: np.random.Generator
) -> dict[tuple[int, int], str]:
    if strategy is None or strategy.pauli_terms is None:
        return {}
    weights = np.array([w for w, _ in strategy.pauli_terms], dtype=float)
    idx = int(rng.choice(len(weights), p=weights / weights.sum()))
    return dict(strategy.pauli_terms[idx][1])


# ---------------------------------------------------------------------------
# Round kernel: cached base distributions, key mask and Pauli frame


class NoiseEvent(NamedTuple):
    """One Pauli error in a round.

    ``step`` −1 is the preparation, 0..E−1 the cZ on ``g.edges[step]``
    (the error follows that gate), and E = ``len(g.edges)`` the readout.
    """

    step: int
    vertex: int
    letter: str


@dataclass(frozen=True)
class _ComponentPlan:
    vertices: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]
    cells: int            # bitmask of ``vertices`` over the lattice
    cdf: np.ndarray       # cumulative base distribution, last entry exactly 1


@dataclass(frozen=True)
class _SimPlan:
    components: tuple[_ComponentPlan, ...]
    dummies: tuple[int, ...]
    # (step, v) -> bitmask of v's cZ partners on edges after ``step``
    later: Mapping[tuple[int, int], int]


@lru_cache(maxsize=64)
def _sim_plan(g: GraphSpec, cap: int) -> _SimPlan:
    """Per-component outcome distributions of ``g`` at its base angles,
    and the cZ-partner table that carries X errors through the round."""
    induced = g.induced_edges()
    comps = []
    for comp in _induced_components(g):
        _check_cap(len(comp), cap)
        members = set(comp)
        edges = tuple(e for e in induced if e[0] in members)
        probs = component_probabilities(
            comp, edges, {v: k_to_radians(g.phi_k[v]) for v in comp}
        )
        cdf = np.cumsum(probs)
        cdf /= cdf[-1]
        comps.append(
            _ComponentPlan(
                vertices=comp,
                edges=edges,
                cells=sum(1 << v for v in comp),
                cdf=cdf,
            )
        )
    after = [0] * (g.m * g.n)
    later: dict[tuple[int, int], int] = {}
    for step in range(len(g.edges) - 1, -1, -1):
        a, b = g.edges[step]
        later[step, a], later[step, b] = after[a], after[b]
        after[a] |= 1 << b
        after[b] |= 1 << a
    later.update(((-1, v), mask) for v, mask in enumerate(after))
    return _SimPlan(
        components=tuple(comps), dummies=g.dummy_ids(), later=later
    )


def _pad_mask(
    g: GraphSpec, r: Mapping[int, int], rprime: Mapping[int, int]
) -> dict[int, int]:
    """Per non-dummy vertex: its r, XOR r′ of its surviving neighbours.

    This is the whole effect of the one-time pad on a round's raw
    outcomes, and exactly what decryption strips off again.
    """
    mask = {}
    for v, nbrs in g.induced_neighbors.items():
        x = r[v]
        for u in nbrs:
            x ^= rprime[u]
        mask[v] = x
    return mask


def _sample_events(
    g: GraphSpec, noise: NoiseModel, rng: np.random.Generator
) -> list[NoiseEvent]:
    """Draw one round's noise events, in time order.

    One array of uniforms covers every site — each preparation (rate
    ε_V), each cZ (rate ε_P, plus one uniform choosing its victim end)
    and each readout (rate ε_P) — and one more array draws a letter from
    ``noise.mix`` per hit.  A noiseless model draws nothing.
    """
    if noise.is_noiseless():
        return []
    size, edges = g.m * g.n, g.edges
    n_edges = len(edges)
    u = rng.random(2 * size + 2 * n_edges)
    rates = np.repeat(
        (noise.eps_v, noise.eps_p, noise.eps_p), (size, n_edges, size)
    )
    hits = np.flatnonzero(u[: 2 * size + n_edges] < rates).tolist()
    if not hits:
        return []
    names = list(noise.mix)
    cum = np.cumsum([noise.mix[p] for p in names])
    picks = np.searchsorted(cum / cum[-1], rng.random(len(hits)), side="right")
    events = []
    for i, pick in zip(hits, picks.tolist()):
        letter = names[pick]
        if i < size:
            events.append(NoiseEvent(-1, i, letter))
        elif i < size + n_edges:
            step = i - size
            a, b = edges[step]
            victim = a if u[2 * size + n_edges + step] < 0.5 else b
            events.append(NoiseEvent(step, victim, letter))
        else:
            events.append(NoiseEvent(n_edges, i - size - n_edges, letter))
    return events


def _pauli_frame(
    plan: _SimPlan, events: Sequence[NoiseEvent], readout_step: int
) -> tuple[int, int]:
    """X and Z bitmasks over the lattice once ``events`` reach the readout.

    An X part before the readout flips its vertex's rotation (X bit) and
    puts Z on the vertex's later cZ partners; a Z part flips its own
    outcome.  An X part at the readout does nothing to an X measurement.
    """
    x = z = 0
    for step, v, letter in events:
        if letter in ("X", "Y") and step < readout_step:
            x ^= 1 << v
            z ^= plan.later[step, v]
        if letter in ("Z", "Y"):
            z ^= 1 << v
    return x, z


def _keyed_angles(
    g: GraphSpec, vertices: Sequence[int], key: SecretKey, gi: int, x: int
) -> dict[int, float]:
    """Effective angles of a component under key round ``gi`` and frame X
    bits ``x``: δ − θ on unflipped vertices, −(δ + θ) on flipped ones."""
    out = {}
    for v in vertices:
        phi = -g.phi_k[v] if key.rprime[gi][v] else g.phi_k[v]
        k = phi + 8 * key.r[gi][v]  # δ − θ
        if (x >> v) & 1:
            k = -(k + 2 * key.theta_k[gi][v])
        out[v] = k_to_radians(k)
    return out


def _frame_round_bits(
    g: GraphSpec,
    plan: _SimPlan,
    key: SecretKey,
    gi: int,
    x: int,
    z: int,
    rng: np.random.Generator,
) -> list[int]:
    """Sample raw outcomes of one round with Pauli frame (``x``, ``z``).

    Each component draws one uniform: against its cached base CDF with
    the key mask XORed in when the frame puts no X bit on it, otherwise
    against its distribution recomputed at `_keyed_angles`.  Dummy
    outcomes are fair coins.  Finally every cell in ``z`` is inverted.
    """
    mask = _pad_mask(g, key.r[gi], key.rprime[gi])
    raw = [0] * (g.m * g.n)
    for comp, u in zip(plan.components, rng.random(len(plan.components))):
        if x & comp.cells:
            probs = component_probabilities(
                comp.vertices,
                comp.edges,
                _keyed_angles(g, comp.vertices, key, gi, x),
            )
            cdf = np.cumsum(probs)
            pick = int(cdf.searchsorted(u * cdf[-1], side="right"))
            for j, v in enumerate(comp.vertices):
                raw[v] = (pick >> j) & 1
        else:
            pick = int(comp.cdf.searchsorted(u, side="right"))
            for j, v in enumerate(comp.vertices):
                raw[v] = ((pick >> j) & 1) ^ mask[v]
    coins = rng.integers(0, 2, size=len(plan.dummies))
    for v, coin in zip(plan.dummies, coins.tolist()):
        raw[v] = coin
    while z:
        low = z & -z
        raw[low.bit_length() - 1] ^= 1
        z ^= low
    return raw


def run_round(
    key: SecretKey,
    round_index: int,
    layout: RoundLayout,
    letters: Mapping[tuple[int, int], str],
    noise: NoiseModel | None = None,
    rng: np.random.Generator | None = None,
    *,
    cap: int = DEFAULT_QUBIT_CAP,
) -> list[int]:
    """Execute one slot and return every lattice cell's raw outcome.

    ``letters`` is the run's sampled attack term, keyed by (slot, vertex).
    Draws the round's noise events, carries them to the readout as a
    Pauli frame together with this slot's letters (a Z or Y letter flips
    its cell's outcome), and samples the outcomes with
    `_frame_round_bits`.  A noiseless round draws no events, so it costs
    one draw per component and one coin per dummy.
    """
    if rng is None:
        raise ValueError("an explicitly seeded generator is required")
    gi = key.perm[round_index]
    g = layout.graphs[gi]
    plan = _sim_plan(g, cap)
    events = _sample_events(g, noise or NoiseModel(), rng)
    x, z = _pauli_frame(plan, events, len(g.edges))
    for (slot, v), letter in letters.items():
        if slot == round_index and letter in ("Z", "Y"):
            z ^= 1 << v
    return _frame_round_bits(g, plan, key, gi, x, z, rng)


# ---------------------------------------------------------------------------
# Dense state vector: joint unitary deviations and the test oracle


def _prep_states(
    g: GraphSpec,
    theta_k: Mapping[int, int],
    d_bits: Mapping[int, int],
) -> list[StateVector]:
    parity = neighbor_dummy_parity(g, [d_bits[u] for u in g.dummy_ids()])
    states = []
    for v in range(g.m * g.n):
        if g.is_dummy(v):
            states.append(prepare_qubit("dummy", d_bits[v]))
        else:
            states.append(
                prepare_qubit(
                    "z_flipped_plus", k_to_radians(theta_k[v]), parity[v]
                )
            )
    return states


def dense_round_state(
    g: GraphSpec,
    theta_k: Mapping[int, int],
    d_bits: Mapping[int, int],
    delta_k: Mapping[int, int],
    events: Sequence[NoiseEvent],
    letters: Mapping[int, str],
    cap: int = DEFAULT_QUBIT_CAP,
) -> StateVector:
    """Full-lattice state of one round, right before the X readouts.

    Preparation, blanket entangling over every lattice edge, basis
    rotations, then any Pauli deviation letters for this round; each
    noise event is applied where its ``step`` puts it, readout events
    last.
    """
    size = g.m * g.n
    _check_cap(size, cap)
    at: dict[int, list[NoiseEvent]] = {}
    for ev in events:
        at.setdefault(ev.step, []).append(ev)

    def hit(step: int) -> None:
        for ev in at.get(step, ()):
            apply_pauli(state, ev.vertex, ev.letter)

    state = tensor(_prep_states(g, theta_k, d_bits), cap=cap)
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


def readout_all(
    state: StateVector, rng: np.random.Generator, count: int | None = None
) -> tuple[list[int], StateVector]:
    """X-measure qubits count−1..0 (highest first).

    Returns the outcome bits (indexed by original qubit position) and
    whatever register remains unmeasured above ``count``.
    """
    count = state.n if count is None else count
    bits = [0] * count
    for q in reversed(range(count)):
        bit, state = measure_xy(state, q, 0.0, rng)
        bits[q] = bit
    return bits, state


# ---------------------------------------------------------------------------
# Decryption and verdicts


def decrypt(
    key: SecretKey,
    layout: RoundLayout,
    raw_rounds: Sequence[Sequence[int]],
) -> tuple[tuple[int, ...], ...]:
    """Per-slot decrypted outcomes over non-dummy vertices (ascending).

    Each bit is unpadded by its own r and by r′ of its surviving
    neighbours; the computation round additionally gets the connector
    corrections.  Dummy outcomes never appear in the output.
    """
    if len(raw_rounds) != layout.rounds:
        raise ValueError(
            f"got {len(raw_rounds)} rounds of outcomes, "
            f"expected {layout.rounds}"
        )
    out = []
    for slot, raw in enumerate(raw_rounds):
        gi = key.perm[slot]
        g = layout.graphs[gi]
        if len(raw) != g.m * g.n:
            raise ValueError(f"slot {slot}: need one outcome per cell")
        padded = list(raw)
        for v, x in _pad_mask(g, key.r[gi], key.rprime[gi]).items():
            padded[v] ^= x
        nd = g.non_dummy_ids()
        if layout.kinds[gi] == KIND_TARGET:
            corr = bridge_corrections(g, padded)
            for v in nd:
                padded[v] ^= corr[v]
        out.append(tuple(padded[v] for v in nd))
    return tuple(out)


@dataclass(frozen=True)
class RunRecord:
    """Transcript of one protocol run, verifier's view."""

    raw: tuple[tuple[int, ...], ...]
    decrypted: tuple[tuple[int, ...], ...]
    trap_passed: tuple[bool | None, ...]
    accept: bool
    target_output: str
    target_slot: int
    attack_letters: tuple[tuple[tuple[int, int], str], ...]

    def to_json_dict(self) -> dict:
        return {
            "raw": [list(rnd) for rnd in self.raw],
            "decrypted": [list(rnd) for rnd in self.decrypted],
            "trap_passed": list(self.trap_passed),
            "accept": self.accept,
            "target_output": self.target_output,
            "target_slot": self.target_slot,
            "attack_letters": [
                [slot, v, letter]
                for (slot, v), letter in self.attack_letters
            ],
        }


def _joint_raw_rounds(
    layout: RoundLayout,
    key: SecretKey,
    strategy: AttackSpec,
    noise: NoiseModel,
    rng: np.random.Generator,
    cap: int,
) -> list[list[int]]:
    """Simulate all rounds in one register and apply the joint unitary.

    Before the unitary the register is the product of the rounds' dense
    states; readout errors act after it.
    """
    size = layout.m * layout.n
    total = layout.rounds * size + strategy.private_qubits
    _check_cap(total, cap)
    if strategy.unitary.shape[0] != 2**total:
        raise ValueError(
            f"unitary covers {int(math.log2(strategy.unitary.shape[0]))} "
            f"qubits, instance needs {total}"
        )
    deltas = encrypt_angles(key, layout)
    states, readout = [], []
    for slot in range(layout.rounds):
        gi = key.perm[slot]
        g = layout.graphs[gi]
        events = _sample_events(g, noise, rng)
        before = [ev for ev in events if ev.step < len(g.edges)]
        states.append(
            dense_round_state(
                g, key.theta_k[gi], key.d[gi], deltas[gi], before, {}, cap=cap
            )
        )
        readout += [
            (slot * size + ev.vertex, ev.letter)
            for ev in events
            if ev.step == len(g.edges)
        ]
    states += [prepare_qubit("dummy", 0)] * strategy.private_qubits
    state = tensor(states, cap=cap)
    state.amps = strategy.unitary @ state.amps
    for q, letter in readout:
        apply_pauli(state, q, letter)
    bits, _ = readout_all(state, rng, count=layout.rounds * size)
    return [bits[s * size : (s + 1) * size] for s in range(layout.rounds)]


def run_protocol(
    layout: RoundLayout,
    strategy: AttackSpec | None = None,
    noise: NoiseModel | None = None,
    rng: np.random.Generator | None = None,
    cap: int = DEFAULT_QUBIT_CAP,
) -> RunRecord:
    """One full verification run: keygen, encrypt, all rounds, decrypt.

    Accepts exactly when every trap round decodes to all zeros.  Attack
    letters on slots or cells the layout does not have are rejected.
    """
    if rng is None:
        raise ValueError("an explicitly seeded generator is required")
    if strategy is not None:
        strategy.check_against(layout)
    return _run_protocol(layout, strategy, noise, rng, cap)


def _run_protocol(
    layout: RoundLayout,
    strategy: AttackSpec | None,
    noise: NoiseModel | None,
    rng: np.random.Generator,
    cap: int,
) -> RunRecord:
    """`run_protocol` for callers that have checked ``strategy`` already.

    The one place a repetition is executed: keygen, one sampled attack
    term, every round (the frame kernel, or one joint register for a
    unitary deviation), decryption and the trap verdicts, in that order
    of generator draws.
    """
    noise = noise or NoiseModel()
    key = keygen(layout, rng)
    letters = _sample_letters(strategy, rng)
    if strategy is not None and strategy.unitary is not None:
        raw_rounds = _joint_raw_rounds(layout, key, strategy, noise, rng, cap)
    else:
        raw_rounds = [
            run_round(key, slot, layout, letters, noise, rng, cap=cap)
            for slot in range(layout.rounds)
        ]
    decrypted = decrypt(key, layout, raw_rounds)
    trap_passed = tuple(
        None if layout.kinds[gi] == KIND_TARGET else not any(decrypted[slot])
        for slot, gi in enumerate(key.perm)
    )
    target_slot = key.target_slot
    return RunRecord(
        raw=tuple(tuple(r) for r in raw_rounds),
        decrypted=decrypted,
        trap_passed=trap_passed,
        accept=False not in trap_passed,
        target_output="".join(str(b) for b in decrypted[target_slot]),
        target_slot=target_slot,
        attack_letters=tuple(sorted(letters.items())),
    )


@dataclass(frozen=True)
class SchemeVerdict:
    """Outcome of the M-repetition scheme."""

    accept: bool
    pass_fraction: float
    output: str
    m: int
    l: float

    def to_json_dict(self) -> dict:
        return {
            "accept": self.accept,
            "pass_fraction": self.pass_fraction,
            "output": self.output,
            "m": self.m,
            "l": self.l,
        }


def run_scheme(
    layout: RoundLayout,
    strategy: AttackSpec | None,
    noise: NoiseModel | None,
    m_repetitions: int,
    l_threshold: float,
    rng: np.random.Generator,
    cap: int = DEFAULT_QUBIT_CAP,
    record_sink: list[RunRecord] | None = None,
) -> SchemeVerdict:
    """M independent runs; accept when the pass fraction reaches l.

    Ties accept (the comparison is ≥).  Each repetition gets its own
    spawned generator stream, so results do not depend on scheduling; the
    published output is one repetition's computation string chosen
    uniformly.  Pass a list as ``record_sink`` to collect the
    per-repetition transcripts.
    """
    if m_repetitions < 1:
        raise ValueError("need at least one repetition")
    if not 0 <= l_threshold <= 1:
        raise ValueError("acceptance fraction must lie in [0, 1]")
    if strategy is not None:
        strategy.check_against(layout)
    streams = rng.spawn(m_repetitions)
    passes = 0
    outputs = []
    for child in streams:
        rec = _run_protocol(layout, strategy, noise, child, cap)
        passes += int(rec.accept)
        outputs.append(rec.target_output)
        if record_sink is not None:
            record_sink.append(rec)
    fraction = passes / m_repetitions
    return SchemeVerdict(
        accept=fraction >= l_threshold,
        pass_fraction=fraction,
        output=outputs[int(rng.integers(m_repetitions))],
        m=m_repetitions,
        l=l_threshold,
    )


# ---------------------------------------------------------------------------
# Fidelity-gap estimation


def _correction_index_map(g: GraphSpec) -> np.ndarray:
    """Connector-correction involution as a permutation of outcome indices."""
    nd = g.non_dummy_ids()
    pos = {v: j for j, v in enumerate(nd)}
    n = len(nd)
    idx = np.arange(2**n)
    out = idx.copy()
    for b in g.bridge_ids():
        ends = g.induced_neighbors[b]
        mask = (1 << pos[ends[0]]) | (1 << pos[ends[1]])
        hit = ((idx >> pos[b]) & 1).astype(bool)
        out[hit] ^= mask
    return out


def honest_target_distribution(
    g: GraphSpec, cap: int = DEFAULT_QUBIT_CAP
) -> Distribution:
    """What the decrypted computation string looks like for an honest run:
    the carved graph measured at its base angles, pushed through the
    connector corrections."""
    probs = exact_probability_array(g, g.base_angles(), cap=cap)
    corrected = np.zeros_like(probs)
    np.add.at(corrected, _correction_index_map(g), probs)
    n = len(g.non_dummy_ids())
    return Distribution(
        nbits=n,
        probs={
            bits_to_string(i, n): float(p) for i, p in enumerate(corrected)
        },
    )


@dataclass(frozen=True)
class GapEstimate:
    """Trap-pass and computation-escape estimates with standard errors.

    ``fc2`` is the twirl-picture escape frequency: the fraction of runs
    whose sampled deviation put no bit-flipping letter on the computation
    round.
    """

    ft2: float
    fc2: float
    gap: float
    ft2_se: float
    fc2_se: float
    gap_se: float
    samples: int


def estimate_fidelity_gap(
    layout: RoundLayout,
    strategy: AttackSpec | None,
    samples: int,
    rng: np.random.Generator,
    cap: int = DEFAULT_QUBIT_CAP,
) -> GapEstimate:
    """Monte Carlo over secret keys of trap passing vs computation escape.

    Noiseless runs with Pauli deviations only — the regime where the
    combinatorial bounds speak.  Each sample is one `_run_protocol`
    repetition: its verdict is the trap indicator, and the escape
    indicator asks whether any Z/Y letter of its sampled term landed on a
    non-dummy cell of whichever slot held the computation round.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    if strategy is not None and strategy.unitary is not None:
        raise ValueError("gap estimation is defined over Pauli mixtures")
    if strategy is not None:
        strategy.check_against(layout)
    nd_target = set(layout.target.non_dummy_ids())
    passes = np.zeros(samples)
    escapes = np.zeros(samples)
    for i in range(samples):
        rec = _run_protocol(layout, strategy, None, rng, cap)
        passes[i] = rec.accept
        escapes[i] = not any(
            s == rec.target_slot and v in nd_target and letter in ("Z", "Y")
            for (s, v), letter in rec.attack_letters
        )

    def se(x: np.ndarray) -> float:
        return float(x.std(ddof=1) / math.sqrt(samples)) if samples > 1 else 0.0

    ft2 = float(passes.mean())
    fc2 = float(escapes.mean())
    return GapEstimate(
        ft2=ft2,
        fc2=fc2,
        gap=ft2 - fc2,
        ft2_se=se(passes),
        fc2_se=se(escapes),
        gap_se=se(passes - escapes),
        samples=samples,
    )
