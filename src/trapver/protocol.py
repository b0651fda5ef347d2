"""End-to-end protocol execution: keys, encryption, rounds, verdicts.

A protocol run is 2κ+1 rounds — one computation round and κ trap rounds
per parity — executed in a secret random order against a prover that may
be honest, noisy, or actively deviating.  `_run_batch` is the one
function that executes runs: given one generator per repetition, it
draws the whole batch's keys, attack terms, outcomes and noise events as
arrays, decrypts with GF(2) products and reads the trap verdicts off as
row reductions.  It returns the batch as columns, a `RunBatch`, whose
`RunRecord` views are the per-run transcripts.  `run_protocol`,
`run_scheme` and `estimate_fidelity_gap` all go through it.  Every
deviation reaches it as a Pauli mixture: a unitary one is converted
once, where it enters, by `unitary_attack`.

The round kernel rests on the one-time pad: for any key a round's raw
outcome distribution is the key-independent distribution of its carving
at the base angles, XOR-shifted by a mask — r, plus r′ of each surviving
neighbour (an r adds π to the angle, which flips the outcome; an r′
negates it, which the graph-state stabiliser turns into flips on the
neighbours).  Each carving's per-component base distributions are cached
as CDFs, so a round costs one binary search per component for all runs.

Noise is a Pauli error on each preparation, each blanket cZ and each
readout.  A round is a stabiliser circuit followed by one rotation per
qubit, so each error is carried to the readout as a Pauli frame: an X
part on v adds Z to v's later cZ partners and, since diag(1, e^{−iδ})·X
= e^{−iδ}·X·diag(1, e^{iδ}), turns v's rotation from −δ to +δ; Z parts
flip outcomes.  Only a run whose frame puts an X bit on a component
recomputes that component, at its per-key angles.

Each repetition draws one fixed-layout block of raw 64-bit words from
its own generator, so its record does not depend on its batch.  With
R = 2κ+1 rounds, C cells and E lattice edges, a block holds in order:

- R words whose ranks order the slots: slot s runs canonical round
  ``argsort(words)[s]``;
- ⌈R·C/8⌉ words read as R·C little-endian key bytes, canonical round
  major: bits 0–3 are θ on a non-dummy and the decoy angle on a dummy,
  bit 4 is r, bit 5 r′ and bit 6 d (dummies only);
- uniforms (word >> 11)·2⁻⁵³: one picking the attack term, then per
  canonical round one per component of its `_SimPlan` and, unless the
  noise model is noiseless, one per noise site: C preparations, E cZs,
  C readouts.

The deviation model places Pauli attacks between the prover's basis
rotations and the X readouts, which is where arbitrary deviations are
reduced to Pauli mixtures by the encryption twirl; a Z or Y letter is
therefore exactly a raw-outcome bit flip, and an X letter does nothing.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import cached_property, lru_cache
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .bounds import pauli_matrix
from .graphs import (
    ANGLE_STEPS, GraphSpec, carve_target, carve_trap_graph, k_to_radians,
)
from .simulator import (
    DEFAULT_QUBIT_CAP, Distribution, NoiseModel, _check_cap, _induced_components,
    bits_to_string, component_probabilities, component_probability_rows,
    exact_probability_array,
)

# Bumped whenever a seed would draw different outcomes.  Engine 2 samples
# noiseless rounds from cached base distributions shifted by the key mask;
# engine 3 carries noise as a Pauli frame over the same distributions;
# engine 4 draws each repetition's fixed block and runs batches as arrays;
# engine 5 runs a unitary deviation as its Pauli mixture.
ENGINE_VERSION = 5

# Repetitions simulated together; bounds the memory of the batch arrays.
_BATCH = 1024
# Output strings of at most this many bits come from one shared table per
# length, so stored outputs do not each hold their own string.
_SHARED_STRING_BITS = 12
# A Pauli letter as two bits: bit 0 is its X part, bit 1 its Z part.
_LETTER_CODE = {"I": 0, "X": 1, "Z": 2, "Y": 3}
_CODE_LETTER = "IXZY"
# Row l, entry 2a + b: ⟨b|σ|a⟩ for the letter σ of code l, so contracting a
# qubit's (row bit a, column bit b) pair with row l takes Tr(σ·) there.
_LETTER_TRACE = np.array([pauli_matrix(c).T.reshape(4) for c in _CODE_LETTER])
_NOISELESS = NoiseModel()
# e^{−iδ} at each grid angle, exactly as `component_probabilities` forms it.
_PHASES = np.array([np.exp(-1j * k_to_radians(k)) for k in range(ANGLE_STEPS)])
# Amplitudes a batched recompute holds at once: one component's hit runs
# go max(1, 2^20 >> cells) rows at a time, so a 20-cell one goes singly.
_RECOMPUTE_AMPLITUDES = 2**20


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

    def __post_init__(self) -> None:
        if self.kappa < 1:
            raise ValueError(f"kappa must be >= 1, got {self.kappa}")
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

    @cached_property
    def _cells(self) -> tuple[np.ndarray, np.ndarray]:
        """Per canonical round and cell: 1 on dummies, and the base angle."""
        dummy = [[int(g.is_dummy(v)) for v in range(self.m * self.n)] for g in self.graphs]
        return np.array(dummy, np.uint8), np.array([g.phi_k for g in self.graphs])


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
    )


class SecretKey(NamedTuple):
    """Everything the verifier keeps private for one protocol run.

    The tables are uint8 arrays of shape rounds × cells, indexed by
    canonical graph position, not by execution slot; ``perm[slot]`` says
    which canonical graph runs in a slot.  ``theta_k`` is zero on dummies,
    which get their decoy measurement angle in ``dummy_delta_k``; ``d``
    and ``dummy_delta_k`` are zero on non-dummies.  A batch's keys have
    the same fields with a leading run axis, ``perm`` an array included.
    """

    perm: tuple[int, ...]
    theta_k: np.ndarray
    r: np.ndarray
    rprime: np.ndarray
    d: np.ndarray
    dummy_delta_k: np.ndarray

    @property
    def target_slot(self) -> int:
        return self.perm.index(0)

    def run(self, i: int) -> SecretKey:
        """Run ``i``'s key out of a batch's keys."""
        return SecretKey(tuple(self.perm[i].tolist()), *(t[i] for t in self[1:]))


def _key_words(layout: RoundLayout) -> int:
    """Words at the head of a block that hold the key."""
    return layout.rounds + -(-layout.rounds * layout.m * layout.n // 8)


def _draw_blocks(rngs: Sequence[np.random.Generator], words: int) -> np.ndarray:
    """Each generator's next ``words`` raw 64-bit words, one row per run."""
    rows = [rng.bit_generator.random_raw(words) for rng in rngs]
    return np.array(rows, dtype=np.uint64).reshape(len(rows), words)


def _keys(layout: RoundLayout, words: np.ndarray) -> SecretKey:
    """The keys held by the head of each block (see the module docstring)."""
    rounds, size = layout.rounds, layout.m * layout.n
    perm = np.argsort(words[:, :rounds], axis=1, kind="stable")
    head = np.ascontiguousarray(words[:, rounds : _key_words(layout)])
    b = head.astype("<u8", copy=False).view(np.uint8)[:, : rounds * size]
    b = b.reshape(len(words), rounds, size)
    dummy, low = layout._cells[0], b & 15
    theta, decoy = low * (dummy ^ 1), low * dummy
    return SecretKey(perm, theta, (b >> 4) & 1, (b >> 5) & 1, (b >> 6) & dummy, decoy)


@dataclass(frozen=True)
class AttackSpec:
    """A prover deviation as a Pauli mixture; an honest prover is None.

    ``pauli_terms`` is a weighted list; each term maps (slot, vertex) to
    a letter and one term is sampled per protocol run, so the same string
    spans all rounds of that run.  `unitary_attack` builds the mixture of
    a unitary deviation.
    """

    pauli_terms: tuple[tuple[float, tuple[tuple[tuple[int, int], str], ...]], ...]

    def __post_init__(self) -> None:
        weights = [w for w, _ in self.pauli_terms]
        if any(not w >= 0 for w in weights):  # NaN fails too
            raise ValueError("attack weights must be nonnegative")
        if abs(sum(weights) - 1) > 1e-9:
            raise ValueError("attack weights must sum to 1")
        for _, letters in self.pauli_terms:
            for (_slot, _v), letter in letters:
                if letter not in _LETTER_CODE:
                    raise ValueError(f"bad Pauli letter {letter!r}")


def single_pauli_attack(letters: Mapping[tuple[int, int], str]) -> AttackSpec:
    """Deterministic attack: one Pauli string with weight 1."""
    return AttackSpec(pauli_terms=((1.0, tuple(sorted(letters.items()))),))


def _pauli_weights(unitary: np.ndarray, n: int) -> np.ndarray:
    """Σ_j |Tr(P·B_j)|²/4ⁿ per Pauli word P on the n low qubits, indexed
    by Σ_q (P's letter code on qubit q)·4^q, where B_j = ⟨j|U|0⟩ on the
    qubits above them: one `_LETTER_TRACE` contraction per qubit."""
    # axes (j, a_{n-1} b_{n-1}, ..., a_0 b_0): qubit 0's pair varies fastest
    t = unitary[:, : 2**n].reshape((-1,) + (2,) * 2 * n)
    t = t.transpose([0] + [ax for q in range(n) for ax in (1 + q, 1 + n + q)])
    t = t.reshape((-1,) + (4,) * n)
    for axis in range(1, n + 1):
        t = np.moveaxis(np.tensordot(_LETTER_TRACE, t, axes=([1], [axis])), 0, axis)
    return (np.abs(t) ** 2).sum(axis=0).reshape(-1) / 4**n


def unitary_attack(
    layout: RoundLayout, unitary: np.ndarray, private_qubits: int = 0
) -> AttackSpec:
    """The Pauli mixture a unitary deviation acts as on the decrypted bits.

    ``unitary`` acts on protocol qubit q = cell (slot, vertex) =
    divmod(q, m·n), little-endian, plus ``private_qubits`` fresh |0⟩
    ancillas on the high bits.  With B_j = ⟨j|U|0⟩ on those, word P weighs
    p_P = Σ_j |Tr(P·B_j)|²/4ⁿ (`_pauli_weights`); zero weights are dropped.
    This is exact for the key-averaged law of the decrypted bits: before
    U each non-dummy qubit carries a uniform pad Pauli (X part r′, Z part
    its `_pad_mask`), so U acts as its Pauli twirl; dummies start in a
    uniform |d⟩, maximally mixed, so expanding U over Paulis on all
    protocol qubits gives their marginal too, and their raw outcomes stay
    i.i.d. fair coins, the decoy angle's π bit being uniform.
    """
    n, dim = layout.rounds * layout.m * layout.n, len(unitary)
    # the qubit count is read off dim, so 2^(n + private) is never formed
    if private_qubits < 0 or unitary.shape != (dim, dim) or dim & (dim - 1) or (
        dim.bit_length() - 1 != n + private_qubits
    ):
        raise ValueError(
            f"unitary of shape {unitary.shape} is not square with 2^q rows, "
            f"q = {n} protocol + {private_qubits} private qubits"
        )
    dev = np.linalg.norm(unitary.conj().T @ unitary - np.eye(dim))
    if not dev <= 1e-10:  # NaN entries fail too
        raise ValueError(f"matrix is not unitary (deviation {dev:g})")
    weights, terms = _pauli_weights(unitary, n), []
    for w in np.flatnonzero(weights).tolist():  # letter code of qubit q: (w >> 2q) & 3
        letters = ((divmod(q, layout.m * layout.n), (w >> 2 * q) & 3) for q in range(n))
        terms.append((float(weights[w]), tuple((cell, _CODE_LETTER[c]) for cell, c in letters if c)))
    return AttackSpec(pauli_terms=tuple(terms))


def _attack_tables(
    strategy: AttackSpec | None, layout: RoundLayout
) -> tuple[np.ndarray, np.ndarray, list]:
    """Per Pauli term of ``strategy``: the cumulative weights, the Z/Y
    flips by slot and cell (None for the honest prover, which acts as one
    empty term) and the sorted letters a record reports.  A letter on a
    slot or cell ``layout`` does not have is refused."""
    if strategy is None:
        return np.ones(1), None, [()]
    terms = strategy.pauli_terms
    cum = np.cumsum([w for w, _ in terms])
    flips = np.zeros((len(terms), layout.rounds, layout.m * layout.n), np.uint8)
    letters = []
    for t, (_, term) in enumerate(terms):
        term = dict(term)
        for (slot, v), letter in term.items():
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
            flips[t, slot, v] = _LETTER_CODE[letter] >> 1
        letters.append(tuple(sorted(term.items())))
    return cum / cum[-1], flips, letters


# ---------------------------------------------------------------------------
# Round kernel: cached base distributions, key mask and Pauli frame


class _ComponentPlan(NamedTuple):
    vertices: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]
    cdf: np.ndarray       # cumulative base distribution, last entry exactly 1


class _SimPlan(NamedTuple):
    """A carving's round-kernel tables.  Every cell lies in one component:
    the non-dummy components by smallest vertex, then each dummy alone
    with a fair coin for its distribution.  A round draws one uniform per
    component, in this order; one-cell components are drawn together."""

    components: tuple[_ComponentPlan, ...]
    comp_of: np.ndarray   # cell -> index of its component
    multi: tuple[int, ...]  # components of two or more cells
    ones: np.ndarray      # components of one cell, their cells and P(0)
    one_cells: np.ndarray
    one_p0: np.ndarray
    edge_step: np.ndarray  # [u, v]: index in g.edges of the cZ joining u, v, or -1


@lru_cache(maxsize=64)
def _sim_plan(g: GraphSpec, cap: int) -> _SimPlan:
    """Per-component outcome distributions of ``g`` at its base angles,
    and the cZ order that carries X errors through the round."""
    induced = g.induced_edges()
    comps = []
    for comp in _induced_components(g):
        _check_cap(len(comp), cap)
        edges = tuple(e for e in induced if e[0] in comp)
        probs = component_probabilities(
            comp, edges, {v: k_to_radians(g.phi_k[v]) for v in comp}
        )
        cdf = np.cumsum(probs, out=probs)
        cdf /= cdf[-1]
        comps.append(_ComponentPlan(comp, edges, cdf))
    comps += [_ComponentPlan((v,), (), np.array([0.5, 1.0])) for v in g.dummy_ids()]
    size = g.m * g.n
    comp_of = np.zeros(size, int)
    for j, comp in enumerate(comps):
        comp_of[list(comp.vertices)] = j
    edge_step = np.full((size, size), -1, np.int32)
    a, b = np.array(g.edges, int).reshape(-1, 2).T
    edge_step[a, b] = edge_step[b, a] = np.arange(len(g.edges))
    ones = [j for j, comp in enumerate(comps) if len(comp.vertices) == 1]
    return _SimPlan(
        components=tuple(comps),
        comp_of=comp_of,
        multi=tuple(j for j, comp in enumerate(comps) if len(comp.vertices) > 1),
        ones=np.array(ones, int),
        one_cells=np.array([comps[j].vertices[0] for j in ones], int),
        one_p0=np.array([comps[j].cdf[0] for j in ones]),
        edge_step=edge_step,
    )


@lru_cache(maxsize=64)
def _gf2(g: GraphSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A carving's GF(2) tables: the non-dummy cells, the surviving-
    neighbour incidence (entry u, v set when u neighbours v) and the
    connector correction I + B (B[b, u] set when bridge b joins u)."""
    size = g.m * g.n
    nd = np.zeros(size, np.uint8)
    nd[list(g.non_dummy_ids())] = 1
    nbr = np.zeros((size, size), np.uint8)
    for v, us in g.induced_neighbors.items():
        nbr[list(us), v] = 1
    fix = np.eye(size, dtype=np.uint8)
    for b in g.bridge_ids():  # row b: outcome 1 on bridge b flips both its ends
        fix[b, list(g.induced_neighbors[b])] = 1
    return nd, nbr, fix


def _pad_mask(g: GraphSpec, r: np.ndarray, rprime: np.ndarray) -> np.ndarray:
    """Per cell: r on a non-dummy, XOR r′ of its surviving neighbours; 0
    on dummies.  Takes one round's key tables or a batch's rows of them.

    This is the whole effect of the one-time pad on a round's raw
    outcomes, and exactly what decryption strips off again.
    """
    nd, nbr, _ = _gf2(g)
    return (r & nd) ^ ((rprime @ nbr) & 1)


def _sites(g: GraphSpec) -> int:
    return 2 * g.m * g.n + len(g.edges)


def _decode_events(g: GraphSpec, noise: NoiseModel, u: np.ndarray) -> tuple:
    """The noise events that uniforms ``u`` (runs × sites) draw in ``g``,
    as arrays (runs, steps, vertices, letter codes) in time order per run.

    Sites are each preparation (rate ε_V), each cZ (rate ε_P) and each
    readout (rate ε_P).  A site fires when its uniform falls below its
    rate; the uniform over the rate is then a fresh uniform, which picks
    a letter from ``noise.mix`` (at a cZ, its first half picks the victim
    end first).
    """
    if noise.is_noiseless():
        return (np.zeros(0, int),) * 4
    size, n_edges = g.m * g.n, len(g.edges)
    rates = np.repeat((noise.eps_v, noise.eps_p, noise.eps_p), (size, n_edges, size))
    runs, sites = np.nonzero(u < rates)
    w = u[runs, sites] / rates[sites]
    steps = np.clip(sites - size, -1, n_edges)
    verts = np.where(sites < size, sites, sites - size - n_edges)
    cz = (steps >= 0) & (steps < n_edges)
    end = w[cz] >= 0.5
    verts[cz] = np.array(g.edges, int).reshape(-1, 2)[steps[cz], end.astype(int)]
    w[cz] = 2 * w[cz] - end
    cum = np.cumsum(list(noise.mix.values()))
    pick = np.minimum(np.searchsorted(cum / cum[-1], w, side="right"), len(cum) - 1)
    codes = np.array([_LETTER_CODE[p] for p in noise.mix])[pick]
    return runs, steps, verts, codes


def _pauli_frame(
    plan: _SimPlan, runs, steps, verts, codes, count: int
) -> tuple[np.ndarray, np.ndarray]:
    """X and Z bits (count × cells) once the events reach the readout.

    An X part before the readout flips its vertex's rotation (X bit) and
    puts Z on the partners of the vertex's cZs after ``step``; a Z part
    flips its own outcome.  An X part at the readout, step E, does nothing
    to an X measurement.
    """
    x = np.zeros((count, len(plan.edge_step)), np.uint8)
    z = np.zeros_like(x)
    readout = plan.edge_step.max() + 1  # E: every edge index appears
    hx = ((codes & 1) == 1) & (steps < readout)
    np.bitwise_xor.at(x, (runs[hx], verts[hx]), 1)
    later = plan.edge_step[verts[hx]] > steps[hx, None]
    np.bitwise_xor.at(z, runs[hx], later.view(np.uint8))
    hz = (codes & 2) == 2
    np.bitwise_xor.at(z, (runs[hz], verts[hz]), 1)
    return x, z


def _keyed_angles(g: GraphSpec, r, rprime, theta, x) -> np.ndarray:
    """Effective angle steps of every cell under key tables r, r′, θ and
    frame X bits ``x``: δ − θ on unflipped cells, −(δ + θ) on flipped ones."""
    phi = np.array(g.phi_k)
    k = np.where(rprime, -phi, phi) + 8 * r  # δ − θ
    return np.where(x, -(k + 2 * theta), k) % ANGLE_STEPS


def _sample_round(
    g: GraphSpec, plan: _SimPlan, mask, key_tables, x, z, u
) -> np.ndarray:
    """Raw outcomes (runs × cells) of carving ``g`` under Pauli frame
    (``x``, ``z``), from each run's row of uniforms ``u``.

    Each component reads its uniform against its cached base CDF with the
    key ``mask`` XORed in; where ``x`` (None without noise) puts an X bit
    on a non-dummy, that run's component reads the same uniform against
    its distribution recomputed at `_keyed_angles` of ``key_tables`` (r,
    r′, θ) instead.  The runs that recompute one component do so as one
    stack of rows, at most `_RECOMPUTE_AMPLITUDES` amplitudes at a time.
    Finally every cell in ``z`` is inverted.
    """
    raw = np.zeros((len(u), g.m * g.n), np.uint8)
    raw[:, plan.one_cells] = u[:, plan.ones] >= plan.one_p0
    for j in plan.multi:
        comp = plan.components[j]
        pick = comp.cdf.searchsorted(u[:, j], side="right")
        raw[:, comp.vertices] = (pick[:, None] >> np.arange(len(comp.vertices))) & 1
    raw ^= mask
    hit_runs, hit_cells = np.nonzero(x & _gf2(g)[0]) if x is not None else ((), ())
    if len(hit_runs):
        hit = np.zeros((len(u), len(plan.components)), bool)
        hit[hit_runs, plan.comp_of[hit_cells]] = True
        k = _keyed_angles(g, *key_tables, x)
        for j in np.flatnonzero(hit.any(axis=0)).tolist():
            vertices, edges, _ = plan.components[j]
            cols, runs = list(vertices), np.flatnonzero(hit[:, j])
            chunk = max(1, _RECOMPUTE_AMPLITUDES >> len(cols))
            for rows in (runs[lo : lo + chunk] for lo in range(0, len(runs), chunk)):
                probs = component_probability_rows(vertices, edges, _PHASES[k[rows][:, cols]])
                cdf = np.cumsum(probs, axis=1, out=probs)
                # per row, the searchsorted(side="right") of its scaled uniform
                pick = (cdf <= (u[rows, j] * cdf[:, -1])[:, None]).sum(axis=1)
                raw[rows[:, None], cols] = (pick[:, None] >> np.arange(len(cols))) & 1
    return raw ^ z


# ---------------------------------------------------------------------------
# Decryption and verdicts


def _decrypt(layout: RoundLayout, masks: np.ndarray, raw: np.ndarray) -> np.ndarray:
    """Decrypted bits, runs × canonical rounds × cells.

    Each bit is unpadded by its `_pad_mask` (``masks`` holds every
    round's); the computation round, canonical round 0, then gets its
    connector corrections, the GF(2) product with I + B.  Dummy cells
    keep their raw outcomes.
    """
    dec = raw ^ masks
    dec[:, 0] = (dec[:, 0] @ _gf2(layout.target)[2]) & 1
    return dec


def _masks(layout: RoundLayout, keys: SecretKey) -> np.ndarray:
    """Every round's `_pad_mask`, keys' leading axes × rounds × cells."""
    masks = np.empty_like(keys.r)
    for gi, g in enumerate(layout.graphs):
        masks[..., gi, :] = _pad_mask(g, keys.r[..., gi, :], keys.rprime[..., gi, :])
    return masks


def _bit_strings(bits: np.ndarray) -> list[str]:
    """Each row of ``bits`` as an outcome string."""
    nbits = bits.shape[1]
    text = (bits + ord("0")).astype(np.uint8).tobytes().decode("ascii")
    return [text[i : i + nbits] for i in range(0, len(text), nbits)]


@lru_cache(maxsize=None)
def _string_table(nbits: int) -> list[str]:
    """Every ``nbits``-bit outcome string by index; short outputs are
    served from here, so stored outputs share their strings."""
    return _bit_strings((np.arange(2**nbits)[:, None] >> np.arange(nbits)) & 1)


@dataclass(frozen=True, eq=False)
class RunBatch:
    """One batch of protocol runs as columns, run axis first.

    Indexing or iterating yields each run's `RunRecord`; the JSON fields
    of all runs are packed together, the first time one is asked for.
    """

    layout: RoundLayout
    raw: np.ndarray        # runs × slots × cells, in execution order
    decrypted: np.ndarray  # runs × canonical rounds × cells
    perm: np.ndarray       # runs × slots: the canonical round in each slot
    terms: np.ndarray      # runs: index of the sampled attack term
    term_letters: list     # per term: the sorted letters a record reports
    passed: np.ndarray     # runs × canonical rounds: decoded to all zeros
    accept: np.ndarray     # runs: every trap round passed
    outputs: list[str]     # runs: the decrypted computation string

    def __len__(self) -> int:
        return len(self.outputs)

    def __getitem__(self, i: int) -> RunRecord:
        return RunRecord(self, range(len(self))[i])

    def __iter__(self):
        return (RunRecord(self, i) for i in range(len(self)))

    @cached_property
    def target_slots(self) -> np.ndarray:
        return (self.perm == 0).argmax(axis=1)

    @cached_property
    def _json_rows(self) -> list[tuple]:
        """Per run: slot raw strings, slot decrypted strings, slot trap
        verdicts, accept, output, target slot and term."""
        count, rounds, size = self.raw.shape
        raw = _bit_strings(self.raw.reshape(-1, size))
        dec = [
            _bit_strings(self.decrypted[:, gi][:, list(g.non_dummy_ids())])
            for gi, g in enumerate(self.layout.graphs)
        ]
        accept, slots, terms = self.accept.tolist(), self.target_slots.tolist(), self.terms.tolist()
        return [
            (
                raw[i * rounds : (i + 1) * rounds],
                [dec[gi][i] for gi in perm],
                [passed[gi] if gi else None for gi in perm],  # round 0 has no verdict
                accept[i], self.outputs[i], slots[i], terms[i],
            )
            for i, (perm, passed) in enumerate(zip(self.perm.tolist(), self.passed.tolist()))
        ]


class RunRecord:
    """Transcript of one protocol run, verifier's view: run ``index`` of
    its `RunBatch`.  In JSON each slot's ``raw`` and ``decrypted``
    outcomes are one ``"0101…"`` string."""

    __slots__ = ("batch", "index")
    FIELDS = (
        "raw", "decrypted", "trap_passed", "accept", "target_output",
        "target_slot", "attack_letters",
    )

    def __init__(self, batch: RunBatch, index: int) -> None:
        self.batch, self.index = batch, index

    @property
    def raw(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(tuple, self.batch.raw[self.index].tolist()))

    @property
    def decrypted(self) -> tuple[tuple[int, ...], ...]:
        b, graphs = self.batch, self.batch.layout.graphs
        return tuple(
            tuple(b.decrypted[self.index, gi, list(graphs[gi].non_dummy_ids())].tolist())
            for gi in b.perm[self.index].tolist()
        )

    @property
    def trap_passed(self) -> tuple[bool | None, ...]:
        return tuple(self.batch._json_rows[self.index][2])

    @property
    def accept(self) -> bool:
        return bool(self.batch.accept[self.index])

    @property
    def target_output(self) -> str:
        return self.batch.outputs[self.index]

    @property
    def target_slot(self) -> int:
        return int(self.batch.target_slots[self.index])

    @property
    def attack_letters(self) -> tuple[tuple[tuple[int, int], str], ...]:
        return self.batch.term_letters[self.batch.terms[self.index]]

    def _fields(self) -> tuple:
        return tuple(getattr(self, f) for f in self.FIELDS)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RunRecord):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        return "RunRecord(" + ", ".join(f"{f}={getattr(self, f)!r}" for f in self.FIELDS) + ")"

    def to_json_dict(self) -> dict:
        raw, dec, traps, accept, output, slot, term = self.batch._json_rows[self.index]
        return {
            "raw": list(raw),
            "decrypted": list(dec),
            "trap_passed": list(traps),
            "accept": accept,
            "target_output": output,
            "target_slot": slot,
            "attack_letters": [[s, v, p] for (s, v), p in self.batch.term_letters[term]],
        }


def _run_batch(
    layout: RoundLayout,
    strategy: AttackSpec | None,
    noise: NoiseModel | None,
    rngs: Sequence[np.random.Generator],
    cap: int,
) -> RunBatch:
    """Execute one repetition per generator in ``rngs``; their columns.

    The one place repetitions are executed.  An attack letter outside
    the layout is refused before anything is drawn.  Every run draws its
    block from its own generator, in list order, so a generator listed k
    times serves k successive blocks, as k `run_protocol` calls on it
    would; then keys, attack terms, rounds, decryption and trap verdicts
    are computed for the whole batch, and nothing else is drawn.
    """
    noise, count, size = noise or _NOISELESS, len(rngs), layout.m * layout.n
    cum, flips, term_letters = _attack_tables(strategy, layout)
    plans = [_sim_plan(g, cap) for g in layout.graphs]
    noisy = not noise.is_noiseless()
    widths = [len(p.components) + noisy * _sites(g) for g, p in zip(layout.graphs, plans)]
    head = _key_words(layout)
    words = _draw_blocks(rngs, head + 1 + sum(widths))
    keys, u = _keys(layout, words), (words[:, head:] >> 11) * 2.0**-53
    terms = np.minimum(np.searchsorted(cum, u[:, 0], side="right"), len(cum) - 1)
    bounds = np.cumsum([1] + widths).tolist()
    draws = [u[:, lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]
    events = [
        _decode_events(g, noise, d[:, len(p.components) :])
        for g, p, d in zip(layout.graphs, plans, draws)
    ]
    rows, masks = np.arange(count)[:, None], _masks(layout, keys)
    raw = np.empty((count, layout.rounds, size), np.uint8)  # canonical order
    letter_flips = np.zeros_like(raw)
    if flips is not None:
        letter_flips[rows, keys.perm] = flips[terms]
    for gi, (g, plan) in enumerate(zip(layout.graphs, plans)):
        # the noise events' Pauli frame, with the Z/Y letters in its Z part
        x, z = _pauli_frame(plan, *events[gi], count) if noisy else (None, 0)
        tables = (keys.r[:, gi], keys.rprime[:, gi], keys.theta_k[:, gi])
        z = z ^ letter_flips[:, gi]
        raw[:, gi] = _sample_round(g, plan, masks[:, gi], tables, x, z, draws[gi])
    dec = _decrypt(layout, masks, raw)
    passed = ~(dec & (layout._cells[0] ^ 1)).any(axis=2)
    nd = list(layout.target.non_dummy_ids())
    out_bits, nbits = dec[:, 0][:, nd], len(nd)
    if nbits > _SHARED_STRING_BITS:
        outputs = _bit_strings(out_bits)
    else:
        index = (out_bits @ (1 << np.arange(nbits))).tolist()
        outputs = [_string_table(nbits)[j] for j in index]
    return RunBatch(
        layout, raw[rows, keys.perm], dec, keys.perm, terms, term_letters,
        passed, passed[:, 1:].all(axis=1), outputs,
    )


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
    return _run_batch(layout, strategy, noise, [rng], cap)[0]


@dataclass(frozen=True)
class SchemeVerdict:
    """Outcome of the M-repetition scheme."""

    accept: bool
    pass_fraction: float
    output: str
    m: int
    l: float

    def to_json_dict(self) -> dict:
        return asdict(self)


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
    spawned generator stream, so results do not depend on batching; the
    published output is one repetition's computation string chosen
    uniformly.  Pass a list as ``record_sink`` to collect the
    per-repetition transcripts.
    """
    if m_repetitions < 1:
        raise ValueError("need at least one repetition")
    if not 0 <= l_threshold <= 1:
        raise ValueError("acceptance fraction must lie in [0, 1]")
    passes = 0
    outputs: list[str] = []
    for start in range(0, m_repetitions, _BATCH):
        # successive spawns continue one sequence of child streams
        streams = rng.spawn(min(_BATCH, m_repetitions - start))
        batch = _run_batch(layout, strategy, noise, streams, cap)
        passes += int(batch.accept.sum())
        outputs += batch.outputs
        if record_sink is not None:
            record_sink.extend(batch)
    fraction = passes / m_repetitions
    output = outputs[int(rng.integers(m_repetitions))]
    return SchemeVerdict(fraction >= l_threshold, fraction, output, m_repetitions, l_threshold)


# ---------------------------------------------------------------------------
# Fidelity-gap estimation


def _correction_index_map(g: GraphSpec) -> np.ndarray:
    """Connector-correction involution as a permutation of outcome indices."""
    nd = g.non_dummy_ids()
    pos = {v: j for j, v in enumerate(nd)}
    out = np.arange(2 ** len(nd))
    for b in g.bridge_ids():
        ends = g.induced_neighbors[b]
        # the indices with bridge b's bit set, as a strided view, flip both ends
        out.reshape(-1, 2, 2 ** pos[b])[:, 1] ^= (1 << pos[ends[0]]) | (1 << pos[ends[1]])
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

    Noiseless runs — the regime where the combinatorial bounds speak —
    under a Pauli mixture, which a unitary deviation enters as through
    `unitary_attack`.  Each sample is one repetition drawn from
    ``rng``: its verdict is the trap indicator, and the escape indicator
    asks whether any Z/Y letter of its sampled term landed on a non-dummy
    cell of whichever slot held the computation round, read off a table
    by term and slot.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    _, flips, _ = _attack_tables(strategy, layout)
    if flips is None:
        escape = np.ones((1, layout.rounds), bool)
    else:  # [term, slot]: no Z/Y letter on a non-dummy cell of the target
        escape = ~flips[:, :, list(layout.target.non_dummy_ids())].any(axis=2)
    passes = np.zeros(samples)
    escapes = np.zeros(samples)
    for start in range(0, samples, _BATCH):
        size = min(_BATCH, samples - start)
        batch = _run_batch(layout, strategy, None, [rng] * size, cap)
        passes[start : start + size] = batch.accept
        escapes[start : start + size] = escape[batch.terms, batch.target_slots]

    def se(x: np.ndarray) -> float:
        return float(x.std(ddof=1) / math.sqrt(samples)) if samples > 1 else 0.0

    ft2, fc2 = float(passes.mean()), float(escapes.mean())
    gap_se = se(passes - escapes)
    return GapEstimate(ft2, fc2, ft2 - fc2, se(passes), se(escapes), gap_se, samples)
