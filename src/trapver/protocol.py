"""End-to-end protocol execution: keys, encryption, rounds, verdicts.

A protocol run is 2κ+1 rounds — one computation round and κ trap rounds
per parity — executed in a secret random order against a prover that may
be honest, noisy, or actively deviating.  `_run_batch` is the one
function that executes runs: given one bit generator per repetition, it
draws the whole batch's keys, attack terms, outcomes and noise events as
arrays, decrypts with GF(2) products and reads the trap verdicts off as
row reductions.  It returns the batch as columns, a `RunBatch`, whose
`json_text` holds the per-run transcripts.  `run_scheme` is its one
caller in the package.  Every deviation reaches it as a Pauli mixture:
a unitary one is converted once, where it enters, by `unitary_attack`.

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
its own bit generator, so its record does not depend on its batch.  With
R = 2κ+1 rounds, C cells and E lattice edges, a block holds in order:

- R words whose ranks order the slots: slot s runs canonical round
  ``argsort(words)[s]``;
- ⌈R·C/8⌉ words read as R·C little-endian key bytes, canonical round
  major: bits 0–3 are θ on a non-dummy and the decoy angle on a dummy,
  bit 4 is r, bit 5 r′ and bit 6 d (dummies only).  The engine reads θ,
  r and r′; the decoy angle and d shape only what the prover is sent;
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

import json
from dataclasses import asdict, dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from .bounds import pauli_matrix
from .graphs import ANGLE_STEPS, GraphSpec, carve_target, carve_trap_graph
from .simulator import (
    PHASES, Distribution, NoiseModel, bit_strings, component_probability_rows,
    exact_probability_array, index_bits,
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
    """The key tables the verifier reads to run and decrypt one protocol run.

    The tables are uint8 arrays of shape rounds × cells, indexed by
    canonical graph position, not by execution slot; ``perm[slot]`` says
    which canonical graph runs in a slot.  ``theta_k`` is zero on dummies.
    A batch's keys have the same fields with a leading run axis, ``perm``
    an array included.
    """

    perm: tuple[int, ...]
    theta_k: np.ndarray
    r: np.ndarray
    rprime: np.ndarray


def _key_words(layout: RoundLayout) -> int:
    """Words at the head of a block that hold the key."""
    return layout.rounds + -(-layout.rounds * layout.m * layout.n // 8)


def _draw_blocks(streams: Sequence[np.random.BitGenerator], words: int) -> np.ndarray:
    """Each bit generator's next ``words`` raw 64-bit words, one row per run."""
    blocks = np.empty((len(streams), words), np.uint64)
    for i, stream in enumerate(streams):
        blocks[i] = stream.random_raw(words)
    return blocks


def _keys(layout: RoundLayout, nd: np.ndarray, words: np.ndarray) -> SecretKey:
    """The keys held by the head of each block (see the module docstring),
    given each canonical round's non-dummy cells ``nd`` (rounds × cells)."""
    rounds, size = layout.rounds, layout.m * layout.n
    perm = np.argsort(words[:, :rounds], axis=1, kind="stable")
    head = np.ascontiguousarray(words[:, rounds : _key_words(layout)])
    b = head.astype("<u8", copy=False).view(np.uint8)[:, : rounds * size]
    b = b.reshape(len(words), rounds, size)
    return SecretKey(perm, (b & 15) * nd, (b >> 4) & 1, (b >> 5) & 1)


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
    flips by slot and cell and the sorted letters a record reports; the
    honest prover is one empty term.  A letter on a slot or cell
    ``layout`` does not have is refused."""
    terms = ((1.0, ()),) if strategy is None else strategy.pauli_terms
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
    """Every table the round engine reads for one carving.  Every cell
    lies in one component: the non-dummy components by smallest vertex,
    then each dummy alone with a fair coin for its distribution.  A round
    draws one uniform per component, in this order; one-cell components
    are drawn together."""

    components: tuple[_ComponentPlan, ...]
    comp_of: np.ndarray   # cell -> index of its component
    multi: tuple[int, ...]  # components of two or more cells
    ones: np.ndarray      # components of one cell, their vertices and P(0)
    one_vertices: np.ndarray
    one_p0: np.ndarray
    edge_step: np.ndarray  # [u, v]: index in g.edges of the cZ joining u, v, or -1
    nd: np.ndarray        # cell -> 1 on a non-dummy
    nbr: np.ndarray       # [u, v]: 1 when u is a surviving neighbour of v
    fix: np.ndarray       # connector correction I + B: B[b, u] set when bridge b joins u
    phi: np.ndarray       # cell -> base angle in grid steps


@lru_cache(maxsize=64)
def _sim_plan(g: GraphSpec) -> _SimPlan:
    """Per-component outcome distributions of ``g`` at its base angles,
    the cZ order that carries X errors through the round, and the GF(2)
    tables and base angles that pad, recompute and decrypt it.  Cached by
    carving; a component of c cells costs 24·2^c bytes to build, so
    component size is the caller's budget."""
    comps = []
    for vertices, edges in g.components:
        phases = PHASES[[[g.phi_k[v] for v in vertices]]]
        probs = component_probability_rows(vertices, edges, phases)[0]
        cdf = np.cumsum(probs, out=probs)
        cdf /= cdf[-1]
        comps.append(_ComponentPlan(vertices, edges, cdf))
    comps += [_ComponentPlan((v,), (), np.array([0.5, 1.0])) for v in g.dummy_ids()]
    size = g.m * g.n
    comp_of = np.zeros(size, int)
    for j, comp in enumerate(comps):
        comp_of[list(comp.vertices)] = j
    edge_step = np.full((size, size), -1, np.int32)
    a, b = np.array(g.edges, int).reshape(-1, 2).T
    edge_step[a, b] = edge_step[b, a] = np.arange(len(g.edges))
    ones = [j for j, comp in enumerate(comps) if len(comp.vertices) == 1]
    nd = np.zeros(size, np.uint8)
    nd[list(g.non_dummy_ids())] = 1
    nbr = np.zeros((size, size), np.uint8)
    for v, us in g.induced_neighbors.items():
        nbr[list(us), v] = 1
    fix = np.eye(size, dtype=np.uint8)
    for b in g.bridge_ids():  # row b: outcome 1 on bridge b flips both its ends
        fix[b, list(g.induced_neighbors[b])] = 1
    return _SimPlan(
        components=tuple(comps),
        comp_of=comp_of,
        multi=tuple(j for j, comp in enumerate(comps) if len(comp.vertices) > 1),
        ones=np.array(ones, int),
        one_vertices=np.array([comps[j].vertices[0] for j in ones], int),
        one_p0=np.array([comps[j].cdf[0] for j in ones]),
        edge_step=edge_step,
        nd=nd,
        nbr=nbr,
        fix=fix,
        phi=np.array(g.phi_k),
    )


def _pad_mask(plan: _SimPlan, r: np.ndarray, rprime: np.ndarray) -> np.ndarray:
    """Per cell: r on a non-dummy, XOR r′ of its surviving neighbours; 0
    on dummies.  Takes one round's key tables or a batch's rows of them.

    This is the whole effect of the one-time pad on a round's raw
    outcomes, and exactly what decryption strips off again.
    """
    return (r & plan.nd) ^ ((rprime @ plan.nbr) & 1)


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


def _keyed_angles(plan: _SimPlan, r, rprime, theta, x) -> np.ndarray:
    """Effective angle steps of every cell under key tables r, r′, θ and
    frame X bits ``x``: δ − θ on unflipped cells, −(δ + θ) on flipped ones."""
    k = np.where(rprime, -plan.phi, plan.phi) + 8 * r  # δ − θ
    return np.where(x, -(k + 2 * theta), k) % ANGLE_STEPS


def _sample_round(plan: _SimPlan, mask, key_tables, x, z, u) -> np.ndarray:
    """Raw outcomes (runs × cells) of ``plan``'s carving under Pauli frame
    (``x``, ``z``), from each run's row of uniforms ``u``.

    Each component reads its uniform against its cached base CDF with the
    key ``mask`` XORed in; where ``x`` (None without noise) puts an X bit
    on a non-dummy, that run's component reads the same uniform against
    its distribution recomputed at `_keyed_angles` of ``key_tables`` (r,
    r′, θ) instead.  The runs that recompute one component do so as one
    stack of rows, at most `_RECOMPUTE_AMPLITUDES` amplitudes at a time.
    Finally every cell in ``z`` is inverted.
    """
    raw = np.zeros((len(u), len(plan.nd)), np.uint8)
    raw[:, plan.one_vertices] = u[:, plan.ones] >= plan.one_p0
    for j in plan.multi:
        comp = plan.components[j]
        pick = comp.cdf.searchsorted(u[:, j], side="right")
        raw[:, comp.vertices] = (pick[:, None] >> np.arange(len(comp.vertices))) & 1
    raw ^= mask
    hit_runs, hit_verts = np.nonzero(x & plan.nd) if x is not None else ((), ())
    if len(hit_runs):
        hit = np.zeros((len(u), len(plan.components)), bool)
        hit[hit_runs, plan.comp_of[hit_verts]] = True
        k = _keyed_angles(plan, *key_tables, x)
        for j in np.flatnonzero(hit.any(axis=0)).tolist():
            vertices, edges, _ = plan.components[j]
            cols, runs = list(vertices), np.flatnonzero(hit[:, j])
            chunk = max(1, _RECOMPUTE_AMPLITUDES >> len(cols))
            for rows in (runs[lo : lo + chunk] for lo in range(0, len(runs), chunk)):
                probs = component_probability_rows(vertices, edges, PHASES[k[rows][:, cols]])
                cdf = np.cumsum(probs, axis=1, out=probs)
                # per row, the searchsorted(side="right") of its scaled uniform
                pick = (cdf <= (u[rows, j] * cdf[:, -1])[:, None]).sum(axis=1)
                raw[rows[:, None], cols] = (pick[:, None] >> np.arange(len(cols))) & 1
    return raw ^ z


# ---------------------------------------------------------------------------
# Decryption and verdicts


def _decrypt(target: _SimPlan, masks: np.ndarray, raw: np.ndarray) -> np.ndarray:
    """Decrypted bits, runs × canonical rounds × cells.

    Each bit is unpadded by its `_pad_mask` (``masks`` holds every
    round's); the computation round, canonical round 0, then gets its
    connector corrections, the GF(2) product with the ``target`` plan's
    I + B.  Dummy cells keep their raw outcomes.
    """
    dec = raw ^ masks
    dec[:, 0] = (dec[:, 0] @ target.fix) & 1
    return dec


def _masks(plans: Sequence[_SimPlan], keys: SecretKey) -> np.ndarray:
    """Every round's `_pad_mask`, keys' leading axes × rounds × cells."""
    masks = np.empty_like(keys.r)
    for gi, plan in enumerate(plans):
        masks[..., gi, :] = _pad_mask(plan, keys.r[..., gi, :], keys.rprime[..., gi, :])
    return masks


@lru_cache(maxsize=None)
def _string_table(nbits: int) -> list[str]:
    """Every ``nbits``-bit outcome string by index; short outputs are
    served from here, so stored outputs share their strings."""
    return bit_strings(index_bits(nbits))


def _table(texts: Sequence[bytes]) -> np.ndarray:
    """Byte strings as the rows of a uint8 matrix, 0-padded to one width."""
    return np.array(texts, dtype=bytes).view(np.uint8).reshape(len(texts), -1)


_SEP = np.frombuffer(b", ", np.uint8)
_BOOL_TEXT = _table([b"false", b"true"])
# trap_passed per slot: null for the computation round, else its verdict
_VERDICT_TEXT = _table([b"null", b"false", b"true"])


def _quoted(bits: np.ndarray) -> np.ndarray:
    """Each row of 0/1 ``bits`` (leading axes kept) as a JSON string's
    bytes, ``"0101…"``."""
    text = np.full(bits.shape[:-1] + (bits.shape[-1] + 2,), ord('"'), np.uint8)
    np.add(bits, ord("0"), out=text[..., 1:-1])
    return text


def _items(texts: np.ndarray) -> np.ndarray:
    """runs × k × w item texts as each run's JSON list items, joined by ", "."""
    runs, k, w = texts.shape
    out = np.zeros((runs, k, w + 2), np.uint8)
    out[:, :, :w] = texts
    out[:, :-1, w:] = _SEP
    return out.reshape(runs, -1)


@dataclass(frozen=True, eq=False)
class RunBatch:
    """One batch of protocol runs as columns, run axis first.

    The records' JSON text is encoded for all runs together, column by
    column, the first time it is asked for.
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

    @cached_property
    def target_slots(self) -> np.ndarray:
        return (self.perm == 0).argmax(axis=1)

    @cached_property
    def json_text(self) -> str:
        """Every run's record as the JSON text ``json.dumps(record,
        sort_keys=True)`` would write, joined by ", ": the items of the
        records' JSON list.  A record holds each slot's ``raw`` and
        ``decrypted`` outcomes as one ``"0101…"`` string, the slot trap
        verdicts, accept, the computation slot and the attack letters.

        The records are one uint8 matrix, a run per row: variable-width
        fields are 0-padded to their widest, and the nonzero bytes are
        the text.  Each used attack term's letters are encoded once."""
        runs, rounds, _ = self.raw.shape
        rows = np.arange(runs)[:, None]
        nd = [list(g.non_dummy_ids()) for g in self.layout.graphs]
        dec = np.zeros((runs, rounds, max(map(len, nd)) + 2), np.uint8)
        for gi, cols in enumerate(nd):
            dec[:, gi, : len(cols) + 2] = _quoted(self.decrypted[:, gi][:, cols])
        used, term_of_run = np.unique(self.terms, return_inverse=True)
        letters = _table([
            json.dumps([[s, v, p] for (s, v), p in self.term_letters[t]]).encode()
            for t in used.tolist()
        ])
        slots = _table([str(s).encode() for s in range(rounds)])
        verdict = (self.perm != 0) * (1 + self.passed[rows, self.perm])
        pieces = [
            b'{"accept": ', _BOOL_TEXT[self.accept.astype(np.intp)],
            b', "attack_letters": ', letters[term_of_run.reshape(-1)],
            b', "decrypted": [', _items(dec[rows, self.perm]),
            b'], "raw": [', _items(_quoted(self.raw)),
            b'], "target_slot": ', slots[self.target_slots],
            b', "trap_passed": [', _items(_VERDICT_TEXT[verdict]),
            b"]}, ",
        ]
        text = np.concatenate([
            np.broadcast_to(np.frombuffer(p, np.uint8), (runs, len(p))) if isinstance(p, bytes) else p
            for p in pieces
        ], axis=1)
        return text[text != 0][:-2].tobytes().decode("ascii")


class RunRecord:
    """Run ``index`` of its `RunBatch`, whose `RunBatch.json_text` holds
    the run's transcript."""

    __slots__ = ("batch", "index")

    def __init__(self, batch: RunBatch, index: int) -> None:
        self.batch, self.index = batch, index

    @property
    def target_output(self) -> str:
        return self.batch.outputs[self.index]

    def to_json_dict(self) -> dict:
        """The run's record, a fresh dict decoded from the whole batch's
        `RunBatch.json_text` on every call.  Only perfbench's tracer
        probe reads it; the package writes records as text."""
        return json.loads(f"[{self.batch.json_text}]")[self.index]


def _run_batch(
    layout: RoundLayout,
    strategy: AttackSpec | None,
    noise: NoiseModel | None,
    streams: Sequence[np.random.BitGenerator],
) -> RunBatch:
    """Execute one repetition per bit generator in ``streams``; their columns.

    The one place repetitions are executed.  An attack letter outside
    the layout is refused before anything is drawn.  Every run draws its
    block from its own bit generator, in list order, so one listed k
    times serves k successive blocks, as k one-run calls on it would;
    then keys, attack terms, rounds, decryption and trap verdicts are
    computed for the whole batch, and nothing else is drawn.
    """
    noise, count, size = noise or _NOISELESS, len(streams), layout.m * layout.n
    cum, flips, term_letters = _attack_tables(strategy, layout)
    plans = [_sim_plan(g) for g in layout.graphs]
    nd = np.array([p.nd for p in plans])
    noisy = not noise.is_noiseless()
    # a noisy round also draws one uniform per site: preparations, cZs, readouts
    widths = [
        len(p.components) + noisy * (2 * size + len(g.edges))
        for g, p in zip(layout.graphs, plans)
    ]
    head = _key_words(layout)
    words = _draw_blocks(streams, head + 1 + sum(widths))
    keys, u = _keys(layout, nd, words), (words[:, head:] >> 11) * 2.0**-53
    terms = np.minimum(np.searchsorted(cum, u[:, 0], side="right"), len(cum) - 1)
    bounds = np.cumsum([1] + widths).tolist()
    draws = [u[:, lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]
    events = [
        _decode_events(g, noise, d[:, len(p.components) :])
        for g, p, d in zip(layout.graphs, plans, draws)
    ]
    rows, masks = np.arange(count)[:, None], _masks(plans, keys)
    raw = np.empty((count, layout.rounds, size), np.uint8)  # canonical order
    letter_flips = np.empty_like(raw)  # every run's perm fills every round
    letter_flips[rows, keys.perm] = flips[terms]
    for gi, plan in enumerate(plans):
        # the noise events' Pauli frame, with the Z/Y letters in its Z part
        x, z = _pauli_frame(plan, *events[gi], count) if noisy else (None, 0)
        tables = (keys.r[:, gi], keys.rprime[:, gi], keys.theta_k[:, gi])
        z = z ^ letter_flips[:, gi]
        raw[:, gi] = _sample_round(plan, masks[:, gi], tables, x, z, draws[gi])
    dec = _decrypt(plans[0], masks, raw)
    passed = ~(dec & nd).any(axis=2)
    nd = list(layout.target.non_dummy_ids())
    out_bits, nbits = dec[:, 0][:, nd], len(nd)
    if nbits > _SHARED_STRING_BITS:
        outputs = bit_strings(out_bits)
    else:
        index = (out_bits @ (1 << np.arange(nbits))).tolist()
        outputs = [_string_table(nbits)[j] for j in index]
    return RunBatch(
        layout, raw[rows, keys.perm], dec, keys.perm, terms, term_letters,
        passed, passed[:, 1:].all(axis=1), outputs,
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
        return asdict(self)


def run_scheme(
    layout: RoundLayout,
    strategy: AttackSpec | None,
    noise: NoiseModel | None,
    m_repetitions: int,
    l_threshold: float,
    rng: np.random.Generator,
    record_sink: list[RunRecord] | None = None,
) -> SchemeVerdict:
    """M independent runs; accept when the pass fraction reaches l.

    Ties accept (the comparison is ≥).  Each repetition gets its own
    spawned generator stream, so results do not depend on batching; the
    published output is one repetition's computation string chosen
    uniformly.  Pass a list as ``record_sink`` to collect the
    per-repetition transcripts.  Each carving is simulated component by
    component, 24·2^c bytes for c cells; bounding c is the caller's part.
    """
    if m_repetitions < 1:
        raise ValueError("need at least one repetition")
    if not 0 <= l_threshold <= 1:
        raise ValueError("acceptance fraction must lie in [0, 1]")
    # spawning leaves rng's own stream alone, so the published run can be
    # drawn first and only its string kept
    passes, output, pick = 0, "", int(rng.integers(m_repetitions))
    for start in range(0, m_repetitions, _BATCH):
        # successive spawns continue one sequence of child streams, the
        # streams `Generator.spawn` would wrap
        streams = rng.bit_generator.spawn(min(_BATCH, m_repetitions - start))
        batch = _run_batch(layout, strategy, noise, streams)
        passes += int(batch.accept.sum())
        if 0 <= pick - start < len(batch):
            output = batch.outputs[pick - start]
        if record_sink is not None:
            record_sink.extend(RunRecord(batch, i) for i in range(len(batch)))
    fraction = passes / m_repetitions
    return SchemeVerdict(fraction >= l_threshold, fraction, output, m_repetitions, l_threshold)


# ---------------------------------------------------------------------------
# The exact honest target distribution


def _correction_index_map(g: GraphSpec) -> np.ndarray:
    """Connector-correction involution as a permutation of outcome indices.

    Nothing else in the package calls it: it is the exact oracle's correction
    step, read by the tests and, through `honest_target_distribution`, by the
    benchmark's checks."""
    nd = g.non_dummy_ids()
    pos = {v: j for j, v in enumerate(nd)}
    out = np.arange(2 ** len(nd))
    for b in g.bridge_ids():
        ends = g.induced_neighbors[b]
        # the indices with bridge b's bit set, as a strided view, flip both ends
        out.reshape(-1, 2, 2 ** pos[b])[:, 1] ^= (1 << pos[ends[0]]) | (1 << pos[ends[1]])
    return out


def honest_target_distribution(g: GraphSpec) -> Distribution:
    """What the decrypted computation string looks like for an honest run:
    the carved graph measured at its base angles, pushed through the
    connector corrections, an involution: index j takes index map[j]'s mass.

    Nothing in the package calls it: it is the exact oracle that the tests
    and the benchmark's checks read."""
    corrected = exact_probability_array(g)[_correction_index_map(g)]
    n = len(g.non_dummy_ids())
    return Distribution(n, dict(zip(bit_strings(index_bits(n)), corrected.tolist())))
