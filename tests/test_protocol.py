"""Keying, encryption, round execution, verdicts, and the gap estimator."""
from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from trapver.bounds import pauli_matrix
from trapver.graphs import (
    ROLE_COMPUTATIONAL,
    ROLE_DUMMY,
    ROLE_TRAP,
    GraphSpec,
    carve_target,
    carve_trap_graph,
)
from trapver import protocol
from trapver.protocol import (
    _LETTER_CODE,
    _correction_index_map,
    _keyed_angles,
    _pad_mask,
    _pauli_frame,
    _pauli_weights,
    _run_batch,
    _sample_round,
    _sim_plan,
    AttackSpec,
    RoundLayout,
    RunBatch,
    RunRecord,
    honest_target_distribution,
    make_round_layout,
    run_scheme,
    unitary_attack,
)
from trapver.simulator import (
    NoiseModel,
    component_probability_rows,
    exact_probability_array,
    fwht_inplace,
)

from helpers import (
    bits_of, empirical_distribution, probabilities_at, single_pauli_attack, tv_distance,
)
from oracle import (
    DenseKey,
    NoiseEvent,
    decrypt,
    dense_round_state,
    encrypt_angles,
    estimate_fidelity_gap,
    joint_unitary_run,
    keygen,
    non_dummy,
    record_dicts,
    run_protocol,
    sample_events,
    target_slot,
)


def rng_from(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def sink_batches(sink: list) -> list[RunBatch]:
    """The batches that a `run_scheme` record sink's runs belong to, in
    run order."""
    return list(dict.fromkeys(r.batch for r in sink))


def sink_text(sink: list) -> str:
    """The sink's records as the items of their JSON list, as written."""
    return ", ".join(b.json_text for b in sink_batches(sink))


def sink_records(sink: list) -> list[dict]:
    """The sink's records as the run-by-run reference dicts."""
    return [d for b in sink_batches(sink) for d in record_dicts(b)]


def tiny_layout() -> RoundLayout:
    """1x2 lattice: two-vertex chain target, one trap per parity."""
    target = GraphSpec(1, 2, (ROLE_COMPUTATIONAL,) * 2, (1, 2), ((0, 1),))
    even = GraphSpec(1, 2, (ROLE_TRAP, ROLE_DUMMY), (0, 0), ((0, 1),))
    odd = GraphSpec(1, 2, (ROLE_DUMMY, ROLE_TRAP), (0, 0), ((0, 1),))
    return RoundLayout(m=1, n=2, kappa=1, graphs=(target, even, odd))


@pytest.fixture(scope="module")
def layout33() -> RoundLayout:
    return make_round_layout(3, 3, 1)


# -- layouts ------------------------------------------------------------------


def test_layout_shape(layout33):
    assert layout33.rounds == 3
    assert layout33.target.bridge_ids() == (5,)
    assert layout33.graphs[1].trap_ids() == (0, 2, 6, 8)
    assert layout33.graphs[2].trap_ids() == (1, 5, 7)


def test_layout_validation(layout33):
    g = layout33.graphs
    with pytest.raises(ValueError, match="one graph per round"):
        RoundLayout(3, 3, 1, g[:2])
    with pytest.raises(ValueError, match="kappa"):
        RoundLayout(3, 3, 0, (g[0],))
    with pytest.raises(ValueError, match="shape"):
        RoundLayout(5, 3, 1, g)


# -- keys ---------------------------------------------------------------------


KEY_TABLES = ("theta_k", "r", "rprime", "d", "dummy_delta_k")


def same_key(a: DenseKey, b: DenseKey) -> bool:
    return a.perm == b.perm and all(
        np.array_equal(getattr(a, f), getattr(b, f)) for f in KEY_TABLES
    )


def test_keygen_reproducible(layout33):
    a = keygen(layout33, rng_from(42))
    assert same_key(a, keygen(layout33, rng_from(42)))
    assert not same_key(a, keygen(layout33, rng_from(43)))


def test_keygen_covers_layout(layout33):
    key = keygen(layout33, rng_from(1))
    assert sorted(key.perm) == [0, 1, 2]
    for f in KEY_TABLES:
        table = getattr(key, f)
        assert table.shape == (3, 9) and table.dtype == np.uint8
        assert table.max() < (16 if f in ("theta_k", "dummy_delta_k") else 2)
    for gi, g in enumerate(layout33.graphs):
        dummy = np.array([g.is_dummy(v) for v in range(9)])
        assert not key.theta_k[gi][dummy].any()
        assert not key.d[gi][~dummy].any()
        assert not key.dummy_delta_k[gi][~dummy].any()


def test_keygen_is_the_key_of_a_run(layout33):
    """`keygen` reads the key words that open a repetition's block, so a
    run on an equally seeded generator decrypts under that key."""
    key = keygen(layout33, rng_from(44))
    rec = record_dicts(run_protocol(layout33, None, None, rng_from(44)))[0]
    assert rec["target_slot"] == target_slot(key)
    assert decrypt(key, layout33, bits_of(rec["raw"])) == bits_of(rec["decrypted"])


def test_target_slot_uniform(layout33):
    rng = rng_from(7)
    counts = [0, 0, 0]
    n = 6000
    for _ in range(n):
        counts[target_slot(keygen(layout33, rng))] += 1
    for c in counts:
        assert abs(c / n - 1 / 3) < 0.025


def test_theta_marginal_uniform(layout33):
    rng = rng_from(8)
    n = 8000
    hist = np.zeros(16, dtype=int)
    for _ in range(n):
        hist[keygen(layout33, rng).theta_k[0][0]] += 1
    for c in hist:
        assert abs(c / n - 1 / 16) < 0.012


# -- encryption ---------------------------------------------------------------


def test_encrypt_whitebox_tiny():
    lay = tiny_layout()
    key = keygen(lay, rng_from(0))
    # overwrite the target-round tables with handpicked values
    key.theta_k[0] = key.r[0] = key.rprime[0] = (0, 1)
    deltas = encrypt_angles(key, lay)
    # vertex 0: theta=0, r=r'=0, phi=1 -> delta = phi
    assert deltas[0][0] == 1
    # vertex 1: theta=1, phi=2, r'=1 (sign flip), r=1 (half turn)
    assert deltas[0][1] == (1 - 2 + 8) % 16 == 7


def test_encrypt_trap_and_dummy_deltas(layout33):
    rng = rng_from(3)
    for _ in range(200):
        key = keygen(layout33, rng)
        deltas = encrypt_angles(key, layout33)
        for gi in (1, 2):
            g = layout33.graphs[gi]
            for v in g.trap_ids():
                want = (key.theta_k[gi][v] + 8 * key.r[gi][v]) % 16
                assert deltas[gi][v] == want
            for v in g.dummy_ids():
                assert deltas[gi][v] == key.dummy_delta_k[gi][v]


def test_encrypt_deltas_cover_every_cell(layout33):
    key = keygen(layout33, rng_from(5))
    deltas = encrypt_angles(key, layout33)
    assert deltas.shape == (3, 9)
    assert ((deltas >= 0) & (deltas < 16)).all()


# -- decryption (pure function) ----------------------------------------------


def identity_key(layout: RoundLayout) -> DenseKey:
    shape = (layout.rounds, layout.m * layout.n)
    return DenseKey(
        tuple(range(layout.rounds)),
        *(np.zeros(shape, np.uint8) for _ in KEY_TABLES),
    )


def test_decrypt_identity_pad(layout33):
    key = identity_key(layout33)
    raw = [[0] * 9, [0] * 9, [0] * 9]
    raw[0][1] = 1  # a computational outcome passes through untouched
    dec = decrypt(key, layout33, raw)
    assert dec[0] == (0, 1, 0, 0, 0, 0, 0)
    assert dec[1] == (0, 0, 0, 0)
    assert dec[2] == (0, 0, 0)


def test_decrypt_connector_flip(layout33):
    key = identity_key(layout33)
    raw = [[0] * 9, [0] * 9, [0] * 9]
    raw[0][5] = 1  # connector fired: both joined chain ends flip
    dec = decrypt(key, layout33, raw)
    # non-dummies ascending: cells (0, 1, 2, 5, 6, 7, 8)
    assert dec[0] == (0, 0, 1, 1, 0, 0, 1)


def test_decrypt_r_flip_on_trap(layout33):
    key = identity_key(layout33)
    key.r[1][0] = 1
    dec = decrypt(key, layout33, [[0] * 9] * 3)
    assert dec[1] == (1, 0, 0, 0)
    assert dec[0] == (0,) * 7 and dec[2] == (0,) * 3


def test_decrypt_rprime_flips_surviving_neighbors(layout33):
    key = identity_key(layout33)
    key.rprime[0][1] = 1  # cell 1 survives with neighbors 0 and 2
    dec = decrypt(key, layout33, [[0] * 9] * 3)
    assert dec[0] == (1, 0, 1, 0, 0, 0, 0)


@pytest.mark.parametrize("m, kappa", [(m, kappa) for m in range(3, 10) for kappa in (1, 2)])
def test_engine_decryption_equals_the_oracle(m, kappa):
    """The engine's batch `_masks` and `_decrypt` equal the oracle's run by
    run re-derivation, on random keys and raw bits over every cell (the
    dummies' key bits included, which neither may read), for every
    target from 3x3 to 9x3."""
    layout, runs = make_round_layout(m, 3, kappa), 40
    rng = rng_from(5000 + 10 * m + kappa)
    shape = (runs, layout.rounds, m * 3)
    perm = np.argsort(rng.random(shape[:2]), axis=1)
    r, rprime, raw = (rng.integers(0, 2, shape, np.uint8) for _ in range(3))
    keys = protocol.SecretKey(perm, np.zeros(shape, np.uint8), r, rprime)
    plans = [_sim_plan(g) for g in layout.graphs]
    canonical = np.empty_like(raw)
    canonical[np.arange(runs)[:, None], perm] = raw
    dec = protocol._decrypt(plans[0], protocol._masks(plans, keys), canonical)
    unread = np.zeros(shape[1:], np.uint8)  # θ, d and the decoy angle
    for i in range(runs):
        key = DenseKey(tuple(perm[i].tolist()), unread, r[i], rprime[i], unread, unread)
        want = decrypt(key, layout, raw[i].tolist())
        got = tuple(
            tuple(dec[i, gi, list(layout.graphs[gi].non_dummy_ids())].tolist())
            for gi in key.perm
        )
        assert got == want, i


def test_decrypt_validates_shapes(layout33):
    key = identity_key(layout33)
    with pytest.raises(ValueError, match="rounds"):
        decrypt(key, layout33, [[0] * 9] * 2)
    with pytest.raises(ValueError, match="per cell"):
        decrypt(key, layout33, [[0] * 9, [0] * 8, [0] * 9])


# -- attack specs -------------------------------------------------------------


def test_attack_spec_validation():
    with pytest.raises(ValueError, match="sum to 1"):
        AttackSpec(pauli_terms=((0.5, (((0, 0), "Z"),)),))
    with pytest.raises(ValueError, match="nonnegative"):
        AttackSpec(
            pauli_terms=(
                (-0.5, (((0, 0), "Z"),)),
                (1.5, (((0, 0), "X"),)),
            )
        )
    with pytest.raises(ValueError, match="nonnegative"):
        AttackSpec(pauli_terms=((float("nan"), (((0, 0), "Z"),)),))
    for bad in ("W", "", "XY"):
        with pytest.raises(ValueError, match="letter"):
            single_pauli_attack({(0, 0): bad})
    for bad in (np.ones((64, 64)), np.full((64, 64), np.nan)):
        with pytest.raises(ValueError, match="not unitary"):
            unitary_attack(tiny_layout(), bad)
    for bad in (np.eye(3), np.ones(4), np.ones((4, 2)), np.ones((0, 0))):
        with pytest.raises(ValueError, match="2\\^q"):
            unitary_attack(tiny_layout(), bad)


# -- protocol runs ------------------------------------------------------------


def test_honest_run_accepts(layout33):
    rng = rng_from(10)
    for _ in range(50):
        rec = record_dicts(run_protocol(layout33, None, None, rng))[0]
        assert rec["accept"]
        assert rec["trap_passed"][rec["target_slot"]] is None
        assert sum(1 for t in rec["trap_passed"] if t is True) == 2
        assert len(rec["decrypted"][rec["target_slot"]]) == 7
        assert len(rec["raw"]) == 3 and all(len(r) == 9 for r in rec["raw"])


def test_run_record_json_shape(layout33):
    b = run_protocol(layout33, single_pauli_attack({(0, 0): "Z"}), None, rng_from(2))
    d = json.loads(b.json_text)  # the one run's record, as written
    assert set(d) == {
        "raw", "decrypted", "trap_passed", "accept", "target_slot", "attack_letters",
    }
    assert d["attack_letters"] == [[0, 0, "Z"]]
    # each slot's outcomes are one packed "0101…" string, read left to right
    assert all(type(s) is str and set(s) <= {"0", "1"} for s in d["raw"] + d["decrypted"])
    # and they spell the batch columns: raw by slot, decrypted over each
    # slot's non-dummy cells
    assert bits_of(d["raw"]) == tuple(map(tuple, b.raw[0].tolist()))
    assert bits_of(d["decrypted"]) == tuple(
        tuple(b.decrypted[0, gi, list(layout33.graphs[gi].non_dummy_ids())].tolist())
        for gi in b.perm[0].tolist()
    )


def test_run_requires_seeded_generator(layout33):
    with pytest.raises(ValueError, match="generator"):
        run_protocol(layout33)


def test_trap_flip_semantics(layout33):
    """Z on a trap decodes to 1, X leaves the readout untouched.  A run's
    key is `keygen` of its generator, which says where the even trap
    round runs before the attack is aimed at it."""
    for seed in range(14, 314):
        slot = keygen(layout33, rng_from(seed)).perm.index(1)
        for letter, want in (("Z", 1), ("X", 0)):
            attack = single_pauli_attack({(slot, 0): letter})
            dec = bits_of(record_dicts(run_protocol(layout33, attack, None, rng_from(seed)))[0]["decrypted"])
            assert dec[slot][0] == want
            assert dec[slot][1:] == (0, 0, 0)


def test_single_position_attack_accept_rate(layout33):
    """Z pinned to one round at cell 0 escapes whenever that slot did not
    draw the even-trap round: accept rate 2/3."""
    rng = rng_from(21)
    attack = single_pauli_attack({(0, 0): "Z"})
    n = 3000
    hits = sum(run_protocol(layout33, attack, None, rng).accept[0] for _ in range(n))
    # binomial 4 sigma around 2/3
    assert abs(hits / n - 2 / 3) < 4 * math.sqrt(2 / 9 / n)


def test_same_cell_all_rounds_never_accepts(layout33):
    """Hitting cell 0 in every round guarantees the even round is hit."""
    rng = rng_from(22)
    attack = single_pauli_attack({(s, 0): "Z" for s in range(3)})
    assert not any(
        run_protocol(layout33, attack, None, rng).accept[0] for _ in range(2000)
    )


def test_verdict_monotone_under_extra_letter(layout33):
    """Adding a letter can only flip more bits: acceptance shrinks
    pointwise over paired seeds."""
    base = single_pauli_attack({(0, 0): "Z"})
    more = single_pauli_attack({(0, 0): "Z", (1, 1): "Z"})
    flips = {"gain": 0, "loss": 0}
    for seed in range(500):
        a = run_protocol(layout33, base, None, rng_from(seed)).accept[0]
        b = run_protocol(layout33, more, None, rng_from(seed)).accept[0]
        if b and not a:
            flips["gain"] += 1
        if a and not b:
            flips["loss"] += 1
    assert flips["gain"] == 0
    assert flips["loss"] > 20


# -- fast path against the routes it replaces --------------------------------


def _base_probs(comp) -> np.ndarray:
    return np.diff(comp.cdf, prepend=0.0)


def _mask_index(mask, vertices) -> int:
    return sum(int(mask[v]) << j for j, v in enumerate(vertices))


@pytest.mark.parametrize("m", [5, 6])
def test_base_distribution_shifted_by_mask_equals_per_key_route(m):
    """Per key, each component's distribution at the effective angles
    δ − θ is the cached base distribution with its index XORed by the
    key mask."""
    layout = make_round_layout(m, 3, 1)
    rng = rng_from(60 + m)
    for _ in range(8):
        key = keygen(layout, rng)
        deltas = encrypt_angles(key, layout)
        for gi, g in enumerate(layout.graphs):
            plan = _sim_plan(g)
            mask = _pad_mask(plan, key.r[gi], key.rprime[gi])
            for comp in plan.components:
                if g.is_dummy(comp.vertices[0]):
                    continue  # a dummy's coin has no per-key route
                per_key = probabilities_at(
                    comp.vertices,
                    comp.edges,
                    [deltas[gi][v] - key.theta_k[gi][v] for v in comp.vertices],
                )
                idx = np.arange(per_key.size)
                shifted = _base_probs(comp)[idx ^ _mask_index(mask, comp.vertices)]
                np.testing.assert_allclose(per_key, shifted, rtol=0, atol=1e-12)


def _dense_distribution(g, key, gi, deltas, events, letters) -> np.ndarray:
    """Raw-outcome distribution over all cells from the dense state read
    out in the X basis: H on every qubit, then |amp|²."""
    state = dense_round_state(
        g, key.theta_k[gi], key.d[gi], deltas[gi], events, letters
    )
    amps = state.amps.copy()
    fwht_inplace(amps)  # H on every qubit, up to 2^(-size/2)
    return np.abs(amps) ** 2 / 2**state.n


def _frame(g, events, letters) -> tuple[np.ndarray, np.ndarray]:
    """The kernel's X and Z frame bits for one run's ``events`` plus
    attack ``letters`` at the readout."""
    evs = list(events) + [NoiseEvent(len(g.edges), v, p) for v, p in letters.items()]
    cols = np.array([(s, v, _LETTER_CODE[p]) for s, v, p in evs], int).reshape(-1, 3)
    plan = _sim_plan(g)
    x, z = _pauli_frame(plan, np.zeros(len(cols), int), *cols.T, 1)
    return x[0], z[0]


def _frame_distribution(g, key, gi, events, letters) -> np.ndarray:
    """The frame kernel's exact raw-outcome distribution over all cells:
    per component the shifted base, or the distribution at the keyed
    angles where the frame holds an X bit; fair coins on dummies; then
    every outcome XORed with the frame's Z bits."""
    size = g.m * g.n
    plan = _sim_plan(g)
    x, z = _frame(g, events, letters)
    mask = _pad_mask(plan, key.r[gi], key.rprime[gi])
    keyed = _keyed_angles(plan, key.r[gi], key.rprime[gi], key.theta_k[gi], x)
    cells = np.arange(2**size)
    out = np.ones(2**size)
    for comp in plan.components:  # dummies are one-cell fair coins
        sub = sum(((cells >> v) & 1) << j for j, v in enumerate(comp.vertices))
        if any(x[v] and not g.is_dummy(v) for v in comp.vertices):
            probs = probabilities_at(
                comp.vertices, comp.edges, [int(keyed[v]) for v in comp.vertices]
            )
        else:
            idx = np.arange(comp.cdf.size)
            probs = _base_probs(comp)[idx ^ _mask_index(mask, comp.vertices)]
        out *= probs[sub]
    return out[cells ^ _mask_index(z, range(size))]


def test_fast_round_distribution_equals_dense_path():
    """Exact raw-outcome distribution of every noiseless round at 5x3:
    the kernel's (shifted base per component, fair coins on dummies)
    against the dense state.  At 3x3 the base is uniform, so only a
    larger lattice can expose a wrong mask."""
    layout = make_round_layout(5, 3, 1)
    rng = rng_from(70)
    for _ in range(3):
        key = keygen(layout, rng)
        deltas = encrypt_angles(key, layout)
        for gi, g in enumerate(layout.graphs):
            np.testing.assert_allclose(
                _frame_distribution(g, key, gi, (), {}),
                _dense_distribution(g, key, gi, deltas, (), {}),
                rtol=0,
                atol=1e-12,
            )


def _hand_picked_events(g) -> dict[str, list[NoiseEvent]]:
    """Event lists that each exercise one frame rule in carving ``g``."""
    readout = len(g.edges)
    steps = {v: [i for i, e in enumerate(g.edges) if v in e] for v in range(g.m * g.n)}

    def later_partners(v, step):
        return [a + b - v for a, b in g.edges[step + 1 :] if v in (a, b)]

    dummy = next(
        v
        for v in g.dummy_ids()
        if any(not g.is_dummy(u) for u in later_partners(v, steps[v][0]))
    )
    nd = g.non_dummy_ids()
    cases = {
        "X on a dummy between two of its cZs": [
            NoiseEvent(steps[dummy][0], dummy, "X")
        ],
        "X, Y and Z at readout": [
            NoiseEvent(readout, nd[0], "X"),
            NoiseEvent(readout, nd[1], "Y"),
            NoiseEvent(readout, nd[-1], "Z"),
        ],
    }
    if g.trap_ids():
        cases["Y at preparation on a trap"] = [NoiseEvent(-1, g.trap_ids()[0], "Y")]
    if g.bridge_ids():
        b = g.bridge_ids()[0]
        cases["X on a bridge after its last edge"] = [NoiseEvent(steps[b][-1], b, "X")]
    return cases


@pytest.mark.parametrize("m", [3, 5])
def test_frame_distribution_equals_dense_path(m):
    """With the same noise events and attack letters, the frame kernel's
    exact raw distribution equals the dense state's, on every round kind:
    hand-picked events for each propagation rule, then random lists."""
    layout = make_round_layout(m, 3, 1)
    rng = rng_from(90 + m)
    noisy = NoiseModel(eps_v=0.25, eps_p=0.25)
    for _ in range(3):
        key = keygen(layout, rng)
        deltas = encrypt_angles(key, layout)
        for gi, g in enumerate(layout.graphs):
            nd = g.non_dummy_ids()
            cases = [(ev, {}) for ev in _hand_picked_events(g).values()]
            cases += [
                (sample_events(g, noisy, rng), {nd[0]: "Y", nd[-1]: "X"})
                for _ in range(4)
            ]
            assert any(events for events, _ in cases[-4:])
            for events, letters in cases:
                np.testing.assert_allclose(
                    _frame_distribution(g, key, gi, events, letters),
                    _dense_distribution(g, key, gi, deltas, events, letters),
                    rtol=0,
                    atol=1e-12,
                )


def test_frame_kernel_samples_a_recomputed_component():
    """Where the frame flips the 3x3 target component, the kernel's draws
    follow the distribution at the keyed angles."""
    layout = make_round_layout(3, 3, 1)
    g = layout.target
    assert len(_sim_plan(g).components[0].vertices) == 7
    events = [NoiseEvent(-1, 0, "Y"), NoiseEvent(len(g.edges) - 1, 8, "X")]
    _check_recomputed_draws(layout, keygen(layout, rng_from(95)), 0, events)


def test_frame_kernel_samples_a_recomputed_trap():
    """An X at preparation on a trap with θ = π/4 turns its deterministic
    outcome into a fair coin, which only the recomputed component draws.
    (The 3x3 target is a tree, so its outcomes are uniform at any angles
    and cannot tell the recomputation from the cached base.)"""
    layout = make_round_layout(3, 3, 1)
    key = keygen(layout, rng_from(95))
    key.theta_k[1][0] = 2
    _check_recomputed_draws(layout, key, 1, [NoiseEvent(-1, 0, "X")])


def _check_recomputed_draws(layout, key, gi, events):
    """8000 kernel draws of the component holding vertex 0 against its
    exact distribution.  The empirical total variation has mean at most
    ½Σ√(p/N) and moves by 1/N per draw, so it exceeds that by 0.03 with
    probability below e^{−2N·0.03²} ≈ 1e-6."""
    g = layout.graphs[gi]
    plan = _sim_plan(g)
    comp = plan.components[0]
    x, z = _frame(g, events, {})
    assert x[list(comp.vertices)].any()
    size = g.m * g.n
    cells = np.arange(2**size)
    want = np.zeros(2 ** len(comp.vertices))
    exact = _frame_distribution(g, key, gi, events, {})
    np.add.at(
        want, sum(((cells >> v) & 1) << j for j, v in enumerate(comp.vertices)), exact
    )
    n = 8000
    rng = rng_from(96)
    mask = _pad_mask(plan, key.r[gi], key.rprime[gi])
    tables = [np.tile(a, (n, 1)) for a in (key.r[gi], key.rprime[gi], key.theta_k[gi])]
    frame = [np.tile(a, (n, 1)) for a in (x, z)]
    raws = _sample_round(plan, mask, tables, *frame, rng.random((n, len(plan.components))))
    picks = raws[:, list(comp.vertices)] @ (1 << np.arange(len(comp.vertices)))
    counts = np.bincount(picks, minlength=want.size)
    tv = 0.5 * np.abs(counts / n - want).sum()
    assert tv < 0.5 * np.sqrt(want / n).sum() + 0.03
    assert counts[want < 1e-12].sum() == 0


def _per_hit_sample_round(g, plan, mask, key_tables, x, z, u) -> np.ndarray:
    """`_sample_round` as it was before recomputes were stacked: one
    one-row kernel call and one search per hit (run, component).  The
    oracle for the stacked recompute."""
    raw = np.zeros((len(u), g.m * g.n), np.uint8)
    raw[:, plan.one_vertices] = u[:, plan.ones] >= plan.one_p0
    for j in plan.multi:
        comp = plan.components[j]
        pick = comp.cdf.searchsorted(u[:, j], side="right")
        raw[:, comp.vertices] = (pick[:, None] >> np.arange(len(comp.vertices))) & 1
    raw ^= mask
    nd = np.array([not g.is_dummy(v) for v in range(g.m * g.n)], np.uint8)
    hit_runs, hit_verts = np.nonzero(x & nd)
    if len(hit_runs):
        k = _keyed_angles(plan, *key_tables, x)
        hits = set(zip(hit_runs.tolist(), plan.comp_of[hit_verts].tolist()))
        for i, j in sorted(hits):
            vertices, edges, _ = plan.components[j]
            cdf = np.cumsum(probabilities_at(vertices, edges, [int(k[i, v]) for v in vertices]))
            pick = int(cdf.searchsorted(u[i, j] * cdf[-1], side="right"))
            raw[i, vertices] = [(pick >> b) & 1 for b in range(len(vertices))]
    return raw ^ z


@pytest.mark.parametrize("m", [3, 5])
def test_stacked_recompute_equals_per_hit_loop(m):
    """At ε=0.05 most runs recompute some component; the stacked kernel
    draws exactly the raw outcomes of the per-hit loop, on every round."""
    layout, runs, noise = make_round_layout(m, 3, 1), 400, NoiseModel(eps_v=0.05, eps_p=0.05)
    rng = rng_from(110 + m)
    words = protocol._draw_blocks([rng.bit_generator] * runs, protocol._key_words(layout))
    keys = protocol._keys(layout, non_dummy(layout), words)
    plans = [_sim_plan(g) for g in layout.graphs]
    masks = protocol._masks(plans, keys)
    target_hits = 0
    for gi, (g, plan) in enumerate(zip(layout.graphs, plans)):
        sites = 2 * g.m * g.n + len(g.edges)
        events = protocol._decode_events(g, noise, rng.random((runs, sites)))
        x, z = _pauli_frame(plan, *events, runs)
        u = rng.random((runs, len(plan.components)))
        tables = (keys.r[:, gi], keys.rprime[:, gi], keys.theta_k[:, gi])
        got = _sample_round(plan, masks[:, gi], tables, x, z, u)
        assert np.array_equal(got, _per_hit_sample_round(g, plan, masks[:, gi], tables, x, z, u))
        if gi == 0:
            target_hits = int(x[:, list(plan.components[0].vertices)].any(axis=1).sum())
    assert target_hits > runs // 4


def test_noisy_9x3_recompute_stays_under_the_amplitude_cap(monkeypatch):
    """A 20-cell component recomputes one 2^20-amplitude row at a time,
    with its CDF taken in place and one half-size WHT scratch, so a noisy
    9x3 batch peaks below 40 MiB (two stacked rows would take over 80);
    a 3x3 batch recomputes its 7-cell target in one stack."""
    calls: list[tuple[int, int]] = []

    def recording(vertices, edges, phases):
        calls.append((len(phases), len(vertices)))
        return component_probability_rows(vertices, edges, phases)

    monkeypatch.setattr(protocol, "component_probability_rows", recording)
    noise = NoiseModel(eps_v=0.02, eps_p=0.02)
    layout = make_round_layout(9, 3, 1)
    for g in layout.graphs:
        _sim_plan(g)  # the cached base, outside the measurement
    started = not tracemalloc.is_tracing()
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        _run_batch(layout, None, noise, rng_from(120).bit_generator.spawn(6))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        if started:
            tracemalloc.stop()
    assert calls.count((1, 20)) >= 2
    assert all(rows << cells <= protocol._RECOMPUTE_AMPLITUDES for rows, cells in calls)
    assert peak < 40 * 2**20
    calls.clear()
    _run_batch(
        make_round_layout(3, 3, 1), None, noise, rng_from(121).bit_generator.spawn(478)
    )
    sevens = [rows for rows, cells in calls if cells == 7]
    assert len(sevens) == 1 and sevens[0] > 50


def test_9x3_target_plan_holds_amplitudes_plus_half_a_scratch():
    """The 20-cell target component's plan peaks at its 16 MiB amplitude
    array plus one 8 MiB WHT scratch, with the CDF taken in place, and
    keeps only the 8 MiB CDF."""
    g = carve_target(9, 3)
    started = not tracemalloc.is_tracing()
    tracemalloc.start()
    tracemalloc.reset_peak()
    before = tracemalloc.get_traced_memory()[0]
    try:
        plan = _sim_plan.__wrapped__(g)  # bypass the cache
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        if started:
            tracemalloc.stop()
    assert len(plan.components[0].vertices) == 20
    assert peak - before < 25 * 2**20
    assert retained - before <= 8.1 * 2**20


def test_trap_plans_at_21x11_stay_under_a_mebibyte():
    """A carving's plan holds one cells × cells cZ-order matrix, so both
    21x11 trap plans (231 cells, 430 cZs) build in well under 1 MiB; a
    table per cZ step would take over 20 MiB each."""
    for parity in ("even", "odd"):
        g = carve_trap_graph(21, 11, parity)
        started = not tracemalloc.is_tracing()
        tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            plan = _sim_plan.__wrapped__(g)  # bypass the cache
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            if started:
                tracemalloc.stop()
        assert peak < 2**20, parity
        assert plan.edge_step.shape == (231, 231)


def test_noiseless_events_draw_nothing(layout33):
    rng = rng_from(97)
    for g in layout33.graphs:
        assert sample_events(g, NoiseModel(), rng) == []
    assert rng.random() == rng_from(97).random()


def test_event_rate_per_site_matches_noise_model(layout33):
    """Every site fires at its own rate, within 4σ: each preparation at
    ε_V, each cZ at ε_P (on one of its two ends) and each readout at ε_P."""
    g = layout33.target
    eps_v, eps_p, n = 0.05, 0.1, 4000
    noise = NoiseModel(eps_v=eps_v, eps_p=eps_p)
    rng = rng_from(98)
    hits: dict[tuple[int, int], int] = {}
    for _ in range(n):
        for step, v, letter in sample_events(g, noise, rng):
            assert letter in "XYZ"
            site = (step, -1) if 0 <= step < len(g.edges) else (step, v)
            if site[1] == -1:
                assert v in g.edges[step]
            hits[site] = hits.get(site, 0) + 1
    size = g.m * g.n
    sites = (
        [((-1, v), eps_v) for v in range(size)]
        + [((step, -1), eps_p) for step in range(len(g.edges))]
        + [((len(g.edges), v), eps_p) for v in range(size)]
    )
    assert set(hits) <= {site for site, _ in sites}
    for site, rate in sites:
        sigma = math.sqrt(n * rate * (1 - rate))
        assert abs(hits.get(site, 0) - n * rate) < 4 * sigma, site


@pytest.mark.parametrize("m", [3, 5])
def test_event_kinds_ends_and_letters_follow_the_noise_law(m):
    """A χ² test at a fixed seed of `_decode_events` counts by site kind,
    cZ end and letter, under the non-uniform mix X .5, Y .3, Z .2: each
    preparation fires at ε_V, each cZ and readout at ε_P; a cZ puts its
    letter on either end with probability 1/2, and the letter follows the
    mix everywhere."""
    g = carve_target(m, 3)
    mix = {"X": 0.5, "Y": 0.3, "Z": 0.2}
    eps_v, eps_p, runs = 0.2, 0.3, 2000
    size, n_edges = 3 * m, len(g.edges)
    u = rng_from(990 + m).random((runs, 2 * size + n_edges))
    _, steps, verts, codes = protocol._decode_events(g, NoiseModel(eps_v, eps_p, mix), u)
    cz = (steps >= 0) & (steps < n_edges)
    second = verts == np.array(g.edges).reshape(-1, 2)[np.clip(steps, 0, n_edges - 1), 1]
    # kinds: preparation, cZ's first end, cZ's second end, readout
    kind = np.where(cz, 1 + second, np.where(steps < 0, 0, 3))
    letter = codes - 1  # letter codes 1, 2, 3: X, Z, Y
    counts = np.zeros((4, 3))
    np.add.at(counts, (kind, letter), 1)
    letter_p = np.array([mix["X"], mix["Z"], mix["Y"]])
    stat, dof = 0.0, 0
    for kinds, sites, rate in (([0], size, eps_v), ([1, 2], n_edges, eps_p), ([3], size, eps_p)):
        hits = counts[kinds].ravel()
        want = runs * sites * rate / len(kinds) * np.tile(letter_p, len(kinds))
        none, none_want = runs * sites - hits.sum(), runs * sites * (1 - rate)
        stat += ((hits - want) ** 2 / want).sum() + (none - none_want) ** 2 / none_want
        dof += len(hits)
    assert stats.chi2.sf(stat, dof) > 1e-3, (stat, dof)


@pytest.mark.parametrize("m, n", [(3, 3), (5, 3), (9, 3)])
def test_correction_index_map_equals_the_masked_loop(m, n):
    """The map flipped in place through strided views is the per-bridge
    loop over masked index copies it replaced, and an involution."""
    g = carve_target(m, n)
    pos = {v: j for j, v in enumerate(g.non_dummy_ids())}
    idx = np.arange(2 ** len(pos))
    want = idx.copy()
    for b in g.bridge_ids():
        a, c = g.induced_neighbors[b]
        want[((idx >> pos[b]) & 1).astype(bool)] ^= (1 << pos[a]) | (1 << pos[c])
    got = _correction_index_map(g)
    assert np.array_equal(got, want)
    assert np.array_equal(got[got], idx)


@pytest.mark.parametrize(
    "m, n, runs",
    [(5, 3, 1500), (9, 3, 300), (7, 5, 2000)],
    ids=["5-1500", "9-300", "7x5-2000"],
)
def test_honest_outputs_reach_exact_cross_entropy(m, n, runs):
    """Linear cross-entropy of honest outputs against the exact corrected
    distribution.  Its expectation is 2.25 at 5x3 and 9x3, 1.875 at 7x5
    (24 qubits, the smallest carving with staggered connectors), and
    uniform strings give 1.0, so a decryption or mask bug cannot pass."""
    layout = make_round_layout(m, n, 1)
    scaled, want, sd = _exact_cross_entropy(layout.target)
    tol = 4 * sd / math.sqrt(runs)
    assert want - tol > 1.0
    sink: list = []
    try:
        verdict = run_scheme(
            layout, None, None, runs, 1.0, rng_from(80 + m), record_sink=sink
        )
    finally:
        if (m, n) == (7, 5):
            _sim_plan.cache_clear()  # drop the 2^24-entry CDF
    assert verdict.pass_fraction == 1.0
    got = float(scaled[[int(r.target_output[::-1], 2) for r in sink]].mean())
    assert abs(got - want) < tol


def test_honest_outputs_reach_exact_cross_entropy_at_random_steps():
    """The cross-entropy gate on a 9x3 target whose computational cells
    carry random grid steps, bridges kept at 4 and traps at 0.  At the
    base angles 2^N·p takes 3 values and 8 of the 20 output bits leave
    it unchanged when flipped, so no gate sees a pad error there; at
    these steps only the two bridge bits do, and the expectation is
    1.566 against 1.0 for uniform strings."""
    base = make_round_layout(9, 3, 1)
    steps = rng_from(8092).integers(0, 16, 27).tolist()
    target = dataclasses.replace(base.target, phi_k=tuple(
        k if role == ROLE_COMPUTATIONAL else phi
        for k, role, phi in zip(steps, base.target.roles, base.target.phi_k)
    ))
    layout, runs = dataclasses.replace(base, graphs=(target,) + base.graphs[1:]), 1000
    scaled, want, sd = _exact_cross_entropy(target)
    idx = np.arange(scaled.size)
    flip_invisible = [j for j in range(20) if np.allclose(scaled, scaled[idx ^ (1 << j)])]
    assert flip_invisible == [9, 10]  # the bridges, cells 11 and 13
    tol = 4 * sd / math.sqrt(runs)
    assert want - tol > 1.0
    sink: list = []
    verdict = run_scheme(layout, None, None, runs, 1.0, rng_from(8093), record_sink=sink)
    assert verdict.pass_fraction == 1.0
    got = float(scaled[[int(r.target_output[::-1], 2) for r in sink]].mean())
    assert abs(got - want) < tol


def _exact_cross_entropy(g: GraphSpec) -> tuple[np.ndarray, float, float]:
    """2^N times the exact corrected distribution of ``g``'s outputs, by
    index, and its mean and standard deviation at an honest output."""
    probs = exact_probability_array(g)
    ref = np.zeros_like(probs)
    np.add.at(ref, _correction_index_map(g), probs)
    del probs  # at 7x5 every array here is 128 MiB
    scaled = ref * ref.size
    want = float((ref * scaled).sum())
    return scaled, want, math.sqrt(float((ref * scaled**2).sum()) - want**2)


def test_scheme_and_gap_reject_attacks_outside_the_layout(layout33):
    for letters, what in (({(7, 0): "Z"}, "slot 7"), ({(0, 99): "Z"}, "vertex 99")):
        attack = single_pauli_attack(letters)
        rng = rng_from(0)
        with pytest.raises(ValueError, match=what):
            run_protocol(layout33, attack, None, rng)
        assert rng.random() == rng_from(0).random()  # refused before drawing
        with pytest.raises(ValueError, match=what):
            run_scheme(layout33, attack, None, 2, 0.5, rng_from(0))
        with pytest.raises(ValueError, match=what):
            estimate_fidelity_gap(layout33, attack, 2, rng_from(0))


BATCH_CASES = {
    "honest-5x3": ((5, 3, 1), None, None),
    "mixture-5x3-kappa2": (
        (5, 3, 2),
        AttackSpec(pauli_terms=(
            (0.25, (((0, 3), "Z"), ((2, 7), "Y"))),
            (0.75, (((1, 6), "Z"), ((3, 8), "X"), ((4, 2), "Z"))),
        )),
        None,
    ),
    "depolarising-3x3": ((3, 3, 1), None, NoiseModel(eps_v=4e-3, eps_p=4e-3)),
}


@pytest.mark.parametrize("case", sorted(BATCH_CASES))
def test_records_do_not_depend_on_the_batch(case, monkeypatch):
    """A run's record depends only on its own generator: `run_scheme`
    with batches of 7 equals the engine run on all M spawned streams at
    once and on one stream at a time."""
    shape, attack, noise = BATCH_CASES[case]
    layout, m = make_round_layout(*shape), 150
    monkeypatch.setattr(protocol, "_BATCH", 7)
    sink: list = []
    run_scheme(layout, attack, noise, m, 0.5, rng_from(2030), record_sink=sink)
    whole = _run_batch(layout, attack, noise, rng_from(2030).bit_generator.spawn(m))
    one_by_one = [
        _run_batch(layout, attack, noise, [s])
        for s in rng_from(2030).bit_generator.spawn(m)
    ]
    assert sink_text(sink) == whole.json_text == ", ".join(b.json_text for b in one_by_one)
    records = sink_records(sink)
    if noise is not None:
        assert not all(r["accept"] for r in records)  # the noise did fire
    if attack is not None:
        assert {tuple(map(tuple, r["attack_letters"])) for r in records} == {
            tuple((s, v, p) for (s, v), p in sorted(term)) for _, term in attack.pauli_terms
        }


PIN_CASES = {
    "honest": (
        (5, 3, 1), None, None,
        "73de02408216cfbd404ce648fc13acd85b95a184c88f410825ddf01d2d3f4816",
    ),
    "attacked": (
        (5, 3, 1),
        single_pauli_attack({(0, 3): "Z", (1, 7): "Y", (2, 2): "X"}),
        None,
        "f80a1e0073a43c9907553f55c8a9b715c0a61f1e162c9b981b1d49be198eaa46",
    ),
    "noisy": (
        (3, 3, 1), None, NoiseModel(eps_v=0.02, eps_p=0.02),
        "882d14da66a757be448b37744e8bc0b9cfc896fb1a847ef8eba942cb84d266e1",
    ),
    "unitary": (
        "tiny",
        unitary_attack(tiny_layout(), pauli_matrix("IZIIXI")),
        NoiseModel(eps_v=0.05, eps_p=0.05),
        "d652b207d53d6d30f2ea5b953020121df7013ff5952483cb64aee8cb7ebc0279",
    ),
}


@pytest.mark.parametrize("case", sorted(PIN_CASES))
def test_records_are_pinned_to_engine_4(case):
    """The sha256 of 40 seeded run records' JSON list, as written, the
    text of ``json.dumps`` with sorted keys, per case, recorded when engine 4 was introduced, after the
    frame-versus-dense and exact-distribution tests passed: honest and
    Pauli-attacked 5x3, noisy 3x3 and a noisy Pauli-word unitary attack.
    When records went to packed ``raw``/``decrypted`` strings the digests
    were re-derived from the engine-4 list records, each row joined into
    its string, so the draws they pin are unchanged.  Engine 5 runs a
    unitary as its Pauli mixture; the unitary digest was re-pinned then,
    after the joint-register gate passed, and equals the digest of the
    same word given as letters.  The other three did not move.  Artifact
    schema 3 dropped ``target_output`` from the records; all four digests
    were re-pinned to the schema-2 records with that key removed."""
    shape, attack, noise, digest = PIN_CASES[case]
    layout = tiny_layout() if shape == "tiny" else make_round_layout(*shape)
    sink: list = []
    run_scheme(layout, attack, noise, 40, 0.5, rng_from(2024), record_sink=sink)
    doc = "[" + sink_text(sink) + "]"
    assert hashlib.sha256(doc.encode()).hexdigest() == digest


def _random_unitary(dim: int, seed: int) -> np.ndarray:
    q, r = np.linalg.qr(rng_from(seed).normal(size=(dim, dim, 2)).view(complex)[..., 0])
    return q * (np.diag(r) / abs(np.diag(r)))


_EPS = NoiseModel(eps_v=0.05, eps_p=0.05)
ENCODER_CASES = {
    "honest-3x3-kappa1": ((3, 3, 1), None, None, 60),
    "noisy-3x3-kappa5": ((3, 3, 5), None, _EPS, 60),  # 11 slots: two-digit target_slot
    "pauli-noisy-5x3-kappa2": ((5, 3, 2), BATCH_CASES["mixture-5x3-kappa2"][1], _EPS, 60),
    "unitary-noisy-tiny": ("tiny", "unitary", _EPS, 60),
    "pauli-9x3-kappa1": ((9, 3, 1), single_pauli_attack({(0, 4): "Z", (2, 9): "Y"}), None, 30),
    "one-run-5x3": ((5, 3, 1), single_pauli_attack({(1, 7): "Y"}), _EPS, 1),
    "two-batches-3x3": ((3, 3, 1), None, _EPS, 1030),
}


@pytest.mark.parametrize("case", sorted(ENCODER_CASES))
def test_record_text_equals_the_dict_encoding(case):
    """Each batch's column-wise record text is, byte for byte, the items of
    ``json.dumps`` (sorted keys) of the run-by-run reference dicts: honest,
    noisy, Pauli- and unitary-attacked runs, κ = 1, 2 and 5, 3x3 to 9x3
    (20-bit outputs are not served from the shared string table), one run,
    and M = 1030 in two batches."""
    shape, attack, noise, m = ENCODER_CASES[case]
    layout = tiny_layout() if shape == "tiny" else make_round_layout(*shape)
    if attack == "unitary":
        attack = unitary_attack(layout, _random_unitary(2**6, 4040))
        assert len(attack.pauli_terms) > 1000
    sink: list = []
    run_scheme(layout, attack, noise, m, 0.5, rng_from(4041), record_sink=sink)
    batches = sink_batches(sink)
    assert len(batches) == -(-m // protocol._BATCH)
    for batch in batches:
        want = record_dicts(batch)
        assert "[" + batch.json_text + "]" == json.dumps(want, sort_keys=True)
    records = sink_records(sink)
    # the computation string is the target slot's decrypted string
    assert [r.target_output for r in sink] == [d["decrypted"][d["target_slot"]] for d in records]
    if noise is not None and m > 1:
        assert not all(r["accept"] for r in records)
    if attack is not None:
        assert any(r["attack_letters"] for r in records)
    if shape == (3, 3, 5):
        assert {r["target_slot"] for r in records} >= {0, 10}


def test_record_dicts_are_fresh():
    """`RunRecord.to_json_dict` decodes a new dict on every call, so a
    caller's edit reaches neither the batch nor another caller; each is
    its run's reference dict."""
    batch = _run_batch(make_round_layout(3, 3, 1), None, None, [rng_from(4042).bit_generator] * 3)
    for i, want in enumerate(record_dicts(batch)):
        record = RunRecord(batch, i)
        first = record.to_json_dict()
        assert first == want
        first["raw"][0] = "edited"
        assert record.to_json_dict() != first
        assert record.to_json_dict() is not record.to_json_dict()


# -- scheme -------------------------------------------------------------------


def test_scheme_honest_accepts(layout33):
    sink: list = []
    verdict = run_scheme(
        layout33, None, None, 10, 0.9, rng_from(31), record_sink=sink
    )
    assert verdict.accept
    assert verdict.pass_fraction == 1.0
    assert len(sink) == 10
    assert verdict.output in {r.target_output for r in sink}
    assert verdict.to_json_dict() == {
        "accept": True, "pass_fraction": 1.0, "output": verdict.output,
        "m": 10, "l": 0.9,
    }


@pytest.mark.parametrize("seed", [6, 2], ids=["pick-in-batch-0", "pick-in-batch-1"])
def test_published_output_is_the_picked_run(seed):
    """The published output is the string of run ``pick``, the first
    integer an equally seeded generator draws after spawning the
    repetitions' streams: spawning leaves its own stream alone."""
    layout, m_reps = make_round_layout(5, 3, 1), 2 * protocol._BATCH + 3
    sink: list = []
    verdict = run_scheme(layout, None, None, m_reps, 0.5, rng_from(seed), record_sink=sink)
    rng = rng_from(seed)
    rng.bit_generator.spawn(m_reps)
    pick = int(rng.integers(m_reps))
    assert verdict.output == sink[pick].target_output


def test_scheme_rejects_killed_traps(layout33):
    attack = single_pauli_attack({(s, 0): "Z" for s in range(3)})
    verdict = run_scheme(layout33, attack, None, 8, 0.5, rng_from(32))
    assert not verdict.accept
    assert verdict.pass_fraction == 0.0


def test_scheme_tie_accepts(layout33):
    attack = single_pauli_attack({(s, 0): "Z" for s in range(3)})
    verdict = run_scheme(layout33, attack, None, 5, 0.0, rng_from(33))
    assert verdict.accept  # comparison is >=


def test_scheme_validation(layout33):
    with pytest.raises(ValueError):
        run_scheme(layout33, None, None, 0, 0.5, rng_from(0))
    with pytest.raises(ValueError):
        run_scheme(layout33, None, None, 5, 1.5, rng_from(0))


# -- noise --------------------------------------------------------------------


def test_phase_noise_accept_rate_matches_closed_form(layout33):
    """Pure-dephasing acceptance factorizes over traps.

    Z events commute with every entangler and rotation, so a trap readout
    flips independently per source: its preparation (rate a), each
    incident lattice edge (rate b on a random endpoint, b/2 here), and its
    own readout (rate b).  An odd number of flips fails the trap:
    p = (1 - prod(1-2p_i))/2.  Corner traps see 2 edges, the odd-parity
    traps 3.  Other mixtures would not factorize this way: X/Y events on
    a dummy propagate into neighboring trap readouts through the
    entangler byproducts.
    """
    a, b = 0.05, 0.08
    noise = NoiseModel(eps_v=a, eps_p=b, mix={"Z": 1.0})
    p_deg2 = (1 + (1 - 2 * a) * (1 - b) ** 2 * (1 - 2 * b)) / 2
    p_deg3 = (1 + (1 - 2 * a) * (1 - b) ** 3 * (1 - 2 * b)) / 2
    expected = p_deg2**4 * p_deg3**3
    rng = rng_from(41)
    n = 3000
    hits = sum(run_protocol(layout33, None, noise, rng).accept[0] for _ in range(n))
    se = math.sqrt(expected * (1 - expected) / n)
    assert abs(hits / n - expected) < 4 * se


def _trap_closed_form(layout, a, b) -> float:
    """Accept rate of the closed form above, over every trap of every
    trap round, each at its lattice degree."""
    p = 1.0
    for g in layout.graphs[1:]:
        for v in g.trap_ids():
            deg = len(g.neighbors(v))
            p *= (1 + (1 - 2 * a) * (1 - b) ** deg * (1 - 2 * b)) / 2
    return p


def test_phase_noise_closed_form_holds_at_9x3():
    """The factorised dephasing accept rate, at 9x3 with its twenty traps
    of degree 2, 3 and 4."""
    layout = make_round_layout(9, 3, 1)
    a, b = 0.01, 0.02
    expected = _trap_closed_form(layout, a, b)
    n = 3000
    verdict = run_scheme(
        layout, None, NoiseModel(eps_v=a, eps_p=b, mix={"Z": 1.0}), n, 0.0,
        rng_from(43),
    )
    se = math.sqrt(expected * (1 - expected) / n)
    assert abs(verdict.pass_fraction - expected) < 4 * se


def test_noisy_9x3_runs_under_the_default_cap():
    """27 cells exceed the 22-qubit cap, but the cap applies per
    component (at most 20 qubits here), so depolarising noise at 9x3
    runs.  Its pass fraction over M=20 stays within the two-sided
    Hoeffding radius √(ln(2/10⁻⁴)/2M) of the closed form carried over to
    9x3's traps; with X and Y letters that form is a trend, not exact."""
    layout = make_round_layout(9, 3, 1)
    eps, runs = 4e-3, 20
    verdict = run_scheme(
        layout, None, NoiseModel(eps_v=eps, eps_p=eps), runs, 0.0, rng_from(44)
    )
    radius = math.sqrt(math.log(2 / 1e-4) / (2 * runs))
    assert abs(verdict.pass_fraction - _trap_closed_form(layout, eps, eps)) < radius


def test_more_noise_means_fewer_accepts(layout33):
    rng = rng_from(42)
    lo = sum(
        run_protocol(layout33, None, NoiseModel(eps_v=0.01), rng).accept[0]
        for _ in range(400)
    )
    hi = sum(
        run_protocol(layout33, None, NoiseModel(eps_v=0.08), rng).accept[0]
        for _ in range(400)
    )
    assert hi < lo


# -- joint unitary deviations --------------------------------------------------


def _evolution(qubits: int, seed: int, time: float = 2.0) -> np.ndarray:
    """exp(−i·time·H) for a seeded random Hermitian H of spectral norm 1."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(2**qubits,) * 2) + 1j * rng.normal(size=(2**qubits,) * 2)
    h = (a + a.conj().T) / 2
    lam, vecs = np.linalg.eigh(h / np.linalg.norm(h, 2))
    return (vecs * np.exp(-1j * time * lam)) @ vecs.conj().T


def _rotation(word: str, angle: float) -> np.ndarray:
    """exp(−i·angle·P) for the Pauli word P."""
    p = pauli_matrix(word)
    return math.cos(angle) * np.eye(len(p)) - 1j * math.sin(angle) * p


# Non-Pauli deviations on the 1x2 `tiny_layout` (qubit q is slot q // 2,
# vertex q % 2): two-qubit rotations from slot 0 v0 to slot 1 v1, and
# random evolutions of all six qubits, the last with one private qubit.
JOINT_CASES = {
    "zz-rotation": lambda: (_rotation("ZIIZII", 0.6), 0),
    "xy-rotation": lambda: (_rotation("XIIYII", 0.9), 0),
    "random-hermitian": lambda: (_evolution(6, 5), 0),
    "random-hermitian-private": lambda: (_evolution(7, 6), 1),
}


def _exact_mixture_accept(layout, attack) -> float:
    """Σ_P p_P · (1/R!) Σ_perm [no Z/Y letter on a trap cell of a trap slot]."""
    perms = list(itertools.permutations(range(layout.rounds)))
    total = 0.0
    for weight, letters in attack.pauli_terms:
        hit = {cell for cell, letter in letters if letter in "ZY"}
        passing = sum(
            not any(
                (slot, v) in hit
                for slot, gi in enumerate(perm) if gi
                for v in layout.graphs[gi].trap_ids()
            )
            for perm in perms
        )
        total += weight * passing / len(perms)
    return total


@pytest.mark.parametrize("noisy", [False, True], ids=["noiseless", "eps-0.05"])
@pytest.mark.parametrize("case", sorted(JOINT_CASES))
def test_joint_register_matches_pauli_mixture(case, noisy):
    """The one-time-pad twirl turns a joint unitary into its Pauli mixture.

    600 runs of the dense joint register (the test oracle) against the
    mixture with weights Σ_j |Tr(P·B_j)|²/4ⁿ.  Noiseless, its accept rate
    lies within 4 standard errors of the mixture's exact acceptance.  At
    ε_V = ε_P = 0.05 it is compared with 3000 mixture runs of the engine:
    a two-sample z below 4 on the accept rate, and output total variation
    below 0.1.  With 600 and 3000 runs over four outputs that distance has
    mean at most about 0.031 and, by McDiarmid, exceeds 0.1 with
    probability below e^{−2·0.069²/(1/600 + 1/3000)} ≈ 0.009."""
    layout, runs = tiny_layout(), 600
    unitary, private = JOINT_CASES[case]()
    attack = unitary_attack(layout, unitary, private)
    noise = NoiseModel(eps_v=0.05, eps_p=0.05) if noisy else NoiseModel()
    seed = 3000 + 10 * sorted(JOINT_CASES).index(case) + noisy
    rng = rng_from(seed)
    dense = [joint_unitary_run(layout, unitary, private, noise, rng) for _ in range(runs)]
    rate = sum(accept for accept, _ in dense) / runs
    if not noisy:
        want = _exact_mixture_accept(layout, attack)
        assert 0.2 < want < 0.9
        assert abs(rate - want) < 4 * math.sqrt(want * (1 - want) / runs)
        return
    sink: list = []
    mixed = run_scheme(layout, attack, noise, 5 * runs, 0.0, rng_from(seed + 5), record_sink=sink)
    other = mixed.pass_fraction
    se = math.sqrt(rate * (1 - rate) / runs + other * (1 - other) / (5 * runs))
    assert abs(rate - other) < 4 * se
    tv = tv_distance(
        empirical_distribution([out for _, out in dense]),
        empirical_distribution([r.target_output for r in sink]),
    )
    assert tv < 0.1


def _brute_force_weights(unitary: np.ndarray, n: int) -> np.ndarray:
    """Σ_j |Tr(P·B_j)|²/4ⁿ word by word, P from `pauli_matrix`, indexed
    as `_pauli_weights` indexes them (letter codes I, X, Z, Y = 0..3)."""
    blocks = unitary[:, : 2**n].reshape(-1, 2**n, 2**n)
    out = np.zeros(4**n)
    for word in itertools.product("IXYZ", repeat=n):
        p = pauli_matrix("".join(word))
        index = sum(_LETTER_CODE[letter] << 2 * q for q, letter in enumerate(word))
        out[index] = sum(abs(np.trace(p @ b)) ** 2 for b in blocks) / 4**n
    return out


def _haar_unitary(qubits: int, rng: np.random.Generator) -> np.ndarray:
    a = rng.normal(size=(2**qubits,) * 2) + 1j * rng.normal(size=(2**qubits,) * 2)
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


@pytest.mark.parametrize("private", [0, 1, 2])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_pauli_weights_match_brute_force_traces(n, private):
    """The per-qubit 4×4 transform against Tr(P·B_j) word by word, for
    Haar-random unitaries and a random evolution; the weights sum to 1."""
    rng = rng_from(4000 + 10 * n + private)
    for unitary in (_haar_unitary(n + private, rng), _evolution(n + private, 7 * n + private)):
        got = _pauli_weights(unitary, n)
        np.testing.assert_allclose(got, _brute_force_weights(unitary, n), rtol=0, atol=1e-12)
        assert abs(got.sum() - 1) < 1e-12


def test_pauli_word_unitary_is_one_letter_term():
    """A Pauli word is a mixture of one term of weight exactly 1, with the
    word's letters at (slot, vertex) = divmod(qubit, 2); on a private
    qubit an X moves the whole block to ⟨1|, and the term is the same."""
    lay = tiny_layout()
    rng = rng_from(4100)
    words = ["IIIIII", "IZIIXI", "YIIIIZ"]
    words += ["".join(rng.choice(list("IXYZ"), 6)) for _ in range(5)]
    for word in words:
        letters = {divmod(q, 2): p for q, p in enumerate(word) if p != "I"}
        want = single_pauli_attack(letters).pauli_terms
        assert unitary_attack(lay, pauli_matrix(word)).pauli_terms == want
        assert unitary_attack(lay, pauli_matrix(word + "X"), 1).pauli_terms == want
        assert unitary_attack(lay, pauli_matrix(word + "IZ"), 2).pauli_terms == want


def test_unitary_attack_matches_letter_attack():
    """A Pauli-word unitary gives the letter attack's records, seed for
    seed, noiseless and noisy: the same draws, outcomes and letters."""
    lay = tiny_layout()
    for word in ("IIZIII", "IZIIXY"):
        by_unitary = unitary_attack(lay, pauli_matrix(word))
        by_letter = single_pauli_attack({divmod(q, 2): p for q, p in enumerate(word) if p != "I"})
        for noise in (None, NoiseModel(eps_v=0.05, eps_p=0.05)):
            for seed in range(100):
                ru = run_protocol(lay, by_unitary, noise, rng_from(seed)).json_text
                assert ru == run_protocol(lay, by_letter, noise, rng_from(seed)).json_text


def test_unitary_attack_output_distribution():
    lay = tiny_layout()
    word = ["I"] * 6
    word[0] = "Z"  # slot 0, vertex 0
    honest = honest_target_distribution(lay.target)
    # attacked slot holds the computation 1/3 of the time; a Z there
    # flips the decrypted bit of vertex 0
    mixture = {}
    for s, p in honest.probs.items():
        flipped = ("1" if s[0] == "0" else "0") + s[1:]
        mixture[s] = mixture.get(s, 0.0) + 2 / 3 * p
        mixture[flipped] = mixture.get(flipped, 0.0) + 1 / 3 * p
    want = honest.__class__(nbits=2, probs=mixture)

    for strategy in (
        unitary_attack(lay, pauli_matrix("".join(word))),
        unitary_attack(lay, pauli_matrix("".join(word) + "I"), private_qubits=1),
    ):
        rng = rng_from(77)
        outs = [
            run_protocol(lay, strategy, None, rng).outputs[0]
            for _ in range(900)
        ]
        assert tv_distance(empirical_distribution(outs), want) < 0.07


def test_unitary_attack_refuses_a_size_mismatch(layout33):
    """The qubit count is read off the matrix size, so a private register
    of 10⁹ qubits is refused without forming 2^(27 + 10⁹)."""
    for private in (0, 3, 10**9, -1):
        with pytest.raises(ValueError, match=f"q = 27 protocol \\+ {private} private"):
            unitary_attack(layout33, np.eye(2), private)
    # 32 rows would match the 6 protocol qubits with private = -1
    with pytest.raises(ValueError, match="-1 private"):
        unitary_attack(tiny_layout(), np.eye(32), -1)


# -- gap estimation -----------------------------------------------------------


def test_gap_estimate_honest(layout33):
    est = estimate_fidelity_gap(layout33, None, 60, rng_from(50))
    assert est.ft2 == 1.0 and est.fc2 == 1.0 and est.gap == 0.0
    assert est.ft2_se == 0.0 and est.gap_se == 0.0
    assert est.samples == 60


def test_gap_estimate_single_round(layout33):
    """One pinned position: trap-kill and computation-hit rates both 2/3,
    so the gap is exactly zero in expectation."""
    attack = single_pauli_attack({(0, 0): "Z"})
    est = estimate_fidelity_gap(layout33, attack, 1500, rng_from(52))
    margin = 4 * math.sqrt(2 / 9 / 1500)
    assert abs(est.ft2 - 2 / 3) < margin
    assert abs(est.fc2 - 2 / 3) < margin
    assert abs(est.gap) < 4 * max(est.gap_se, 1e-9)


@pytest.mark.parametrize(
    "shape, attack, samples, seed, want",
    [
        (
            (3, 3, 1),
            single_pauli_attack({(0, 1): "Z", (1, 4): "Y", (2, 6): "X"}),
            400,
            61,
            (0.655, 0.645, 0.010000000000000009, 0.023798180255192765,
             0.023955629410456487, 0.04188239890868078, 400),
        ),
        (
            (5, 3, 2),
            AttackSpec(pauli_terms=(
                (0.25, (((0, 3), "Z"), ((2, 7), "Y"))),
                (0.75, (((1, 6), "Z"), ((3, 8), "X"), ((4, 2), "Z"))),
            )),
            300,
            62,
            (0.5166666666666667, 0.7366666666666667, -0.21999999999999997,
             0.028899677829858923, 0.025471401031969185, 0.04522703781846403, 300),
        ),
    ],
    ids=["3x3-one-term", "5x3-kappa2-mixture"],
)
def test_gap_estimate_is_pinned(shape, attack, samples, seed, want):
    """Seeded estimates equal those recorded when engine 4 was
    introduced, after the frame-versus-dense and exact-distribution
    tests passed."""
    est = estimate_fidelity_gap(
        make_round_layout(*shape), attack, samples, rng_from(seed)
    )
    assert dataclasses.astuple(est) == pytest.approx(want, rel=1e-12, abs=0)


def test_gap_estimate_validation(layout33):
    with pytest.raises(ValueError):
        estimate_fidelity_gap(layout33, None, 0, rng_from(0))


def test_gap_estimate_of_a_unitary_attack():
    """The trap-pass estimate of a random evolution, given as its mixture,
    lies within 4 standard errors of the mixture's exact acceptance."""
    layout = tiny_layout()
    unitary, private = JOINT_CASES["random-hermitian"]()
    attack = unitary_attack(layout, unitary, private)
    want, samples = _exact_mixture_accept(layout, attack), 4000
    est = estimate_fidelity_gap(layout, attack, samples, rng_from(4200))
    assert est.samples == samples
    assert abs(est.ft2 - want) < 4 * math.sqrt(want * (1 - want) / samples)


def test_honest_target_distribution_is_the_scattered_array():
    """Indexing by the correction involution gives, bit for bit, the
    scatter-add of the exact array through the correction map."""
    g = carve_target(5, 3)
    probs = exact_probability_array(g)
    want = np.zeros_like(probs)
    np.add.at(want, _correction_index_map(g), probs)
    assert list(honest_target_distribution(g).probs.values()) == want.tolist()


def test_honest_target_distribution_uniform(layout33):
    dist = honest_target_distribution(layout33.target)
    assert len(dist.probs) == 128
    for p in dist.probs.values():
        assert abs(p - 1 / 128) <= 1e-12
