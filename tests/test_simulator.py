"""State-vector operations, exact enumeration, and the spin-sum oracle."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trapver.graphs import (
    ROLE_COMPUTATIONAL,
    ROLE_TRAP,
    GraphSpec,
    carve_target,
    k_to_radians,
)
from trapver.simulator import (
    Distribution,
    IsingInstance,
    NoiseModel,
    QubitCapError,
    _induced_components,
    bits_to_string,
    component_probabilities,
    component_probability_rows,
    exact_output_distribution,
    exact_probability_array,
    fwht_inplace,
    ising_partition_probability,
    string_to_bits,
)

from helpers import density_matrix, empirical_distribution, tv_distance
from oracle import (
    StateVector,
    fwht_per_stage_copy,
    apply_cz,
    apply_pauli,
    apply_phase,
    measure_xy,
    neighbor_dummy_parity,
    prepare_qubit,
    tensor,
)

RT2 = 1 / math.sqrt(2)


def rng_from(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def random_state(n: int, rng: np.random.Generator) -> StateVector:
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return StateVector(n=n, amps=amps / np.linalg.norm(amps))


# -- preparations -----------------------------------------------------------


def test_plus_theta_zero_is_plus():
    s = prepare_qubit("plus_theta", 0.0)
    np.testing.assert_allclose(s.amps, [RT2, RT2], atol=1e-15)


def test_dummy_one():
    np.testing.assert_array_equal(prepare_qubit("dummy", 1).amps, [0, 1])


def test_z_flipped_plus_substitution():
    s = prepare_qubit("z_flipped_plus", math.pi / 8, 1)
    want = np.array([RT2, RT2 * np.exp(1j * (math.pi / 8 + math.pi))])
    np.testing.assert_allclose(s.amps, want, atol=1e-15)


def test_z_flipped_plus_zero_parity_is_plain():
    a = prepare_qubit("z_flipped_plus", math.pi / 4, 0).amps
    b = prepare_qubit("plus_theta", math.pi / 4).amps
    np.testing.assert_allclose(a, b, atol=1e-15)


def test_prepare_rejects_bad_inputs():
    with pytest.raises(ValueError):
        prepare_qubit("plus_theta", 0.3)
    with pytest.raises(ValueError):
        prepare_qubit("dummy", 2)
    with pytest.raises(ValueError):
        prepare_qubit("bell")


def test_tensor_orders_first_state_lowest():
    s = tensor([prepare_qubit("dummy", 0), prepare_qubit("dummy", 1)])
    # qubit 0 = |0>, qubit 1 = |1> -> index 0b10
    np.testing.assert_array_equal(s.amps, [0, 0, 1, 0])


def test_tensor_enforces_cap():
    with pytest.raises(QubitCapError):
        tensor([prepare_qubit("dummy", 0)] * 4, cap=3)


def test_state_vector_rejects_wrong_shape():
    with pytest.raises(ValueError, match="shape"):
        StateVector(n=2, amps=np.ones(3))


# -- gates ------------------------------------------------------------------


def test_cz_flips_sign_of_11():
    s = tensor([prepare_qubit("dummy", 1), prepare_qubit("dummy", 1)])
    apply_cz(s, 0, 1)
    np.testing.assert_array_equal(s.amps, [0, 0, 0, -1])


def test_cz_inert_on_zero_control():
    s = tensor([prepare_qubit("plus_theta", 0.0), prepare_qubit("dummy", 0)])
    before = s.amps.copy()
    apply_cz(s, 0, 1)
    np.testing.assert_array_equal(s.amps, before)


def test_cz_squares_to_identity():
    rng = rng_from(7)
    for _ in range(20):
        s = random_state(3, rng)
        before = s.amps.copy()
        i, j = rng.choice(3, size=2, replace=False)
        apply_cz(s, int(i), int(j))
        apply_cz(s, int(i), int(j))
        assert np.max(np.abs(s.amps - before)) <= 1e-12


def test_cz_rejects_bad_indices():
    s = random_state(2, rng_from(0))
    with pytest.raises(ValueError):
        apply_cz(s, 1, 1)
    with pytest.raises(IndexError):
        apply_cz(s, 0, 2)


def test_pauli_actions():
    z = prepare_qubit("plus_theta", 0.0)
    apply_pauli(z, 0, "Z")
    np.testing.assert_allclose(z.amps, [RT2, -RT2], atol=1e-15)

    x = prepare_qubit("dummy", 0)
    apply_pauli(x, 0, "X")
    np.testing.assert_array_equal(x.amps, [0, 1])

    y = prepare_qubit("dummy", 0)
    apply_pauli(y, 0, "Y")
    np.testing.assert_allclose(y.amps, [0, 1j], atol=1e-15)

    with pytest.raises(ValueError, match="Pauli"):
        apply_pauli(prepare_qubit("dummy", 0), 0, "Q")


def test_phase_gate_makes_minus():
    s = prepare_qubit("plus_theta", 0.0)
    apply_phase(s, 0, math.pi)
    np.testing.assert_allclose(s.amps, [RT2, -RT2], atol=1e-15)


# -- measurement ------------------------------------------------------------


def test_measure_eigenstate_deterministic():
    for seed in range(25):
        bit, rest = measure_xy(prepare_qubit("plus_theta", 0.0), 0, 0.0, rng_from(seed))
        assert bit == 0 and rest.n == 0
        bit, _ = measure_xy(prepare_qubit("plus_theta", 0.0), 0, math.pi, rng_from(seed))
        assert bit == 1


def test_measure_unbiased_basis():
    rng = rng_from(3)
    hits = sum(
        measure_xy(prepare_qubit("plus_theta", math.pi / 2), 0, 0.0, rng)[0]
        for _ in range(20_000)
    )
    assert abs(hits / 20_000 - 0.5) < 0.015


def test_measure_probability_cosine_law():
    # P(0) for |+_theta> read at delta is cos^2((theta-delta)/2)
    rng = rng_from(11)
    ones = sum(
        measure_xy(prepare_qubit("plus_theta", math.pi / 8), 0, 0.0, rng)[0]
        for _ in range(20_000)
    )
    want = 1 - math.cos(math.pi / 16) ** 2
    assert abs(ones / 20_000 - want) < 0.01


def test_measure_factors_out_product_state():
    rng = rng_from(5)
    keep = random_state(2, rng)
    s = tensor([prepare_qubit("plus_theta", 0.0), StateVector(2, keep.amps.copy())])
    _, rest = measure_xy(s, 0, 0.0, rng)
    overlap = abs(np.vdot(rest.amps, keep.amps))
    assert abs(overlap - 1) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), k=st.integers(0, 15))
def test_post_measurement_state_is_normalized(seed, k):
    rng = rng_from(seed)
    s = random_state(3, rng)
    _, rest = measure_xy(s, 1, k * math.pi / 8, rng)
    assert abs(rest.norm_sq() - 1) <= 1e-12


# -- noise ------------------------------------------------------------------


def test_noise_model_validation():
    assert NoiseModel().is_noiseless()
    assert not NoiseModel(eps_p=0.1).is_noiseless()
    with pytest.raises(ValueError):
        NoiseModel(eps_v=1.0)
    with pytest.raises(ValueError):
        NoiseModel(mix={"X": 0.7, "Z": 0.7})
    with pytest.raises(ValueError):
        NoiseModel(mix={"X": -0.5, "Z": 1.5})
    with pytest.raises(ValueError):
        NoiseModel(mix={"H": 1.0})


def test_noise_channel_is_unital():
    """Any event mixture fixes the maximally mixed state.

    Enumerate the channel branches exactly instead of sampling: identity
    with weight 1-eps, each Pauli with weight eps*w, input I/2 expanded
    over the computational basis.
    """
    eps = 0.3
    mix = {"X": 0.5, "Y": 0.2, "Z": 0.3}
    out = np.zeros((2, 2), dtype=complex)
    for b in (0, 1):
        inp = prepare_qubit("dummy", b)
        out += 0.5 * (1 - eps) * density_matrix(inp)
        for letter, w in mix.items():
            branch = prepare_qubit("dummy", b)
            apply_pauli(branch, 0, letter)
            out += 0.5 * eps * w * density_matrix(branch)
    np.testing.assert_allclose(out, np.eye(2) / 2, atol=1e-15)


# -- distributions ----------------------------------------------------------


def test_distribution_validation():
    Distribution(1, {"0": 0.5, "1": 0.5})
    with pytest.raises(ValueError, match="sum"):
        Distribution(1, {"0": 0.6, "1": 0.6})
    with pytest.raises(ValueError, match="malformed"):
        Distribution(1, {"00": 1.0})
    with pytest.raises(ValueError, match="negative"):
        Distribution(1, {"0": 1.5, "1": -0.5})


def test_tv_distance_cases():
    p = Distribution(1, {"0": 0.5, "1": 0.5})
    assert tv_distance(p, p) == 0
    q0 = Distribution(1, {"0": 1.0})
    q1 = Distribution(1, {"1": 1.0})
    assert tv_distance(q0, q1) == 1
    assert abs(tv_distance(p, q0) - 0.5) <= 1e-15
    with pytest.raises(ValueError):
        tv_distance(p, Distribution(2, {"00": 1.0}))


def test_empirical_distribution_counts():
    d = empirical_distribution(["01", "01", "11", "01"])
    assert d.nbits == 2
    assert abs(d.probs["01"] - 0.75) <= 1e-15
    assert abs(d.probs["11"] - 0.25) <= 1e-15


def test_bit_string_convention():
    # leftmost character is qubit 0
    assert bits_to_string(1, 3) == "100"
    assert bits_to_string(4, 3) == "001"
    assert string_to_bits("100") == 1
    for i in range(16):
        assert string_to_bits(bits_to_string(i, 4)) == i


def test_fwht_involution_and_delta():
    rng = rng_from(2)
    a = rng.normal(size=8) + 1j * rng.normal(size=8)
    twice = a.copy()
    fwht_inplace(twice)
    fwht_inplace(twice)
    np.testing.assert_allclose(twice, 8 * a, atol=1e-12)

    delta = np.zeros(4, dtype=complex)
    delta[0] = 1
    fwht_inplace(delta)
    np.testing.assert_array_equal(delta, np.ones(4))


def test_fwht_transforms_each_row():
    rng = rng_from(3)
    rows = rng.normal(size=(5, 16)) + 1j * rng.normal(size=(5, 16))
    one_by_one = rows.copy()
    for row in one_by_one:
        fwht_inplace(row)
    fwht_inplace(rows)
    np.testing.assert_array_equal(rows, one_by_one)


@pytest.mark.parametrize(
    "shape", [(3, 2**c) for c in range(13)] + [(2**20,)], ids=str
)
def test_fwht_matches_the_per_stage_copy_route(shape):
    """The one-scratch kernel gives every bit the per-stage-copy kernel
    gives, on stacks of 2^0 to 2^12 columns and on one 2^20 row."""
    rng = rng_from(sum(shape))
    a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    want = a.copy()
    fwht_per_stage_copy(want)
    fwht_inplace(a)
    assert np.array_equal(a.view(np.uint64), want.view(np.uint64))


def _one_setting_probabilities(vertices, edges, angles) -> np.ndarray:
    """`component_probabilities` as it was before angle settings were
    stacked: a one-dimensional doubling fill, WHT and squared modulus."""
    c = len(vertices)
    pos = {v: j for j, v in enumerate(vertices)}
    earlier: list[list[int]] = [[] for _ in range(c)]
    for a, b in edges:
        lo, hi = sorted((pos[a], pos[b]))
        earlier[hi].append(lo)
    f = np.empty(2**c, dtype=np.complex128)
    f[0] = 1.0
    for j, v in enumerate(vertices):
        upper = f[2**j : 2 ** (j + 1)]
        np.multiply(f[: 2**j], np.exp(-1j * angles[v]), out=upper)
        for lo in earlier[j]:
            upper.reshape(-1, 2, 2**lo)[:, 1, :] *= -1
    fwht_inplace(f)
    parts = f.view(np.float64).reshape(-1, 2)
    np.square(parts, out=parts)
    probs = np.add(parts[:, 0], parts[:, 1])
    probs *= 0.25**c
    return probs


@pytest.mark.parametrize("m", [3, 5, 9])
def test_stacked_probabilities_equal_one_setting_at_a_time(m):
    """Bit for bit, not within a tolerance: every multi-cell component of
    the m x 3 target at random grid-angle rows, stacked, equals
    `component_probabilities` and the one-dimensional kernel row by row,
    so a stacked recompute draws exactly what a lone one did."""
    g = carve_target(m, 3)
    rng = rng_from(40 + m)
    phase = np.array([np.exp(-1j * k_to_radians(k)) for k in range(16)])
    multi = [comp for comp in _induced_components(g) if len(comp) > 1]
    assert multi
    for comp in multi:
        edges = [e for e in g.induced_edges() if e[0] in comp]
        k = rng.integers(0, 16, size=(2 if len(comp) > 16 else 24, len(comp)))
        stacked = component_probability_rows(comp, edges, phase[k])
        for row, probs in zip(k.tolist(), stacked):
            angles = {v: k_to_radians(kv) for v, kv in zip(comp, row)}
            assert np.array_equal(probs, component_probabilities(comp, edges, angles))
            assert np.array_equal(probs, _one_setting_probabilities(comp, edges, angles))


# -- exact enumeration ------------------------------------------------------


def test_single_trap_vertex_is_deterministic():
    g = GraphSpec(1, 1, (ROLE_TRAP,), (0,), ())
    dist = exact_output_distribution(g, {0: 0.0})
    assert dist.probs["0"] == 1.0
    assert dist.probs.get("1", 0.0) == 0.0


def test_two_vertex_chain_uniform():
    g = GraphSpec(2, 1, (ROLE_COMPUTATIONAL,) * 2, (0, 0), ((0, 1),))
    dist = exact_output_distribution(g, {0: 0.0, 1: 0.0})
    assert set(dist.probs) == {"00", "01", "10", "11"}
    for p in dist.probs.values():
        assert abs(p - 0.25) <= 1e-12


@settings(max_examples=20, deadline=None)
@given(
    m=st.integers(2, 3),
    n=st.integers(1, 3),
    seed=st.integers(0, 999),
)
def test_exact_probabilities_sum_to_one(m, n, seed):
    g = GraphSpec(
        m, n, (ROLE_COMPUTATIONAL,) * (m * n),
        tuple(int(k) for k in rng_from(seed).integers(0, 16, size=m * n)),
        tuple((a, b) for a, b in __import__("trapver.graphs", fromlist=["lattice_edges"]).lattice_edges(m, n)),
    )
    angles = {v: g.phi_k[v] * math.pi / 8 for v in range(m * n)}
    probs = exact_probability_array(g, angles)
    assert abs(probs.sum() - 1) <= 1e-10
    assert probs.min() >= -1e-15


def test_exact_enumeration_respects_cap():
    g = carve_target(3, 3)
    with pytest.raises(QubitCapError):
        exact_probability_array(g, g.base_angles(), cap=3)


def test_exact_requires_angle_per_vertex():
    g = carve_target(3, 3)
    with pytest.raises(ValueError):
        exact_probability_array(g, {0: 0.0})


def test_carving_equivalence_dense_vs_induced():
    """Severed full-lattice simulation equals the direct induced build.

    Route A prepares all nine cells (dummies in their basis states),
    entangles every lattice edge, and slices the dummy axes at the dummy
    values.  Route B builds only surviving vertices with the dummy-parity
    pre-flip and entangles the induced edges.  Overlap must be 1 up to
    global phase.
    """
    g = carve_target(3, 3)
    rng = rng_from(13)
    for _ in range(6):
        d_bits = {v: int(rng.integers(0, 2)) for v in g.dummy_ids()}

        full = tensor(
            [
                prepare_qubit("dummy", d_bits[v])
                if g.is_dummy(v)
                else prepare_qubit("plus_theta", 0.0)
                for v in range(9)
            ]
        )
        for a, b in g.edges:
            apply_cz(full, a, b)
        cube = full.amps.reshape((2,) * 9)  # axis a holds qubit 8-a
        index = [slice(None)] * 9
        for v in g.dummy_ids():
            index[8 - v] = d_bits[v]
        reduced = cube[tuple(index)].reshape(-1)

        parities = neighbor_dummy_parity(g, [d_bits[v] for v in g.dummy_ids()])
        direct = tensor(
            [
                prepare_qubit("z_flipped_plus", 0.0, parities[v])
                for v in g.non_dummy_ids()
            ]
        )
        pos = {v: i for i, v in enumerate(g.non_dummy_ids())}
        for a, b in g.induced_edges():
            apply_cz(direct, pos[a], pos[b])

        overlap = abs(np.vdot(reduced, direct.amps))
        assert abs(overlap - 1) <= 1e-12


def test_bridge_equivalence_against_contracted_graph():
    """Connector machinery reproduces the contracted graph's distribution.

    Route A: the carved target (connector at angle pi/2, quarter-turn
    already folded into its neighbors), corrected by the connector flip
    rule.  Route B: connector deleted, neighbors joined directly, original
    chain angles.  TV must vanish to numerical precision.
    """
    g = carve_target(3, 3)
    probs = exact_probability_array(g, g.base_angles())
    nd = g.non_dummy_ids()
    bridge_pos = nd.index(5)
    flip_positions = [nd.index(2), nd.index(8)]

    # marginalize route A over the connector bit, applying its flip rule
    merged = np.zeros(2 ** (len(nd) - 1))
    for idx, p in enumerate(probs):
        bridge_bit = (idx >> bridge_pos) & 1
        rest = 0
        out_bit = 0
        for j, v in enumerate(nd):
            if v == 5:
                continue
            bit = (idx >> j) & 1
            if bridge_bit and j in flip_positions:
                bit ^= 1
            rest |= bit << out_bit
            out_bit += 1
        merged[rest] += p

    contracted = component_probabilities(
        [0, 1, 2, 6, 7, 8],
        [(0, 1), (1, 2), (6, 7), (7, 8), (2, 8)],
        {0: 0.0, 1: math.pi / 8, 2: 0.0, 6: 0.0, 7: math.pi / 8, 8: 0.0},
    )
    assert 0.5 * np.abs(merged - contracted).sum() <= 1e-10


def test_blindness_of_preparation_average():
    avg = np.zeros((2, 2), dtype=complex)
    for k in range(16):
        avg += density_matrix(prepare_qubit("plus_theta", k * math.pi / 8))
    np.testing.assert_allclose(avg / 16, np.eye(2) / 2, atol=1e-12)


# -- spin-sum oracle ----------------------------------------------------------


def test_free_spin_outcomes():
    inst = IsingInstance(n=1, edges=(), couplings=(), fields=(0.0,))
    assert abs(ising_partition_probability(inst, "0") - 1) <= 1e-12
    assert abs(ising_partition_probability(inst, "1")) <= 1e-12
    assert abs(ising_partition_probability(inst, [1])) <= 1e-12


def test_instance_fields_from_carving():
    g = carve_target(3, 3)
    inst = IsingInstance.from_carved_graph(g, g.base_angles())
    assert inst.n == 7
    assert all(abs(j - math.pi / 4) <= 1e-15 for j in inst.couplings)
    # vertex 0 survives with one neighbor at angle 0: B = pi/4 - 0
    assert abs(inst.fields[0] - math.pi / 4) <= 1e-15
    # vertex 2 has degree 2 and angle pi/2: B = pi/2 - pi/4
    assert abs(inst.fields[2] - math.pi / 4) <= 1e-15


def test_spin_sum_matches_state_vector_route():
    g = carve_target(3, 3)
    angles = g.base_angles()
    probs = exact_probability_array(g, angles)
    inst = IsingInstance.from_carved_graph(g, angles)
    worst = max(
        abs(ising_partition_probability(inst, bits_to_string(x, 7)) - probs[x])
        for x in range(128)
    )
    assert worst <= 1e-10


def test_spin_sum_respects_cap():
    inst = IsingInstance(n=5, edges=(), couplings=(), fields=(0.0,) * 5)
    with pytest.raises(QubitCapError):
        ising_partition_probability(inst, "00000", cap=4)
