"""End-to-end acceptance gate, one numbered criterion per marker.

Every test pins the tolerance it was specified with.  Two of them assert
a combinatorial nonpositivity claim that is false on exactly one attack
class — two rounds touched on opposite parities with a single trap per
parity — and therefore fail; the exact rational value of that gap is
pinned in test_bounds.py::test_two_round_kappa1_gap_is_positive, and an
exhaustive layout enumeration there confirms the closed forms.  They
are left red on purpose: the checks state the claim, the claim is wrong
on that class, and weakening either would hide a real discrepancy.
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from trapver.bounds import (
    attack_gap,
    delta_kappa,
    pauli_matrix,
    theorem1_params,
    theorem2_params,
    theorem3_epsilon,
    twirl_check,
    twirl_sum,
    valid_attack_classes,
)
from trapver.ftcalc import detection_overhead, physical_threshold
from trapver.graphs import carve_target
from trapver.protocol import _BATCH, _run_batch, make_round_layout
from trapver.simulator import (
    bit_strings,
    exact_probability_array,
    index_bits,
)

from helpers import (
    array_distribution,
    density_matrix,
    empirical_distribution,
    max_attack_gap,
    single_pauli_attack,
    tv_distance,
)
from oracle import (
    IsingInstance,
    encrypt_angles,
    estimate_fidelity_gap,
    ising_partition_probability,
    keygen,
    prepare_qubit,
    radians,
    run_protocol,
)


def rng_from(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


# -- criterion 1: completeness at zero noise ---------------------------------


HONEST_RUNS = 100_000


@pytest.fixture(scope="module")
def honest_campaign():
    """10^5 honest runs on the smallest valid carving, one trap per parity.

    They are `run_protocol` calls on one generator, drawn as engine
    batches with its bit generator listed once per run: the batch serves
    each run the next block of the stream, as successive calls do.
    """
    layout = make_round_layout(3, 3, 1)
    rng = rng_from(901)
    accepts = 0
    outputs = []
    for start in range(0, HONEST_RUNS, _BATCH):
        size = min(_BATCH, HONEST_RUNS - start)
        batch = _run_batch(layout, None, None, [rng.bit_generator] * size)
        accepts += int(batch.accept.sum())
        outputs += batch.outputs
    return layout, accepts, outputs


@pytest.mark.criterion(1, "completeness at zero noise")
def test_honest_campaign_equals_one_run_at_a_time(honest_campaign):
    """The batched campaign is the `run_protocol` loop: its first 2000
    runs, which span a batch boundary, match the loop's records."""
    layout, _, outputs = honest_campaign
    rng, prefix = rng_from(901), 2000
    loop = [run_protocol(layout, None, None, rng) for _ in range(prefix)]
    batch = _run_batch(layout, None, None, [rng_from(901).bit_generator] * prefix)
    assert [r.to_json_dict() for r in batch] == [r.to_json_dict() for r in loop]
    assert outputs[:prefix] == [rec.target_output for rec in loop]


@pytest.mark.criterion(1, "completeness at zero noise")
def test_honest_acceptance_is_exact(honest_campaign):
    _, accepts, outputs = honest_campaign
    assert accepts == HONEST_RUNS, "an honest noiseless run tripped a trap"
    assert len(outputs) == HONEST_RUNS


@pytest.mark.criterion(1, "completeness at zero noise")
def test_honest_output_matches_exact_distribution(honest_campaign):
    layout, _, outputs = honest_campaign
    exact = array_distribution(exact_probability_array(layout.target))
    tv = tv_distance(empirical_distribution(outputs), exact)
    assert tv <= 0.02, f"TV {tv:.4f} exceeds the 0.02 budget at 10^5 runs"


# -- criterion 2: spin-sum oracle equivalence ---------------------------------


@pytest.mark.criterion(2, "spin-sum oracle equivalence")
def test_partition_sum_matches_state_vector_route():
    g = carve_target(5, 3)
    nd = g.non_dummy_ids()
    assert len(nd) == 12
    probs = exact_probability_array(g)
    inst = IsingInstance.from_carved_graph(g, radians(g))
    strings = bit_strings(index_bits(12))
    worst = max(
        abs(ising_partition_probability(inst, strings[x]) - probs[x])
        for x in range(4096)
    )
    assert worst <= 1e-10, f"max deviation {worst:.2e} over 4096 strings"


# -- criterion 3: exact gap combinatorics -------------------------------------


@pytest.mark.criterion(3, "exact gap identity and sign")
def test_max_gap_identity():
    for k in range(1, 9):
        want = Fraction(
            math.factorial(k) * math.factorial(k + 1),
            math.factorial(2 * k + 1),
        )
        assert delta_kappa(k) == want
        assert max_attack_gap(k) == want, f"kappa={k}"


@pytest.mark.criterion(3, "exact gap identity and sign")
def test_partial_attack_gap_is_nonpositive():
    """Expected red: the sign claim fails on one class.

    With one trap per parity, attacking two rounds on opposite parities
    gives a strictly positive gap (+1/6, exact-rational and confirmed by
    exhaustive layout enumeration in the bounds tests).  Every other
    class with fewer than all rounds attacked satisfies the claim.
    """
    violations = [
        (a.kappa, a.lam, a.xi, attack_gap(a)[2])
        for k in range(1, 9)
        for a in valid_attack_classes(k)
        if a.lam <= 2 * k and attack_gap(a)[2] > 0
    ]
    assert not violations, (
        f"nonpositivity claim fails on {violations}; "
        "see test_bounds.py::test_two_round_kappa1_gap_is_positive"
    )


# -- criterion 4: empirical soundness ------------------------------------------


def estimated_gap(letters: dict, seed: int):
    layout = make_round_layout(3, 3, 1)
    return estimate_fidelity_gap(
        layout, single_pauli_attack(letters), 10_000, rng_from(seed)
    )


@pytest.mark.criterion(4, "empirical soundness at one trap per parity")
def test_all_rounds_attack_meets_the_bound():
    # optimal parity split: two rounds on even cells, one on odd
    est = estimated_gap({(0, 0): "Z", (1, 8): "Z", (2, 1): "Z"}, 811)
    margin = 3 * est.gap_se
    assert est.gap <= 1 / 3 + margin
    assert est.gap >= 1 / 3 - margin


@pytest.mark.criterion(4, "empirical soundness at one trap per parity")
def test_single_round_attack_gains_nothing():
    est = estimated_gap({(0, 0): "Z"}, 811)
    assert est.gap <= 3 * est.gap_se


@pytest.mark.criterion(4, "empirical soundness at one trap per parity")
def test_two_rounds_same_parity_gain_nothing():
    est = estimated_gap({(0, 0): "Z", (1, 2): "Z"}, 811)
    assert est.gap <= 3 * est.gap_se


@pytest.mark.criterion(4, "empirical soundness at one trap per parity")
def test_two_rounds_mixed_parity_gain_nothing():
    """Expected red: the measured gap sits at +1/6, far past 3 sigma.

    This is the empirical face of the exact-rational violation pinned in
    the bounds tests — the claim that partial attacks never gain is
    false for the opposite-parity two-round class.
    """
    est = estimated_gap({(0, 0): "Z", (1, 1): "Z"}, 811)
    assert est.gap <= 3 * est.gap_se, (
        f"gap {est.gap:+.4f} (se {est.gap_se:.4f}) is positive; "
        "exact value 1/6 — see "
        "test_bounds.py::test_two_round_kappa1_gap_is_positive"
    )


# -- criterion 5: fault-tolerance numbers ---------------------------------------


@pytest.mark.criterion(5, "fault-tolerance overhead numbers")
def test_reference_overhead_figures():
    thr = physical_threshold()
    assert abs(thr - 0.0196943) <= 1e-6

    m_real, _ = detection_overhead(thr / 100)
    assert abs(m_real - 54) <= 1

    m_real, _ = detection_overhead(thr / 50)
    assert abs(m_real - 2863) / 2863 <= 0.05

    # the reference value carries one significant figure; the formulas
    # give 3.79e8, within the stated factor-2 window
    m_real, _ = detection_overhead(thr / 20)
    assert 3e8 / 2 <= m_real <= 3e8 * 2


# -- criterion 6: conjugation-sum oracle ----------------------------------------


@pytest.mark.criterion(6, "conjugation-sum oracle")
def test_distinct_words_cancel_exhaustively():
    rng = rng_from(600)
    worst = 0.0
    for n in (1, 2):
        rhos = []
        for _ in range(100):
            a = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(
                size=(2**n, 2**n)
            )
            rho = a @ a.conj().T
            rhos.append(rho / np.trace(rho))
        full = ["".join(w) for w in itertools.product("IXYZ", repeat=n)]
        for q, qp in itertools.permutations(full, 2):
            for rho in rhos:
                worst = max(worst, twirl_check(n, q, qp, rho, "full"))
        zwords = ["".join(w) for w in itertools.product("IX", repeat=n)]
        for q, qp in itertools.permutations(zwords, 2):
            for rho in rhos:
                worst = max(worst, twirl_check(n, q, qp, rho, "z_only"))
    assert worst <= 1e-12, f"max residual {worst:.2e}"


@pytest.mark.criterion(6, "conjugation-sum oracle")
def test_identical_words_scale_as_group_size():
    rng = rng_from(601)
    for n in (1, 2):
        for q in ("".join(w) for w in itertools.product("IXYZ", repeat=n)):
            for _ in range(10):
                a = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(
                    size=(2**n, 2**n)
                )
                rho = a @ a.conj().T
                rho /= np.trace(rho)
                got = twirl_sum(n, q, q, rho, "full")
                qm = pauli_matrix(q)
                assert np.linalg.norm(got - 4**n * (qm @ rho @ qm)) <= 1e-10


# -- criterion 7: blindness of the transcript -----------------------------------


@pytest.mark.criterion(7, "blindness of the transcript")
def test_prepared_states_average_to_identity():
    for parity in (0, 1):
        avg = np.zeros((2, 2), dtype=complex)
        for k in range(16):
            avg += density_matrix(
                prepare_qubit("z_flipped_plus", k * math.pi / 8, parity)
            )
        assert np.abs(avg / 16 - np.eye(2) / 2).max() <= 1e-12


@pytest.mark.criterion(7, "blindness of the transcript")
def test_measurement_angle_marginals_are_uniform():
    layout = make_round_layout(3, 3, 1)
    rng = rng_from(702)
    counts = {
        (gi, v): np.zeros(16, dtype=int)
        for gi in range(3)
        for v in range(9)
    }
    for _ in range(10_000):
        key = keygen(layout, rng)
        deltas = encrypt_angles(key, layout)
        for gi in range(3):
            for v in range(9):
                counts[(gi, v)][deltas[gi][v]] += 1
    for (gi, v), hist in counts.items():
        p = stats.chisquare(hist).pvalue
        assert p >= 0.01, f"round {gi} cell {v}: chi-square p = {p:.4f}"


# -- criterion 8: parameter calculators ------------------------------------------


@pytest.mark.criterion(8, "parameter calculators")
def test_noise_rate_calculator_reproduces_hand_values():
    p = theorem1_params(
        n_qubits=9, kappa=1, eps_v=0.001, eps_p=0.001, beta=0.05
    )
    assert p.m == 4624
    assert p.m_real == pytest.approx(4623.043632027764, rel=1e-12)
    assert p.l == pytest.approx(0.946, rel=1e-12)
    assert p.soundness[1] == pytest.approx(0.6366579406033772, rel=1e-12)


@pytest.mark.criterion(8, "parameter calculators")
def test_gap_budget_calculator_reproduces_hand_values():
    p = theorem2_params(eps2=0.01, kappa=2, beta=0.05)
    assert p.m == 14979
    assert p.l == pytest.approx(0.98, rel=1e-12)
    assert p.soundness[1] == pytest.approx(0.36055512754639896, rel=1e-12)


@pytest.mark.criterion(8, "parameter calculators")
def test_hardness_budget_calculator():
    b = theorem3_epsilon(0.1, 0.2, 0.9, 0.9, 10)
    assert b.feasible
    assert b.value == pytest.approx(0.007990234375, rel=1e-12)
    big = theorem3_epsilon(1.0, 1.0, 1.0, 1.0, 60)
    assert abs(big.value - 0.5) <= 1e-12
    assert not theorem3_epsilon(1.0, 1.0, 0.5, 0.4, 10).feasible
