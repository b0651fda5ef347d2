"""Exact-rational gap combinatorics and the scheme-parameter calculators."""
from __future__ import annotations

import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from trapver.bounds import (
    AttackClass,
    DegenerateNoiseError,
    RepetitionRangeError,
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

from helpers import max_attack_gap

FROZEN_DELTAS = {
    1: Fraction(1, 3),
    2: Fraction(1, 10),
    3: Fraction(1, 35),
    4: Fraction(1, 126),
    5: Fraction(1, 462),
    6: Fraction(1, 1716),
    7: Fraction(1, 6435),
    8: Fraction(1, 24310),
}


def test_delta_kappa_frozen_values():
    for k, want in FROZEN_DELTAS.items():
        assert delta_kappa(k) == want


def test_delta_kappa_equals_central_binomial_route():
    # delta_kappa takes 1/C(2kappa+1, kappa); the factorial route is the
    # independent one: kappa!(kappa+1)!/(2kappa+1)!
    for k in [*range(1, 13), 40, 300]:
        want = Fraction(math.factorial(k) * math.factorial(k + 1), math.factorial(2 * k + 1))
        assert delta_kappa(k) == want


def test_delta_kappa_decreasing_and_bounded():
    vals = [delta_kappa(k) for k in range(1, 9)]
    assert vals[0] == Fraction(1, 3)
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_delta_kappa_rejects_zero():
    with pytest.raises(ValueError):
        delta_kappa(0)


# -- attack classes -----------------------------------------------------------


def test_class_normalizes_parity_swap():
    assert AttackClass(kappa=2, lam=3, xi=1).xi == 2
    assert AttackClass(kappa=2, lam=3, xi=2).xi == 2


def test_class_validation():
    with pytest.raises(ValueError):
        AttackClass(kappa=0, lam=1, xi=1)
    with pytest.raises(ValueError):
        AttackClass(kappa=1, lam=4, xi=2)
    with pytest.raises(ValueError):
        AttackClass(kappa=1, lam=0, xi=0)
    with pytest.raises(ValueError):
        AttackClass(kappa=1, lam=3, xi=3)  # all-rounds forces xi = kappa+1
    with pytest.raises(ValueError):
        AttackClass(kappa=2, lam=4, xi=4)  # one parity only has 2 slots


def test_class_census():
    k1 = [(a.lam, a.xi) for a in valid_attack_classes(1)]
    assert k1 == [(1, 1), (2, 1), (3, 2)]
    k2 = [(a.lam, a.xi) for a in valid_attack_classes(2)]
    assert k2 == [(1, 1), (2, 2), (2, 1), (3, 2), (4, 2), (5, 3)]
    # general census: normalized (xi >= lam-xi) placements plus all-rounds
    for k in range(1, 7):
        got = len(list(valid_attack_classes(k)))
        want = 1 + sum(
            1
            for lam in range(1, 2 * k + 1)
            for xi in range((lam + 1) // 2, min(lam, k) + 1)
            if lam - xi <= k
        )
        assert got == want


def test_attack_gap_single_round():
    ft, fc2, gap = attack_gap(AttackClass(kappa=1, lam=1, xi=1))
    assert (ft, fc2, gap) == (Fraction(1, 2), Fraction(2, 3), Fraction(-1, 6))


def test_attack_gap_all_rounds_special_case():
    ft, fc2, gap = attack_gap(AttackClass(kappa=1, lam=3, xi=2))
    assert (ft, fc2, gap) == (Fraction(1, 3), Fraction(0), Fraction(1, 3))
    for k in range(1, 9):
        a = AttackClass(kappa=k, lam=2 * k + 1, xi=k + 1)
        assert attack_gap(a) == (delta_kappa(k), Fraction(0), delta_kappa(k))


def test_attack_gap_two_round_kappa2_nonpositive():
    ft, fc2, gap = attack_gap(AttackClass(kappa=2, lam=2, xi=1))
    assert ft == Fraction(2, 5)
    assert fc2 == Fraction(3, 5)
    assert gap == Fraction(-1, 5) <= 0


def _enumerated_rates(attacked):
    """Exhaustive kappa=1 ground truth: place (target, even, odd) in the
    three rounds every possible way; an attack entry (slot, parity) kills
    the trap iff that slot holds the named parity cell, and misses the
    computation iff the slot does not hold the target."""
    layouts = list(itertools.permutations(["target", "even", "odd"]))
    survive = sum(
        1
        for lay in layouts
        if not any(lay[slot] == parity for slot, parity in attacked)
    )
    escape = sum(
        1
        for lay in layouts
        if all(lay[slot] != "target" for slot, _ in attacked)
    )
    n = len(layouts)
    return Fraction(survive, n), Fraction(escape, n)


def test_two_round_kappa1_gap_is_positive():
    """Regression pin: the (kappa=1, lam=2, xi=1) class has gap +1/6.

    The nonpositivity claim for lam <= 2*kappa fails on this one class:
    both the closed forms and an exhaustive enumeration over all
    six round layouts give trap-pass 1/2 vs escape 1/3.  The acceptance
    checks that assert the claim wholesale are expected to go red on it;
    this test pins the actual value so any drift is caught.
    """
    ft, fc2, gap = attack_gap(AttackClass(kappa=1, lam=2, xi=1))
    assert (ft, fc2, gap) == (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6))

    survive, escape = _enumerated_rates([(0, "even"), (1, "odd")])
    assert survive == Fraction(1, 2)
    assert escape == Fraction(1, 3)
    assert survive - escape == gap


def test_enumeration_agrees_with_formulas_on_other_kappa1_classes():
    survive, escape = _enumerated_rates([(0, "even")])
    assert survive == Fraction(2, 3) and escape == Fraction(2, 3)

    survive, escape = _enumerated_rates(
        [(0, "even"), (1, "even"), (2, "odd")]
    )
    assert survive == Fraction(1, 3) and escape == Fraction(0)
    assert survive - escape == delta_kappa(1)


def test_max_gap_equals_delta():
    for k in range(1, 9):
        assert max_attack_gap(k) == delta_kappa(k)


def test_partial_attack_sign_for_kappa_at_least_two():
    # lam <= 2*kappa nonpositivity holds from kappa = 2 on; kappa = 1 has
    # exactly one violating class (pinned above).
    for k in range(2, 9):
        for a in valid_attack_classes(k):
            if a.lam <= 2 * k:
                assert attack_gap(a)[2] <= 0, (k, a.lam, a.xi)
    violators = [
        (a.lam, a.xi)
        for a in valid_attack_classes(1)
        if a.lam <= 2 and attack_gap(a)[2] > 0
    ]
    assert violators == [(2, 1)]


# -- scheme parameters --------------------------------------------------------


def test_theorem1_frozen_example():
    p = theorem1_params(n_qubits=9, kappa=1, eps_v=0.001, eps_p=0.001, beta=0.05)
    assert p.m == 4624
    assert p.m_real == pytest.approx(4623.043632027764, rel=1e-12)
    assert p.l == pytest.approx(0.946, rel=1e-12)
    assert p.completeness[0] == pytest.approx(0.95, rel=1e-12)
    assert p.completeness[1] == pytest.approx(0.8102633403898972, rel=1e-12)
    assert p.soundness[1] == pytest.approx(0.6366579406033772, rel=1e-12)
    assert not p.out_of_regime


def test_theorem1_monotone_in_noise_and_confidence():
    base = theorem1_params(9, 1, 0.001, 0.001, 0.05)
    noisier = theorem1_params(9, 1, 0.002, 0.001, 0.05)
    assert noisier.m_real < base.m_real
    laxer = theorem1_params(9, 1, 0.001, 0.001, 0.2)
    assert laxer.m_real < base.m_real


def test_theorem1_out_of_regime_flag_and_raw():
    p = theorem1_params(9, 1, 0.1, 0.1, 0.05)
    assert p.out_of_regime
    assert p.l == 0.0
    assert p.raw["l"] == pytest.approx(1 - 9 * 0.6, rel=1e-12)
    assert p.soundness[1] == 1.0  # clamped; raw radicand kept
    assert p.raw["radicand_soundness"] > 1


def test_theorem1_degenerate_noise():
    with pytest.raises(DegenerateNoiseError):
        theorem1_params(9, 1, 0.0, 0.0, 0.05)
    with pytest.raises(ValueError):
        theorem1_params(9, 1, 0.001, 0.001, 1.0)
    with pytest.raises(ValueError):
        theorem1_params(0, 1, 0.001, 0.001, 0.05)


def test_theorem2_frozen_example():
    p = theorem2_params(eps2=0.01, kappa=2, beta=0.05)
    assert p.m == 14979
    assert p.m_real == pytest.approx(14978.661367769953, rel=1e-12)
    assert p.l == pytest.approx(0.98, rel=1e-12)
    assert p.completeness[1] == pytest.approx(0.9, rel=1e-12)
    assert p.soundness[1] == pytest.approx(0.36055512754639896, rel=1e-12)


def test_theorem2_domain():
    with pytest.raises(ValueError):
        theorem2_params(0.0, 1, 0.05)
    with pytest.raises(ValueError):
        theorem2_params(0.01, 0, 0.05)


def test_theorems_take_ln_one_over_beta_as_minus_ln_beta():
    """A subnormal β has no finite 1/β, yet −ln β is about 737: both
    calculators give a finite M, exactly −ln β over their denominators."""
    beta = 1e-320
    p1 = theorem1_params(5, 1, 0.001, 0.0, beta)
    assert p1.m_real == -math.log(beta) / (2 * 25 * 0.001**2)
    assert p1.m == math.ceil(p1.m_real)
    p2 = theorem2_params(0.001, 1, beta)
    assert p2.m_real == -math.log(beta) / (2 * 0.001**2)


@pytest.mark.parametrize(
    "theorem, args, way",
    [
        (theorem1_params, (5, 1, 1e200, 0.0, 0.05), "underflows to 0"),
        (theorem1_params, (5, 1, 1e-300, 0.0, 0.05), "overflows the float range"),
        (theorem2_params, (1e-300, 1, 0.05), "overflows the float range"),
    ],
    ids=["thm1-margin-overflows", "thm1-margin-underflows", "thm2-margin-underflows"],
)
def test_theorems_refuse_an_m_outside_the_float_range(theorem, args, way):
    """Where the margin squared overflows, M would round to 0; where it
    rounds to 0, M would be infinite.  Either is refused by name."""
    with pytest.raises(RepetitionRangeError, match=f"repetition count M {way}"):
        theorem(*args)


def test_soundness_radicands_add_the_float_of_exact_delta():
    """Across the switch to the underflow shortcut (the float of Δ_κ is 0.0
    from κ = 540 on), each soundness radicand is bit for bit the formula
    with float(delta_kappa(κ)) added."""
    for k in range(1, 601):
        delta = float(delta_kappa(k))
        rad1 = theorem1_params(9, k, 0.001, 0.002, 0.05).raw["radicand_soundness"]
        assert rad1 == k * 9 * (3 * 0.001 + 5 * 0.002) + delta, k
        rad2 = theorem2_params(0.01, k, 0.05).raw["radicand_soundness"]
        assert rad2 == 3 * 0.01 + delta, k


def test_theorem_params_at_huge_kappa_are_immediate():
    """κ = 10^8 would need (2κ+1)! exactly; the float of Δ_κ is 0.0 there,
    and both calculators return within a second."""
    started = time.perf_counter()
    p1 = theorem1_params(20, 10**8, 1e-3, 1e-3, 0.05)
    p2 = theorem2_params(0.01, 10**8, 0.05)
    assert time.perf_counter() - started < 1.0
    assert p1.raw["radicand_soundness"] == 10**8 * 20 * (3e-3 + 5e-3)
    assert p2.raw["radicand_soundness"] == 3 * 0.01


def test_theorem3_frozen_example():
    b = theorem3_epsilon(0.1, 0.2, 0.9, 0.9, 10)
    assert b.feasible
    assert b.value == pytest.approx(0.007990234375, rel=1e-12)


def test_theorem3_limit_and_infeasibility():
    b = theorem3_epsilon(1.0, 1.0, 1.0, 1.0, 60)
    assert b.feasible
    assert abs(b.value - 0.5) <= 1e-12
    assert not theorem3_epsilon(1.0, 1.0, 0.5, 0.4, 10).feasible
    with pytest.raises(ValueError):
        theorem3_epsilon(1.5, 1.0, 1.0, 1.0, 10)
    with pytest.raises(ValueError):
        theorem3_epsilon(1.0, 1.0, 1.0, 1.0, 0)


# -- twirl oracle -------------------------------------------------------------


def rng_from(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def random_density(n: int, rng: np.random.Generator) -> np.ndarray:
    a = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def test_pauli_matrix_letter_order():
    z = np.diag([1, -1]).astype(complex)
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    np.testing.assert_array_equal(pauli_matrix("XZ"), np.kron(z, x))
    with pytest.raises(ValueError):
        pauli_matrix("XQ")


def test_twirl_kills_distinct_words_spot():
    rho = np.array([[1, 0], [0, 0]], dtype=complex)
    assert twirl_check(1, "X", "Z", rho, "full") <= 1e-12
    rng = rng_from(17)
    rho2 = random_density(2, rng)
    assert twirl_check(2, "XI", "XX", rho2, "z_only") <= 1e-12
    assert twirl_check(2, "IY", "ZY", rho2, "full") <= 1e-12


def test_twirl_identical_words_full_basis():
    rng = rng_from(3)
    for n in (1, 2):
        words = ["".join(w) for w in itertools.product("IXYZ", repeat=n)]
        for q in words:
            rho = random_density(n, rng)
            got = twirl_sum(n, q, q, rho, "full")
            qm = pauli_matrix(q)
            want = 4**n * (qm @ rho @ qm)
            assert np.linalg.norm(got - want) <= 1e-10


def test_twirl_input_validation():
    rho = np.eye(2, dtype=complex) / 2
    with pytest.raises(ValueError, match="capped"):
        twirl_check(4, "XXXX", "XXXX", np.eye(16) / 16)
    with pytest.raises(ValueError):
        twirl_check(1, "XX", "X", rho)
    with pytest.raises(ValueError):
        twirl_check(2, "XI", "XX", rho, "z_only")  # 2-qubit words, 1-qubit rho
    with pytest.raises(ValueError, match="I and X"):
        twirl_check(1, "Z", "X", rho, "z_only")
    with pytest.raises(ValueError, match="basis"):
        twirl_check(1, "X", "X", rho, "diagonal")
