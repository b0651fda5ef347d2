"""Closed-form calculators for the verification guarantees.

Everything combinatorial is exact `fractions.Fraction` arithmetic — the
attack-gap inequality is a sign claim, and floating point has no business
deciding signs.  The scheme-parameter calculators are floating point but
substitute their defining formulas literally; see `SchemeParams.raw` for the
unclamped values when a parameter combination leaves the meaningful
regime.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache
from fractions import Fraction
from typing import Iterator, Mapping

import numpy as np


class DegenerateNoiseError(ValueError):
    """Zero total noise: the repetition-count formula is undefined."""


class RepetitionRangeError(ValueError):
    """The repetition count M rounds to 0 or beyond the float range."""


def delta_kappa(kappa: int) -> Fraction:
    """κ!(κ+1)!/(2κ+1)! = 1/C(2κ+1, κ), the irreducible gap of a
    κ-trap-per-parity round."""
    if kappa < 1:
        raise ValueError(f"kappa must be >= 1, got {kappa}")
    return Fraction(1, math.comb(2 * kappa + 1, kappa))


# ln 2^-1075, less a margin for lgamma's rounding: below it a value rounds
# to the float 0.0
_LOG_FLOAT_UNDERFLOW = -1075 * math.log(2) - 1


def _delta_kappa_float(kappa: int) -> float:
    """float(delta_kappa(kappa)), without building the factorials once an
    lgamma bound shows it underflows (it is 0.0 from kappa = 540 on).  Δ_κ
    falls as κ grows, so the bound at min(κ, 2^20) serves any larger κ."""
    k = min(kappa, 2**20)
    log_delta = math.lgamma(k + 1) + math.lgamma(k + 2) - math.lgamma(2 * k + 2)
    return 0.0 if log_delta < _LOG_FLOAT_UNDERFLOW else float(delta_kappa(kappa))


@dataclass(frozen=True)
class AttackClass:
    """One orbit of Pauli attacks: λ rounds touched, ξ of them on even
    trap positions.  ξ ≥ λ−ξ is normalized on construction by swapping
    the two parities."""

    kappa: int
    lam: int
    xi: int

    def __post_init__(self) -> None:
        if self.kappa < 1:
            raise ValueError(f"kappa must be >= 1, got {self.kappa}")
        if not 1 <= self.lam <= 2 * self.kappa + 1:
            raise ValueError(
                f"lam must lie in 1..{2 * self.kappa + 1}, got {self.lam}"
            )
        norm_xi = max(self.xi, self.lam - self.xi)
        object.__setattr__(self, "xi", norm_xi)
        if self.lam == 2 * self.kappa + 1:
            # Touching every round forces κ+1 on one parity.
            if norm_xi != self.kappa + 1:
                raise ValueError(
                    f"lam = {self.lam} requires xi = {self.kappa + 1} "
                    f"after normalization, got {norm_xi}"
                )
            return
        if norm_xi > self.kappa or self.lam - norm_xi > self.kappa:
            raise ValueError(
                f"no placement exists for kappa={self.kappa}, "
                f"lam={self.lam}, xi={norm_xi}"
            )
        if norm_xi < 0 or self.lam - norm_xi < 0:
            raise ValueError("xi out of range")


def valid_attack_classes(kappa: int) -> Iterator[AttackClass]:
    """Every normalized class, the all-rounds special case last."""
    if kappa < 1:
        raise ValueError(f"kappa must be >= 1, got {kappa}")
    for lam in range(1, 2 * kappa + 1):
        for xi in range(lam, -1, -1):
            if xi < lam - xi:
                break
            if xi <= kappa and lam - xi <= kappa:
                yield AttackClass(kappa=kappa, lam=lam, xi=xi)
    yield AttackClass(kappa=kappa, lam=2 * kappa + 1, xi=kappa + 1)


def attack_gap(a: AttackClass) -> tuple[Fraction, Fraction, Fraction]:
    """(trap-pass term, escape lower bound, their difference), exact.

    The general-λ branch evaluates the closed forms verbatim; the
    all-rounds branch returns the special-case triple.  Note the sign of
    the difference is an upstream claim, not something this function
    enforces — see the regression tests for the one class where the claim
    fails.
    """
    k, lam, xi = a.kappa, a.lam, a.xi
    if lam == 2 * k + 1:
        d = delta_kappa(k)
        return d, Fraction(0), d
    ft = Fraction(
        lam * math.comb(2 * k + 1 - lam, k - xi)
        + (2 * k + 1 - lam) * math.comb(2 * k - lam, k - xi),
        math.comb(2 * k + 1, k) * (k + 1),
    )
    fc2 = Fraction(2 * k + 1 - lam, 2 * k + 1)
    return ft, fc2, ft - fc2


@dataclass(frozen=True)
class SchemeParams:
    """Repetition count and thresholds for one scheme instantiation.

    Probability-like outputs are clamped to [0, 1]; `raw` keeps the
    unclamped formula values and `out_of_regime` flags any excursion
    (including a pass-fraction threshold below zero or a radicand above
    one), since the guarantees are vacuous outside the regime but the
    formulas still print.
    """

    m: int
    m_real: float
    l: float
    completeness: tuple[float, float]
    soundness: tuple[float, float]
    out_of_regime: bool
    raw: Mapping[str, float] = field(default_factory=dict)


def _repetitions(beta: float, scale: float, margin: float) -> float:
    """M before rounding up: ln(1/β)/(scale·margin²), with ln(1/β) taken as
    −ln β so that every β in (0, 1), subnormal ones included, counts.

    An M that rounds to 0 (margin² overflows) or leaves the float range
    (margin² rounds to 0) raises `RepetitionRangeError`.
    """
    try:
        m_real = -math.log(beta) / (scale * margin**2)
    except OverflowError:
        m_real = 0.0
    except ZeroDivisionError:
        m_real = math.inf
    if m_real == 0:
        raise RepetitionRangeError("the repetition count M underflows to 0")
    if math.isinf(m_real):
        raise RepetitionRangeError("the repetition count M overflows the float range")
    return m_real


def _clamp01(x: float) -> float:
    return min(1.0, max(0.0, x))


def _assemble_params(
    m_real: float,
    l_raw: float,
    confidence: float,
    completeness_raw: float,
    soundness_raw: float,
    radicands: Mapping[str, float],
) -> SchemeParams:
    out = l_raw < 0 or any(r > 1 for r in radicands.values())
    raw = {
        "m_real": m_real,
        "l": l_raw,
        "completeness": completeness_raw,
        "soundness": soundness_raw,
        **{f"radicand_{k}": v for k, v in radicands.items()},
    }
    return SchemeParams(
        m=math.ceil(m_real),
        m_real=m_real,
        l=_clamp01(l_raw),
        completeness=(confidence, _clamp01(completeness_raw)),
        soundness=(confidence, _clamp01(soundness_raw)),
        out_of_regime=out,
        raw=raw,
    )


def theorem1_params(
    n_qubits: int, kappa: int, eps_v: float, eps_p: float, beta: float
) -> SchemeParams:
    """Scheme parameters when per-round noise rates are given directly.

    M = ln(1/β) / (2 κ² N² (ε_V+ε_P)²) rounded up,
    l = 1 − κN(2ε_V + 4ε_P),
    completeness (1−β, 1 − √(N(ε_V+3ε_P))),
    soundness    (1−β, √(κN(3ε_V+5ε_P) + Δ_κ)).
    The three distinct noise combinations are deliberate, taken literally
    and not reconciled.
    """
    if not 0 < beta < 1:
        raise ValueError(f"beta must lie in (0, 1), got {beta}")
    if n_qubits < 1 or kappa < 1:
        raise ValueError("n_qubits and kappa must be >= 1")
    if not (math.isfinite(eps_v) and math.isfinite(eps_p)):
        raise ValueError(f"noise rates must be finite, got eps_v={eps_v}, eps_p={eps_p}")
    if eps_v < 0 or eps_p < 0:
        raise ValueError("noise rates must be nonnegative")
    total = eps_v + eps_p
    if total == 0:
        raise DegenerateNoiseError(
            "eps_v + eps_p = 0: noiseless completeness is exact and the "
            "repetition formula is undefined; pick any M >= 1 with l <= 1"
        )
    m_real = _repetitions(beta, float(2 * kappa**2 * n_qubits**2), total)
    l_raw = 1 - kappa * n_qubits * (2 * eps_v + 4 * eps_p)
    rad_c = n_qubits * (eps_v + 3 * eps_p)
    rad_s = kappa * n_qubits * (3 * eps_v + 5 * eps_p) + _delta_kappa_float(kappa)
    return _assemble_params(
        m_real=m_real,
        l_raw=l_raw,
        confidence=1 - beta,
        completeness_raw=1 - math.sqrt(rad_c),
        soundness_raw=math.sqrt(rad_s),
        radicands={"completeness": rad_c, "soundness": rad_s},
    )


def theorem2_params(eps2: float, kappa: int, beta: float) -> SchemeParams:
    """Scheme parameters when a single per-round gap ε″ is the budget.

    M = ln(1/β)/(2ε″²) rounded up, l = 1 − 2ε″,
    completeness (1−β, 1 − √ε″), soundness (1−β, √(3ε″ + Δ_κ)).
    """
    if not 0 < eps2 < 1:
        raise ValueError(f"eps2 must lie in (0, 1), got {eps2}")
    if not 0 < beta < 1:
        raise ValueError(f"beta must lie in (0, 1), got {beta}")
    if kappa < 1:
        raise ValueError(f"kappa must be >= 1, got {kappa}")
    m_real = _repetitions(beta, 2.0, eps2)
    rad_s = 3 * eps2 + _delta_kappa_float(kappa)
    return _assemble_params(
        m_real=m_real,
        l_raw=1 - 2 * eps2,
        confidence=1 - beta,
        completeness_raw=1 - math.sqrt(eps2),
        soundness_raw=math.sqrt(rad_s),
        radicands={"completeness": eps2, "soundness": rad_s},
    )


@dataclass(frozen=True)
class HardnessBound:
    """Closeness budget under which sampling stays classically hard."""

    value: float
    feasible: bool


def theorem3_epsilon(
    alpha1: float, alpha2: float, beta1: float, beta2: float, n_qubits: int
) -> HardnessBound:
    """ε ≤ (β₁+β₂−1−2^{−N})·α₁α₂/2, infeasible when β₁+β₂−2^{−N} < 1."""
    for name, v in (
        ("alpha1", alpha1),
        ("alpha2", alpha2),
        ("beta1", beta1),
        ("beta2", beta2),
    ):
        if not 0 <= v <= 1:
            raise ValueError(f"{name} must lie in [0, 1], got {v}")
    if n_qubits < 1:
        raise ValueError(f"n_qubits must be >= 1, got {n_qubits}")
    slack = beta1 + beta2 - 2.0**-n_qubits
    return HardnessBound(
        value=(slack - 1) * alpha1 * alpha2 / 2,
        feasible=slack >= 1,
    )


# ---------------------------------------------------------------------------
# Pauli-twirl numeric oracle


_P1 = {
    "I": np.eye(2, dtype=np.complex128),
    "X": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "Z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
}


@lru_cache(maxsize=256)
def pauli_matrix(word: str) -> np.ndarray:
    """Tensor product of single-qubit Paulis; word[j] acts on qubit j.
    The matrix is cached, so it is read-only."""
    out = np.ones((1, 1), dtype=np.complex128)
    for ch in word:
        if ch not in _P1:
            raise ValueError(f"unknown Pauli letter {ch!r}")
        # qubit j in the low bits: later letters go to the high side
        out = np.kron(_P1[ch], out)
    out.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def _pauli_stack(n: int, basis: str) -> np.ndarray:
    """Every n-qubit word of the conjugating family, as stacked matrices."""
    alphabet = {"full": "IXYZ", "z_only": "IZ"}.get(basis)
    if alphabet is None:
        raise ValueError(f"basis must be 'full' or 'z_only', got {basis!r}")
    words = ("".join(w) for w in itertools.product(alphabet, repeat=n))
    stack = np.array([pauli_matrix(w) for w in words])
    stack.setflags(write=False)
    return stack


def twirl_sum(
    n: int, q: str, qprime: str, rho: np.ndarray, basis: str = "full"
) -> np.ndarray:
    """Brute-force Σ_P (PQP) ρ (PQ′P) over the chosen conjugating family."""
    if n > 3:
        raise ValueError("twirl oracle is capped at 3 qubits")
    if len(q) != n or len(qprime) != n:
        raise ValueError("Pauli words must have one letter per qubit")
    if rho.shape != (2**n, 2**n):
        raise ValueError(
            f"rho has shape {rho.shape}, expected {(2**n, 2**n)}"
        )
    if basis == "z_only":
        for word in (q, qprime):
            if any(ch not in "IX" for ch in word):
                raise ValueError(
                    "z_only conjugation requires Q, Q' built from I and X"
                )
    stack = _pauli_stack(n, basis)
    left = stack @ pauli_matrix(q) @ stack
    right = stack @ pauli_matrix(qprime) @ stack
    return np.einsum("wij,jk,wkl->il", left, rho, right)


def twirl_check(
    n: int, q: str, qprime: str, rho: np.ndarray, basis: str = "full"
) -> float:
    """Frobenius norm of the twirl sum; ~0 exactly when Q ≠ Q′."""
    return float(np.linalg.norm(twirl_sum(n, q, qprime, rho, basis)))
