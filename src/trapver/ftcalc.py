"""Fault-tolerance arithmetic: thresholds, cube syndromes, overheads.

All classical closed forms.  The self-avoiding-walk bound carries an
unspecified polynomial prefactor; it defaults to 1 and every report states
the value used, because the threshold condition is prefactor-independent
but the absolute bound is not.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

DEFAULT_RATIO = 0.134
DEFAULT_OPS_PER_SYNDROME = 6
DEFAULT_SYNDROMES = 564  # distance-2 cube count affecting one trap
DEFAULT_SAW_GROWTH = 5
DEFAULT_SAW_PREFACTOR = 6 / 5

# Ceilings beyond this are reported but carry no integer meaning.
ASTRONOMICAL = 1e12


@dataclass(frozen=True)
class FtConfig:
    distance: int = 2
    eps: float = 0.0
    syndromes: int = DEFAULT_SYNDROMES
    saw_prefactor: float = DEFAULT_SAW_PREFACTOR
    poly_prefactor: float = 1.0

    def __post_init__(self) -> None:
        if not 0 <= self.eps < 1:
            raise ValueError(f"eps must lie in [0, 1), got {self.eps}")
        if self.distance < 1 or self.syndromes < 1:
            raise ValueError("distance and syndromes must be >= 1")
        for name in ("saw_prefactor", "poly_prefactor"):
            value = getattr(self, name)
            if not 0 <= value < math.inf:  # NaN fails both comparisons
                raise ValueError(f"{name} must be finite and >= 0, got {value}")


@dataclass(frozen=True)
class FtReport:
    phenomenological: float
    physical: float
    eps: float
    p_c: float
    m_real: float
    m: int
    series_bound: float
    converges: bool
    poly_prefactor: float
    saw_prefactor: float


def phenomenological_threshold(c: float = DEFAULT_RATIO) -> float:
    """Error rate at which the odds ratio ε/(1−ε) reaches c."""
    if c < 0:
        raise ValueError(f"ratio must be nonnegative, got {c}")
    return c / (1 + c)


def physical_threshold(
    c: float = DEFAULT_RATIO, c_ops: int = DEFAULT_OPS_PER_SYNDROME
) -> float:
    """Phenomenological threshold shared across the ops of one syndrome."""
    if c_ops < 1:
        raise ValueError(f"c_ops must be >= 1, got {c_ops}")
    return phenomenological_threshold(c) / c_ops


def cube_failure_prob(
    eps: float, c_ops: int = DEFAULT_OPS_PER_SYNDROME
) -> float:
    """(1 − (1 − 2·c_ops·ε)^6)/2: odds a syndrome cube reports wrongly."""
    base = 1 - 2 * c_ops * eps
    if base < 0:
        raise ValueError(
            f"eps = {eps} exceeds the formula's validity "
            f"(needs 2*{c_ops}*eps <= 1)"
        )
    return (1 - base**6) / 2


def detection_overhead(
    eps: float,
    syndromes: int = DEFAULT_SYNDROMES,
    c_ops: int = DEFAULT_OPS_PER_SYNDROME,
) -> tuple[float, int]:
    """Repetitions needed for one all-clear trap: 1/(1−p_c)^S.

    Returns (real value, ceiling); the reference figures the tests pin
    carry mixed precision, so comparisons should use the real value.
    """
    p_c = cube_failure_prob(eps, c_ops)
    if p_c >= 1:
        raise ValueError("cube failure probability reached 1")
    try:
        m_real = (1 - p_c) ** -syndromes
    except OverflowError:
        raise ValueError(f"overhead at eps = {eps}, syndromes = {syndromes} exceeds floats") from None
    return m_real, math.ceil(m_real)


@dataclass(frozen=True)
class SeriesBound:
    value: float
    converges: bool


def faulty_series_bound(
    eps: float,
    l_d: int,
    n_terms: int,
    poly_prefactor: float = 1.0,
    saw_prefactor: float = DEFAULT_SAW_PREFACTOR,
    saw_growth: int = DEFAULT_SAW_GROWTH,
) -> SeriesBound:
    """Partial sum 2·poly·Σ_{L=l_d}^{n} pref·(μ·ε/(1−ε))^L.

    Converges (as n grows) iff the odds ratio stays below 1/μ.  The sum
    stops early with the same value: at ratio ≤ 1 the terms only shrink, so
    once one leaves it unchanged every later one would, and an infinite sum
    stays infinite.
    """
    if not 0 <= eps < 1:
        raise ValueError(f"eps must lie in [0, 1), got {eps}")
    if l_d < 1 or n_terms < l_d:
        raise ValueError("need 1 <= l_d <= n_terms")
    odds = eps / (1 - eps)
    ratio = saw_growth * odds
    total = 0.0
    for length in range(l_d, n_terms + 1):
        before, total = total, total + ratio**length
        if total == math.inf or (total == before and ratio <= 1):
            break
    return SeriesBound(
        value=2 * poly_prefactor * saw_prefactor * total,
        converges=odds < 1 / saw_growth,
    )


@dataclass(frozen=True)
class OverheadRow:
    fraction: float
    eps: float
    p_c: float
    m_real: float
    m: int
    astronomical: bool


def overhead_table(
    fractions: Sequence[float] = (1 / 20, 1 / 50, 1 / 100),
    syndromes: int = DEFAULT_SYNDROMES,
    c_ops: int = DEFAULT_OPS_PER_SYNDROME,
) -> list[OverheadRow]:
    """Overhead at the given fractions of the physical threshold."""
    thr = physical_threshold(c_ops=c_ops)
    rows = []
    for frac in fractions:
        if not 0 < frac <= 1:
            raise ValueError(f"fractions must lie in (0, 1], got {frac}")
        eps = frac * thr
        p_c = cube_failure_prob(eps, c_ops)
        m_real, m = detection_overhead(eps, syndromes, c_ops)
        rows.append(
            OverheadRow(
                fraction=frac,
                eps=eps,
                p_c=p_c,
                m_real=m_real,
                m=m,
                astronomical=m_real > ASTRONOMICAL,
            )
        )
    return rows


def ft_report(cfg: FtConfig) -> FtReport:
    """Assemble every headline number for one configuration."""
    m_real, m = detection_overhead(cfg.eps, cfg.syndromes)
    series = faulty_series_bound(
        cfg.eps,
        l_d=max(cfg.distance, 1),
        n_terms=max(cfg.syndromes, cfg.distance),
        poly_prefactor=cfg.poly_prefactor,
        saw_prefactor=cfg.saw_prefactor,
    )
    return FtReport(
        phenomenological=phenomenological_threshold(),
        physical=physical_threshold(),
        eps=cfg.eps,
        p_c=cube_failure_prob(cfg.eps),
        m_real=m_real,
        m=m,
        series_bound=series.value,
        converges=series.converges,
        poly_prefactor=cfg.poly_prefactor,
        saw_prefactor=cfg.saw_prefactor,
    )
