"""Threshold, cube-syndrome, and overhead arithmetic."""
from __future__ import annotations

import math

import pytest

from trapver.ftcalc import (
    FtConfig,
    cube_failure_prob,
    detection_overhead,
    faulty_series_bound,
    ft_report,
    overhead_table,
    phenomenological_threshold,
    physical_threshold,
)

THR = 0.019694297472075253


def test_phenomenological_threshold():
    assert phenomenological_threshold() == pytest.approx(
        0.11816578483245152, rel=1e-12
    )
    assert phenomenological_threshold(1 / 5) == pytest.approx(1 / 6, rel=1e-15)
    assert phenomenological_threshold(0.0) == 0.0
    with pytest.raises(ValueError):
        phenomenological_threshold(-0.1)


def test_physical_threshold():
    assert physical_threshold() == pytest.approx(THR, rel=1e-12)
    assert physical_threshold(c_ops=1) == phenomenological_threshold()
    assert physical_threshold(1 / 5, 6) == pytest.approx(1 / 36, rel=1e-15)
    with pytest.raises(ValueError):
        physical_threshold(c_ops=0)


def test_cube_failure_prob():
    assert cube_failure_prob(0.0) == 0.0
    assert cube_failure_prob(1 / 12) == pytest.approx(0.5, rel=1e-15)
    assert cube_failure_prob(THR / 100) == pytest.approx(
        0.007048189395441329, rel=1e-12
    )
    with pytest.raises(ValueError, match="validity"):
        cube_failure_prob(0.1)


def test_cube_failure_monotone_and_bounded():
    grid = [i / 12 * 0.999 / 20 for i in range(21)]
    vals = [cube_failure_prob(e) for e in grid]
    assert all(0 <= v <= 0.5 for v in vals)
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_detection_overhead_frozen_rows():
    m_real, m = detection_overhead(THR / 100)
    assert m_real == pytest.approx(54.01457407954804, rel=1e-12)
    assert m == 55
    m_real, _ = detection_overhead(THR / 50)
    assert m_real == pytest.approx(2862.5032524500994, rel=1e-12)
    m_real, _ = detection_overhead(THR / 20)
    assert m_real == pytest.approx(379428098.1085624, rel=1e-9)


def test_detection_overhead_monotone():
    assert detection_overhead(THR / 100)[0] < detection_overhead(THR / 50)[0]
    assert (
        detection_overhead(THR / 100, syndromes=564)[0]
        < detection_overhead(THR / 100, syndromes=600)[0]
    )


def test_series_bound_zero_noise():
    sb = faulty_series_bound(0.0, 2, 100)
    assert sb.value == 0.0
    assert sb.converges


def test_series_bound_critical_ratio():
    # first float at/above the critical rate: odds ratio hits 1/5, every
    # term is the constant saw prefactor, flag reports non-convergence
    eps = math.nextafter(1 / 6, 1)
    sb = faulty_series_bound(eps, 2, 10)
    assert sb.value == pytest.approx(2 * 1 * (6 / 5) * (10 - 2 + 1), rel=1e-12)
    assert not sb.converges


def test_series_bound_flag_sides():
    assert faulty_series_bound(0.1, 2, 50).converges
    assert not faulty_series_bound(0.2, 2, 50).converges


def test_series_bound_monotonicity():
    lo = faulty_series_bound(0.01, 4, 100).value
    hi = faulty_series_bound(0.02, 4, 100).value
    assert 0 < lo < hi
    deeper = faulty_series_bound(0.01, 5, 100).value
    assert deeper < lo


def test_series_bound_geometric_closed_form():
    eps, l_d, n = 0.01, 4, 100
    r = 5 * eps / (1 - eps)
    want = 2 * (6 / 5) * r**l_d * (1 - r ** (n - l_d + 1)) / (1 - r)
    assert faulty_series_bound(eps, l_d, n).value == pytest.approx(
        want, rel=1e-12
    )


def test_series_bound_stops_early_with_the_full_sum():
    # 10^12 terms one by one would not finish; past the first few each
    # leaves the sum unchanged, so the value is the 564-term loop's
    eps = 1e-12
    r = 5 * eps / (1 - eps)
    full = 0.0
    for length in range(2, 565):
        full += r**length
    assert faulty_series_bound(eps, 2, 10**12).value == 2 * (6 / 5) * full


def test_series_bound_domain():
    with pytest.raises(ValueError):
        faulty_series_bound(1.0, 2, 10)
    with pytest.raises(ValueError):
        faulty_series_bound(0.1, 0, 10)
    with pytest.raises(ValueError):
        faulty_series_bound(0.1, 5, 4)


def test_overhead_table_defaults():
    rows = overhead_table()
    assert [r.fraction for r in rows] == [1 / 20, 1 / 50, 1 / 100]
    assert rows[0].m_real == pytest.approx(379428098.1085624, rel=1e-9)
    assert rows[1].m_real == pytest.approx(2862.5032524500994, rel=1e-12)
    assert rows[2].m_real == pytest.approx(54.01457407954804, rel=1e-12)
    assert not any(r.astronomical for r in rows)
    assert all(r.eps == pytest.approx(r.fraction * THR, rel=1e-12) for r in rows)


def test_overhead_table_at_threshold_flagged():
    (row,) = overhead_table([1.0])
    assert row.astronomical
    assert row.m_real > 1e12


def test_overhead_table_zero_noise_limit():
    (row,) = overhead_table([1e-12])
    assert row.m_real == pytest.approx(1.0, abs=1e-9)
    (row,) = overhead_table([1e-150])
    assert row.m == 1


def test_overhead_table_domain():
    with pytest.raises(ValueError):
        overhead_table([0.0])
    with pytest.raises(ValueError):
        overhead_table([1.5])


def test_ft_config_validation():
    with pytest.raises(ValueError):
        FtConfig(eps=1.0)
    with pytest.raises(ValueError):
        FtConfig(distance=0)
    with pytest.raises(ValueError):
        FtConfig(syndromes=0)
    for name in ("saw_prefactor", "poly_prefactor"):
        for value in (math.nan, math.inf, -1.0):
            with pytest.raises(ValueError, match=name):
                FtConfig(**{name: value})


def test_ft_report_assembly():
    cfg = FtConfig(eps=THR / 100)
    rep = ft_report(cfg)
    assert rep.physical == pytest.approx(THR, rel=1e-12)
    assert rep.m_real == pytest.approx(54.01457407954804, rel=1e-12)
    assert rep.m == 55
    assert rep.p_c == pytest.approx(cube_failure_prob(THR / 100), rel=1e-15)
    assert rep.converges
    assert rep.poly_prefactor == 1.0
    # series window: from the code distance out to the syndrome count
    want = faulty_series_bound(cfg.eps, l_d=2, n_terms=564).value
    assert rep.series_bound == pytest.approx(want, rel=1e-12)
