"""Spectrum assembly, the counting function, and the verification report."""

import dataclasses
import json
import math

import numpy as np
import pytest

from otsuki_bipolar.errors import InsufficientLMax, VerificationFailed
from otsuki_bipolar.geodesic import RotationNumber, i2, solve_rotation
from otsuki_bipolar.immersion import area
from otsuki_bipolar.spectrum import (
    Certificate,
    VerificationReport,
    assemble,
    expected_n2,
    lambda_functional,
    lambda_functional_bound,
    pipeline_grid_size,
    solve_radial,
    verify_theorem3,
    weyl_N,
)
from otsuki_bipolar.sturm import (
    build_problem,
    eigen,
    shift_operator,
    symmetry_characters,
)

SQRT2 = math.sqrt(2.0)


def test_expected_counts():
    assert expected_n2(RotationNumber(3, 5)) == 20
    assert expected_n2(RotationNumber(4, 7)) == 28
    assert expected_n2(RotationNumber(5, 9)) == 36
    assert expected_n2(RotationNumber(5, 8)) == 16
    assert expected_n2(RotationNumber(7, 10)) == 22


def test_pipeline_grid_size_divisibility():
    n = pipeline_grid_size(2048, 5)
    assert n >= 2048 and n % 40 == 0
    assert pipeline_grid_size(100, 8) % 64 == 0


def test_weyl_counting_function(cases):
    table = cases.table((3, 5))
    assert weyl_N(table, 0.0) == 0
    assert weyl_N(table, 1e-9) == 1          # constant mode only
    assert weyl_N(table, 2.0) == 20
    with pytest.raises(ValueError):
        weyl_N(table, 3.0)                   # beyond the table cutoff


@pytest.mark.parametrize("pq", [(3, 5), (5, 8), (4, 7), (5, 9), (7, 10)])
def test_counts_match_closed_form(pq, cases):
    assert weyl_N(cases.table(pq), 2.0) == expected_n2(RotationNumber(*pq))


@pytest.mark.parametrize("pq", [(3, 5), (5, 8), (4, 7), (5, 9), (7, 10)])
def test_counts_stable_under_grid_doubling(pq, cases):
    assert weyl_N(cases.table(pq, doubled=True), 2.0) == \
        weyl_N(cases.table(pq), 2.0)


def test_l0_sub_threshold_counts(cases):
    # odd q keeps 2q radial modes below 2 at l = 0; even q keeps q
    odd = [e for e in cases.table((3, 5)).kept_below(2.0) if e.l == 0]
    assert sum(e.multiplicity for e in odd) == 2 * 5
    even = [e for e in cases.table((5, 8)).kept_below(2.0) if e.l == 0]
    assert sum(e.multiplicity for e in even) == 8


def test_l1_sub_threshold_counts(cases):
    odd = [e for e in cases.table((3, 5)).kept_below(2.0) if e.l == 1]
    assert sum(e.multiplicity for e in odd) == 2 * (2 * 3 - 1)
    even = [e for e in cases.table((5, 8)).kept_below(2.0) if e.l == 1]
    assert sum(e.multiplicity for e in even) == 2 * (5 - 1)


def test_even_q_filter_pattern(cases):
    # kept l = 0 radial indices follow 0, 3, 4, 7, 8, ..., 2q-1
    table = cases.table((5, 8))
    kept_idx = sorted(e.i for e in table.kept_below(2.0) if e.l == 0)
    q = 8
    expected = [0] + [j for k in range(1, q // 2)
                      for j in (4 * k - 1, 4 * k)] + [2 * q - 1]
    assert kept_idx == expected


def test_no_l_ge_2_modes_at_or_below_two(cases):
    for pq in [(3, 5), (7, 10)]:
        table = cases.table(pq)
        assert all(e.l <= 1 for e in table.kept_below(2.0))
        assert all(e.l <= 1 for e in table.entries if e.pinned_two)


def test_threshold_multiplicity_is_five(cases):
    # the five immersed coordinates sit exactly at eigenvalue 2, pinned at
    # their closed-form positions 2q (l = 0) and 2p - 1, 2p (l = 1)
    for p, q in [(3, 5), (5, 8), (7, 10)]:
        table = cases.table((p, q))
        assert table.threshold_multiplicity() == 5
        pinned = sorted((e.l, e.i) for e in table.entries if e.pinned_two)
        assert pinned == [(0, 2 * q), (1, 2 * p - 1), (1, 2 * p)]


def test_table_sorted_and_reasons(cases):
    table = cases.table((5, 8))
    lams = [e.effective_lam for e in table.entries]
    assert lams == sorted(lams)
    reasons = {e.reason for e in table.entries}
    assert "below-cut" in reasons
    assert "removed-by-quotient-symmetry" in reasons
    assert "at-threshold-2" in reasons


def test_insufficient_l_max(cases):
    sol, prof = cases.solution((3, 5)), cases.profile((3, 5))
    with pytest.raises(InsufficientLMax):
        assemble(sol, prof, l_max=2, lambda_cut=8.0, grid_size=512)


def test_lambda_functional_routes(cases):
    for pq in [(3, 5), (5, 8)]:
        sol = cases.solution(pq)
        q = sol.rotation.q
        factor = 4.0 if sol.rotation.even_q else 8.0
        closed = factor * q * math.pi * i2(sol.b)
        assert lambda_functional(sol) == pytest.approx(closed, abs=1e-8)
        assert lambda_functional(sol) == pytest.approx(2.0 * area(sol),
                                                       rel=1e-15)
        bound = lambda_functional_bound(sol)
        expected_bound = (2.0 if sol.rotation.even_q else 4.0) * SQRT2 * q * math.pi ** 2
        assert bound == pytest.approx(expected_bound, rel=1e-15)
        assert lambda_functional(sol) < bound


@pytest.mark.parametrize("pq", [(3, 5), (5, 8)])
def test_verification_report(pq, cases):
    report = verify_theorem3(RotationNumber(*pq))
    assert report.passed
    assert report.n2_computed == report.n2_expected
    assert report.threshold_multiplicity == 5
    payload = json.loads(report.to_json())
    assert payload["p"], payload["q"] == pq
    assert payload["N2"] == expected_n2(RotationNumber(*pq))
    assert {c["name"] for c in payload["certificates"]} >= {
        "mode_count_matches_closed_form",
        "subcritical_radial_mode_below_two",
        "ground_l2_above_two",
        "functional_two_routes_agree",
        "functional_below_upper_bound",
    }
    assert all(c["pass"] for c in payload["certificates"])


def test_report_json_rounds_to_15_digits_and_nulls_nan():
    report = VerificationReport(
        rotation=RotationNumber(3, 5), a=0.1 + 0.2, b=1.0 / 3.0, t0=1.0,
        n2_computed=20, n2_expected=20, lambda_value=math.inf,
        upper_bound=2.0, threshold_multiplicity=5, eps_grid=math.nan,
        certificates=[Certificate.less_than("c", 1.0, math.nan)])
    payload = json.loads(report.to_json())
    assert payload["a"] == 0.3
    assert payload["b"] == float(f"{1.0 / 3.0:.15g}") != 1.0 / 3.0
    assert payload["eps_grid"] is None
    assert payload["lambda_functional"] is None
    assert payload["certificates"][0]["rhs"] is None
    assert "NaN" not in report.to_json()


def test_counting_survives_very_coarse_grids():
    # the grid only sets the sampling of the Bloch solve, so even an
    # 80-point radial grid reproduces the count for (3, 5)
    report = verify_theorem3(RotationNumber(3, 5), grid_size=64,
                             raise_on_failure=False)
    assert report.passed and report.n2_computed == 20


def test_verification_failure_carries_report(monkeypatch):
    import otsuki_bipolar.spectrum as spec_mod
    monkeypatch.setattr(spec_mod, "expected_n2", lambda r: 999)
    with pytest.raises(VerificationFailed) as err:
        verify_theorem3(RotationNumber(3, 5), grid_size=512)
    assert err.value.report is not None
    bad = err.value.report.first_failure()
    assert bad is not None and bad.name == "mode_count_matches_closed_form"


# -- Bloch-sector radial solve ----------------------------------------------

@pytest.mark.parametrize("pq", [(3, 5), (5, 8)])
@pytest.mark.parametrize("l", [0, 1, 2, 3])
def test_bloch_agrees_with_finite_differences(pq, l, cases):
    """The independent FD solver lands within 4.5x its own Richardson
    estimate of the Bloch eigenvalues."""
    bloch = cases.spectrum(pq, l)
    fd = eigen(build_problem(cases.profile(pq), l), bloch.eigenvalues.size,
               cases.grid(pq))
    diff = np.max(np.abs(fd.eigenvalues - bloch.eigenvalues))
    assert diff < 4.5 * fd.eps_grid


@pytest.mark.parametrize("pq", [(3, 5), (5, 8), (4, 7), (5, 9), (7, 10)])
@pytest.mark.parametrize("l", [0, 1, 2, 3])
def test_bloch_eigenvalues_do_not_depend_on_the_grid(pq, l, cases):
    base = cases.spectrum(pq, l)
    doubled = cases.spectrum(pq, l, doubled=True)
    assert doubled.grid_size == 2 * base.grid_size
    assert np.max(np.abs(base.eigenvalues - doubled.eigenvalues)) <= 1e-10
    assert base.eps_grid >= 1e-10


@pytest.mark.parametrize("l", [0, 1])
def test_sector_parity_is_the_half_period_character(l, cases):
    """On 5/8 the shift t -> t + t0/2 acts on each sampled row as (-1)^k
    of its Bloch sector k, which the even-q filter relies on."""
    spec = cases.spectrum((5, 8), l)
    assert spec.eigenfunctions.flags.c_contiguous      # one row per mode
    n = spec.grid_size
    chars, _ = symmetry_characters(spec.eigenvalues, spec.eigenfunctions.T,
                                   shift_operator(n, n // 2), 1e-8)
    assert np.array_equal(chars, np.where(spec.sectors % 2, -1.0, 1.0))


def test_rows_are_normalized_independently_of_the_grid():
    """Rows take their norm from the Galerkin coefficients, not from a
    rectangle rule on the sampling grid.  On 9/17 that rule is off by
    6.7e-5 on the base grid; on an 8x finer grid it is exact to rounding,
    and the base rows are the fine rows, sampled."""
    sol = solve_rotation(RotationNumber(9, 17))
    n = pipeline_grid_size(2048, 17)
    base = solve_radial(sol, None, 0, n).eigenfunctions
    fine = solve_radial(sol, None, 0, 8 * n)
    norms = fine.grid[1] * np.sum(fine.eigenfunctions ** 2, axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-13
    sub = fine.eigenfunctions[:, ::8]
    apart = np.minimum(np.abs(sub - base).max(axis=1),
                       np.abs(sub + base).max(axis=1))
    assert np.max(apart) < 1e-12


def test_eigenvalue_two_modes_to_solver_precision(cases):
    for pq in [(3, 5), (5, 8), (7, 10)]:
        p, q = pq
        assert abs(cases.spectrum(pq, 0).eigenvalues[2 * q] - 2.0) < 1e-11
        pair = cases.spectrum(pq, 1).eigenvalues[[2 * p - 1, 2 * p]]
        assert np.max(np.abs(pair - 2.0)) < 1e-11


def _reduced_fractions(q_max):
    return [(p, q) for q in range(3, q_max + 1) for p in range(1, q)
            if math.gcd(p, q) == 1 and q < 2 * p and 2 * p * p < q * q]


def _verify_passes_with_the_closed_form(pq):
    report = verify_theorem3(RotationNumber(*pq), raise_on_failure=False)
    assert report.passed, report.first_failure()
    assert report.n2_computed == expected_n2(RotationNumber(*pq))
    assert report.threshold_multiplicity == 5
    assert report.eps_grid <= 1e-9


@pytest.mark.parametrize("pq", _reduced_fractions(20)
                         + [(26, 51), (41, 58), (70, 99)])
def test_verify_across_the_admissible_range(pq):
    _verify_passes_with_the_closed_form(pq)


@pytest.mark.sweep
@pytest.mark.parametrize("pq", _reduced_fractions(40) + [(51, 101)])
def test_verify_sweep_q_up_to_40(pq):
    """All 100 reduced p/q with q <= 40, and 51/101.  Deselected by
    default; run with ``pytest -m sweep`` (~22 s on 2 cores)."""
    _verify_passes_with_the_closed_form(pq)


def test_closed_geodesic_residual_certificate(monkeypatch):
    import otsuki_bipolar.spectrum as spec_mod
    solve = spec_mod.solve_rotation
    monkeypatch.setattr(spec_mod, "solve_rotation", lambda r: dataclasses.replace(
        solve(r), omega_residual=2e-11))
    report = verify_theorem3(RotationNumber(3, 5), raise_on_failure=False)
    assert report.first_failure().name == "closed_geodesic_residual"
    loose = verify_theorem3(RotationNumber(3, 5), omega_tol=1e-10,
                            raise_on_failure=False)
    assert loose.passed
    cert = {c.name: c for c in loose.certificates}["closed_geodesic_residual"]
    assert cert.rhs == RotationNumber(3, 5).target_angle
    assert cert.margin == pytest.approx(8e-11, rel=1e-3)
