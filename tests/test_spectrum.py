"""Spectrum assembly, the counting function, and the verification report."""

import dataclasses
import json
import math

import numpy as np
import pytest

from otsuki_bipolar.errors import ConvergenceFailure, VerificationFailed
from otsuki_bipolar.geodesic import RotationNumber, i2, solve_rotation
from otsuki_bipolar.immersion import area
from otsuki_bipolar.spectrum import (
    Certificate,
    VerificationReport,
    _RadialChart,
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
    orient_rows,
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


def test_l_max_is_ignored_and_the_window_bounds_the_cut(cases):
    """The cutoff alone sets the angular indices: every l_max gives the
    same table, and a cutoff above the l = 0 window is a ValueError."""
    sol, n = cases.solution((3, 5)), cases.grid((3, 5))
    spectra = {l: cases.spectrum((3, 5), l) for l in range(2)}
    table = assemble(sol, None, grid_size=n, spectra=spectra)
    for l_max in (0, 2, 7):
        assert assemble(sol, None, l_max=l_max, grid_size=n,
                        spectra=spectra) == table
    with pytest.raises(ValueError, match="radial window at l = 0"):
        assemble(sol, cases.profile((3, 5)), l_max=2, lambda_cut=8.0,
                 grid_size=512)


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


def test_verify_theorem3_ignores_grid_size():
    """The radial rows are always sampled at pipeline_grid_size(2048, q),
    so a coarse grid_size gives the default report."""
    report = verify_theorem3(RotationNumber(3, 5), grid_size=64,
                             raise_on_failure=False)
    assert report == verify_theorem3(RotationNumber(3, 5))
    assert report.passed and report.n2_computed == 20


@pytest.mark.parametrize("cut", [2.01, 4.5, 6.0])
def test_verify_theorem3_ignores_lambda_cut(cut, monkeypatch):
    """The report counts below 2, so any cut gives the default report and
    only l = 0 and 1 are solved: 4.5 solves no l = 2 rows, and 6.0, past
    the end of the l = 0 radial window, does not raise."""
    import otsuki_bipolar.spectrum as spec_mod
    default = verify_theorem3(RotationNumber(3, 5))
    solve, seen = spec_mod.solve_radial, []

    def spy(sol, profile, l, *args, **kwargs):
        seen.append(l)
        return solve(sol, profile, l, *args, **kwargs)

    monkeypatch.setattr(spec_mod, "solve_radial", spy)
    assert verify_theorem3(RotationNumber(3, 5), lambda_cut=cut) == default
    assert sorted(seen) == [0, 1]


def test_verify_theorem3_accepts_any_pair():
    """A list or tuple (p, q) is coerced, as solve_rotation's callers do."""
    report = verify_theorem3(RotationNumber(3, 5))
    assert verify_theorem3([3, 5]) == report == verify_theorem3((3, 5))


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
    chars = symmetry_characters(spec.eigenfunctions.T,
                                shift_operator(n, n // 2))
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


@pytest.mark.parametrize("pq", [(3, 5), (5, 8), (4, 7), (5, 9), (7, 10)])
def test_verify_samples_only_the_threshold_sectors(pq, cases, monkeypatch):
    """verify solves sector q at l = 0 and sector p at l = 1 with vectors
    and every other sector values-only, and at l = 2 only the ground
    level.  Against the full solve: the threshold sectors' eigenvalues
    and zero counts are the same bits, the other eigenvalues and the
    ground level at l = 2 agree to rounding, and N(2), the pinned modes
    and the certified zero counts do not move.  No unsampled row carries
    a zero count."""
    import otsuki_bipolar.spectrum as spec_mod
    solve, seen = spec_mod.solve_radial, {}

    def spy(sol, profile, l, *args, **kwargs):
        seen[l] = solve(sol, profile, l, *args, **kwargs)
        return seen[l]

    monkeypatch.setattr(spec_mod, "solve_radial", spy)
    report = verify_theorem3(RotationNumber(*pq))
    p, q = pq
    threshold = {0: [q], 1: [p, 2 * q - p]}
    assert sorted(seen) == [0, 1]
    for l, fast in seen.items():
        full = cases.spectrum(pq, l)
        assert fast.eigenvalues.size == full.eigenvalues.size
        assert np.array_equal(fast.sectors, full.sectors)
        assert np.max(np.abs(fast.eigenvalues - full.eigenvalues)) <= 1e-11
        on = np.isin(full.sectors, threshold[l])
        assert on.any() == (l <= 1)
        assert np.array_equal(fast.eigenvalues[on], full.eigenvalues[on])
        assert np.array_equal(fast.zero_counts[on], full.zero_counts[on])
        assert np.all(fast.zero_counts[~on] == -1)
        assert np.all(np.isnan(fast.eigenfunctions[~on]))

    full_table = cases.table(pq)
    table = assemble(cases.solution(pq), None, grid_size=cases.grid(pq),
                     spectra=seen)
    assert report.n2_computed == weyl_N(full_table, 2.0) == weyl_N(table, 2.0)
    assert ([(e.l, e.i) for e in table.entries if e.pinned_two]
            == [(e.l, e.i) for e in full_table.entries if e.pinned_two])
    for e in table.entries:
        assert (e.zero_count is None) == (seen[e.l].zero_counts[e.i] < 0)
    certs = {c.name: c.lhs for c in report.certificates}
    full0, full1 = cases.spectrum(pq, 0), cases.spectrum(pq, 1)
    assert certs["sin_phi_zero_count"] == full0.zero_counts[2 * q]
    assert certs["l1_pair_zero_count"] == full1.zero_counts[2 * p - 1]
    ground = cases.spectrum(pq, 2).eigenvalues[0]
    for name in ("ground_l2_above_two", "ground_l2_above_potential_floor"):
        cert = next(c for c in report.certificates if c.name == name)
        assert abs(cert.rhs - ground) <= 1e-11


@pytest.mark.parametrize("pq", [(3, 5), (5, 8)])
@pytest.mark.parametrize("l", [0, 1])
def test_rows_keep_their_signs_when_b_moves_by_one_ulp(pq, l, cases):
    """A level's samples repeat their peak magnitude with both signs over
    the Bloch turns, so a sign taken from the peak follows rounding: by
    an argmax rule 2 to 5 of the rows here flip.  Taken from
    the first sample at half the peak or more, every row of a full solve
    on the chart of b and of the next double toward pi/2 agrees to
    1e-10 (measured: 2.8e-14)."""
    sol = cases.solution(pq)
    moved = dataclasses.replace(sol, b=math.nextafter(sol.b, 0.5 * math.pi))
    a, b = (solve_radial(s, None, l, cases.grid(pq),
                         chart=_RadialChart(s.b, pq[1])).eigenfunctions
            for s in (sol, moved))
    assert np.max(np.abs(a - b)) <= 1e-10


def test_orient_rows_makes_the_first_sample_at_half_the_peak_positive():
    rows = np.array([[0.2, -1.0, 0.6, 1.0],
                     [0.1, 0.4, -0.7, -0.8],
                     [0.0, 0.0, 0.0, 0.0]])
    assert orient_rows(rows).tolist() == [[-0.2, 1.0, -0.6, -1.0],
                                          [0.1, 0.4, -0.7, -0.8],
                                          [0.0, 0.0, 0.0, 0.0]]


def test_radial_chart_must_match_the_solution(cases):
    sol, other = cases.solution((3, 5)), cases.solution((5, 8))
    chart = _RadialChart(other.b, other.rotation.q)
    with pytest.raises(ValueError, match="another b or q"):
        solve_radial(sol, None, 0, cases.grid((3, 5)), chart=chart)


def test_eigenvalue_two_modes_to_solver_precision(cases):
    for pq in [(3, 5), (5, 8), (7, 10)]:
        p, q = pq
        assert abs(cases.spectrum(pq, 0).eigenvalues[2 * q] - 2.0) < 1e-11
        pair = cases.spectrum(pq, 1).eigenvalues[[2 * p - 1, 2 * p]]
        assert np.max(np.abs(pair - 2.0)) < 1e-11


def _reduced_fractions(q_max):
    return [(p, q) for q in range(3, q_max + 1) for p in range(1, q)
            if math.gcd(p, q) == 1 and q < 2 * p and 2 * p * p < q * q]


_PINNED = ("radial_eigenvalue_two_at_l0_position_2q",
           "radial_eigenvalue_two_at_l1_position_2p_minus_1",
           "radial_eigenvalue_two_at_l1_position_2p")


def _verify_passes_with_the_closed_form(pq):
    """verify passes, and the three exact eigenvalue-2 modes (positions 2q,
    2p - 1 and 2p), reported as Rayleigh quotients, lie within 1e-13 of 2
    (as reduced eigenvalues they missed it by up to 2.7e-12 on q <= 40)."""
    report = verify_theorem3(RotationNumber(*pq), raise_on_failure=False)
    assert report.passed, report.first_failure()
    assert report.n2_computed == expected_n2(RotationNumber(*pq))
    assert report.threshold_multiplicity == 5
    assert report.eps_grid == 1e-10     # the stop tolerance of the M ladder
    pinned = [c.lhs for c in report.certificates if c.name in _PINNED]
    assert len(pinned) == 3
    assert max(abs(lam - 2.0) for lam in pinned) <= 1e-13, pinned


def _rayleigh_reference(chart, l, q, modes):
    """Every periodic sector at M = ``modes``: eigh of the reduced
    matrices, then c^T A c / c^T T_W c from dense A = D T_P D + l^2 T_S
    and T_W, with each conjugate partner's copy; sorted."""
    ks = np.arange(q + 1)
    kappa = ks / q
    mats, l_inv = chart.sector_matrices(kappa, l, modes)
    lam, y = np.linalg.eigh(mats)
    m = np.arange(-modes, modes + 1)
    lag = np.abs(m[:, None] - m[None, :])
    rho = np.empty_like(lam)
    for k in range(ks.size):
        d = kappa[k] + 2.0 * m
        a = d[:, None] * chart.p_hat[lag] * d + l * l * chart.s_hat[lag]
        c = l_inv.T @ y[k]
        rho[k] = (np.sum(c * (a @ c), axis=0)
                  / np.sum(c * (chart.w_hat[lag] @ c), axis=0))
    paired = (2 * q - ks) % (2 * q) != ks
    return (np.sort(np.concatenate([lam.ravel(), lam[paired].ravel()])),
            np.sort(np.concatenate([rho.ravel(), rho[paired].ravel()])))


@pytest.mark.parametrize("pq", [(3, 5), (5, 8)])
@pytest.mark.parametrize("l", [0, 1])
def test_rows_of_vector_sectors_are_rayleigh_quotients(pq, l, monkeypatch):
    """With every sector sampled, each window row is the Rayleigh quotient
    of its Galerkin vector at the last M, not the eigensolve's value."""
    import otsuki_bipolar.spectrum as spec_mod
    settle, last = spec_mod._settle_modes, []

    def spy(l, solve):
        modes, kept = settle(l, solve)
        last.append(modes)
        return modes, kept

    monkeypatch.setattr(spec_mod, "_settle_modes", spy)
    sol = solve_rotation(RotationNumber(*pq))
    chart = _RadialChart(sol.b, pq[1])
    spec = solve_radial(sol, None, l, 8 * pq[1], chart=chart)
    lam, rho = _rayleigh_reference(chart, l, pq[1], last[0])
    rho = rho[:spec.eigenvalues.size]
    scale = np.maximum(rho, 1.0)
    assert np.max(np.abs(spec.eigenvalues - rho) / scale) <= 2e-15
    assert np.max(np.abs(lam[:rho.size] - rho) / scale) > 1e-14


def _direct_sector_matrices(chart, kappa, l, modes):
    """L^-1 (D T_P D + l^2 T_S) L^-T of each sector by two dense products,
    with L^-1 from the Cholesky factor of T_W; and that L^-1."""
    m = np.arange(-modes, modes + 1)
    lag = np.abs(m[:, None] - m[None, :])
    d = kappa[:, None] + 2.0 * m
    a = (d[:, :, None] * chart.p_hat[lag] * d[:, None, :]
         + l * l * chart.s_hat[lag])
    l_inv = np.linalg.inv(np.linalg.cholesky(chart.w_hat[lag]))
    return l_inv @ a @ l_inv.T, l_inv


@pytest.mark.parametrize("pq", [(3, 5), (9, 16), (50, 99)])
def test_sector_matrices_match_the_direct_reduction(pq):
    """At every M of the ladder and l = 0, 1, 2, the matrices formed from
    the chart's per-M pencil lie within 8 eps max|A| of the direct
    reduction (at most 2.6 eps max|A| measured), on the periodic sectors 0,
    p and q and the antiperiodic sector q - 1.  A sector's matrix is the
    same bits when it is formed alone."""
    import otsuki_bipolar.spectrum as spec_mod
    p, q = pq
    sol = solve_rotation(RotationNumber(*pq))
    chart = _RadialChart(sol.b, q)
    kappa = np.array([0.0, p / q, 1.0, (q - 0.5) / q])
    eps = np.finfo(float).eps
    for modes in spec_mod._MODE_LADDER:
        for l in (0, 1, 2):
            mats, l_inv = chart.sector_matrices(kappa, l, modes)
            direct, direct_l_inv = _direct_sector_matrices(chart, kappa, l,
                                                           modes)
            assert np.array_equal(l_inv, direct_l_inv)
            error = np.max(np.abs(mats - direct), axis=(1, 2))
            scale = np.max(np.abs(direct), axis=(1, 2))
            assert np.all(error <= 8.0 * eps * scale), (modes, l)
            alone, _ = chart.sector_matrices(kappa[1:2], l, modes)
            assert np.array_equal(alone[0], mats[1])


@pytest.mark.parametrize("pq", [(3, 5), (7, 11)])
def test_eigenvectors_only_at_the_stop_m(pq, monkeypatch):
    """Each rung of the ladder solves values-only: np.linalg.eigh runs once
    per solve_radial call, at the M where the ladder stopped, on the
    sectors with a sampled row (all q + 1 in a full solve; under verify
    the threshold sector q at l = 0 and p at l = 1, and none for the
    ground level at l = 2)."""
    import otsuki_bipolar.spectrum as spec_mod
    eigh, settle = np.linalg.eigh, spec_mod._settle_modes
    calls, stops = [], []

    def eigh_spy(a, *args, **kwargs):
        calls.append(a.shape)
        return eigh(a, *args, **kwargs)

    def settle_spy(l, solve):
        modes, kept = settle(l, solve)
        stops.append(modes)
        return modes, kept

    monkeypatch.setattr(np.linalg, "eigh", eigh_spy)
    monkeypatch.setattr(spec_mod, "_settle_modes", settle_spy)
    q = pq[1]
    solve_radial(solve_rotation(RotationNumber(*pq)), None, 1, 8 * q)
    n = 2 * stops[0] + 1
    assert calls == [(q + 1, n, n)]
    calls.clear()
    stops.clear()
    verify_theorem3(RotationNumber(*pq))
    assert len(stops) == 3          # l = 0, l = 1, then the ground at l = 2
    assert calls == [(1, 2 * m + 1, 2 * m + 1) for m in stops[:2]]


def test_pencil_is_built_once_per_m_per_chart(monkeypatch):
    """verify's solves at l = 0 and 1 and the ground level at l = 2 share
    one chart: its pencil, with the one Cholesky factorization of T_W, is
    built once at each M that any of them visits."""
    import otsuki_bipolar.spectrum as spec_mod
    chart_cls = spec_mod._RadialChart
    cholesky, pencil = np.linalg.cholesky, chart_cls._pencil
    sector_matrices = chart_cls.sector_matrices
    factored, pencils, used = [], [], []

    def cholesky_spy(a):
        factored.append(a.shape[0])
        return cholesky(a)

    def pencil_spy(self, modes):
        pencils.append(modes)
        return pencil(self, modes)

    def sector_spy(self, kappa, l, modes):
        used.append((l, modes))
        return sector_matrices(self, kappa, l, modes)

    monkeypatch.setattr(np.linalg, "cholesky", cholesky_spy)
    monkeypatch.setattr(chart_cls, "_pencil", pencil_spy)
    monkeypatch.setattr(chart_cls, "sector_matrices", sector_spy)
    verify_theorem3(RotationNumber(7, 11))
    ladder = sorted({m for _, m in used})
    assert {l for l, _ in used} == {0, 1, 2}
    assert all((l, 8) in used for l in (0, 1, 2))
    assert sorted(factored) == [2 * m + 1 for m in ladder]
    assert sorted(set(pencils)) == ladder and len(pencils) == len(used)


# The doubling ladder that the 1.5x steps refine.
_DOUBLING = (8, 16, 32, 64, 128, 256)


def test_ladder_visits_powers_of_two_and_one_and_a_half_times():
    """M runs 8, 16, 24, 32, 48, ... 256 and stops at the cap with
    ConvergenceFailure naming l and M, if the values never settle."""
    import otsuki_bipolar.spectrum as spec_mod
    seen = []

    def solve(modes):
        seen.append(modes)
        return np.array([1.0 / modes]), 1, None

    with pytest.raises(ConvergenceFailure, match=r"at l = 3 .* at M = 256 "):
        spec_mod._settle_modes(3, solve)
    assert seen == [8, 16, 24, 32, 48, 64, 96, 128, 192, 256]


def test_ladder_ends_no_later_than_doubling(monkeypatch):
    """On the 16 reduced p/q with q <= 16 every ladder run by verify ends
    at an M no larger than doubling from 8 reaches, and some end earlier."""
    import otsuki_bipolar.spectrum as spec_mod
    settle, last = spec_mod._settle_modes, []

    def spy(l, solve):
        modes, kept = settle(l, solve)
        last.append((l, modes))
        return modes, kept

    monkeypatch.setattr(spec_mod, "_settle_modes", spy)
    ends = {}
    for ladder in (spec_mod._MODE_LADDER, _DOUBLING):
        monkeypatch.setattr(spec_mod, "_MODE_LADDER", ladder)
        last.clear()
        for pq in _reduced_fractions(16):
            verify_theorem3(RotationNumber(*pq))
        ends[ladder] = last[:]
    new, old = ends.values()
    assert [l for l, _ in new] == [l for l, _ in old]
    assert all(m <= m_old for (_, m), (_, m_old) in zip(new, old))
    assert any(m < m_old for (_, m), (_, m_old) in zip(new, old))


def _window_against_m_256(pq):
    sol = solve_rotation(RotationNumber(*pq))
    chart = _RadialChart(sol.b, pq[1])
    for l in (0, 1):
        spec = solve_radial(sol, None, l, 8 * pq[1], chart=chart)
        _, rho = _rayleigh_reference(chart, l, pq[1], 256)
        count = spec.eigenvalues.size
        assert np.max(np.abs(spec.eigenvalues - rho[:count])) <= 1e-10


def test_window_is_the_m_256_window():
    """On 4/7, where the ladder stops at M = 24, the window lies within
    1e-10 of the same Rayleigh quotients at M = 256.  (The reduced
    eigenvalues at M = 256 carry up to 3.6e-10 of rounding on q <= 16.)"""
    _window_against_m_256((4, 7))


@pytest.mark.sweep
@pytest.mark.parametrize("pq", _reduced_fractions(16))
def test_window_is_the_m_256_window_sweep(pq):
    """The 16 reduced p/q with q <= 16."""
    _window_against_m_256(pq)


@pytest.mark.parametrize("pq", _reduced_fractions(20)
                         + [(26, 51), (41, 58), (70, 99)])
def test_verify_across_the_admissible_range(pq):
    _verify_passes_with_the_closed_form(pq)


@pytest.mark.sweep
@pytest.mark.parametrize("pq", _reduced_fractions(100) + [(51, 101)])
def test_verify_sweep_q_up_to_100(pq):
    """All 630 reduced p/q with q <= 100, and 51/101.  Deselected by
    default; run with ``pytest -m sweep``."""
    _verify_passes_with_the_closed_form(pq)


def _ground_levels_clear_the_floor(pq):
    """Radial eigenvalues at l are at least l^2 min(S/W) = l^2, the floor
    by which ``assemble`` solves only the l with l^2 below its cutoff.
    ``_RadialChart.ground``, verify's l = 2 level, solves Bloch sector 0
    alone and finds the same lowest eigenvalue."""
    sol = solve_rotation(RotationNumber(*pq))
    chart = _RadialChart(sol.b, pq[1])
    for l in (2, 3):
        spec = solve_radial(sol, None, l, 8 * pq[1], chart=chart,
                            sampled_sectors=())
        assert spec.eigenvalues[0] >= l * l
        ground = chart.ground(l)
        assert abs(ground - spec.eigenvalues[0]) <= 1e-11
        assert ground >= l * l


@pytest.mark.parametrize("pq", [(3, 5), (12, 17), (41, 58), (50, 99)])
def test_ground_levels_clear_the_floor(pq):
    _ground_levels_clear_the_floor(pq)


@pytest.mark.sweep
@pytest.mark.parametrize("pq", _reduced_fractions(40)
                         + [(41, 58), (50, 99), (70, 99), (51, 101)])
def test_ground_levels_clear_the_floor_sweep(pq):
    """The 100 reduced p/q with q <= 40, 41/58, 50/99, 70/99 and 51/101."""
    _ground_levels_clear_the_floor(pq)


def test_unsettled_ground_level_names_l_and_modes(monkeypatch):
    """The ground solve stops at the Fourier-mode cap as ``solve_radial``
    does: ConvergenceFailure naming l and M."""
    import otsuki_bipolar.spectrum as spec_mod
    monkeypatch.setattr(spec_mod, "_MODE_TOL", 0.0)
    monkeypatch.setattr(spec_mod, "_MAX_MODES", 16)
    sol = solve_rotation(RotationNumber(3, 5))
    with pytest.raises(ConvergenceFailure, match=r"at l = 2 .* at M = 16 "):
        _RadialChart(sol.b, 5).ground(2)


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
