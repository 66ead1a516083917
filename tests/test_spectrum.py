"""Spectrum assembly, the counting function, and the verification report."""

import dataclasses
import json
import math

import numpy as np
import pytest

from otsuki_bipolar import hill, oracle
from otsuki_bipolar import cli
from otsuki_bipolar.errors import (
    ConvergenceFailure,
    CountMismatch,
    VerificationFailed,
)
from otsuki_bipolar.geodesic import (
    RotationNumber,
    bipolar_chart,
    i2,
    radial_coefficients,
    solve_rotation,
)
from otsuki_bipolar.immersion import area
from otsuki_bipolar.spectrum import (
    Certificate,
    VerificationReport,
    _RadialChart,
    assemble,
    json_ready,
    expected_n2,
    lambda_functional,
    lambda_functional_bound,
    pipeline_grid_size,
    solve_radial,
    verify_theorem3,
    weyl_N,
)
from otsuki_bipolar.sturm import (
    Boundary,
    build_problem,
    count_sign_changes,
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
    # the five immersed coordinates are the rows within the threshold
    # window of 2, at their closed-form positions 2q (l = 0) and 2p - 1,
    # 2p (l = 1)
    for p, q in [(3, 5), (5, 8), (7, 10)]:
        table = cases.table((p, q))
        assert table.threshold_multiplicity() == 5
        pinned = sorted((e.l, e.i) for e in table.entries if e.pinned_two)
        assert pinned == [(0, 2 * q), (1, 2 * p - 1), (1, 2 * p)]


@pytest.mark.parametrize("pq", [(3, 5), (5, 8)])
@pytest.mark.parametrize("l, shift, multiplicity", [
    (0, 1e-3, 4), (1, -1e-3, 1)], ids=["l0-up", "l1-down"])
def test_table_measures_the_modes_at_two(pq, l, shift, multiplicity, cases):
    """The table's modes at 2 are its rows within the threshold window of
    2, by value, not by position: the l = 0 row at 2q moved up by 1e-3,
    or the l = 1 pair at 2p - 1 and 2p moved down by 1e-3, leaves the
    window, so the multiplicity at 2 drops to 4 or 1.  Every admissible
    p/q has 5, so ``assemble`` refuses such a table with CountMismatch,
    naming the l, sector and value of each row left at 2."""
    p, q = pq
    spectra = {k: cases.spectrum(pq, k) for k in range(2)}
    moved = [2 * q] if l == 0 else [2 * p - 1, 2 * p]
    lams = spectra[l].eigenvalues.copy()
    assert np.all(np.abs(lams[moved] - 2.0) <= 1e-11)
    lams[moved] += shift
    spectra[l] = dataclasses.replace(spectra[l], eigenvalues=lams)
    kept = 1 - l
    sectors = [spectra[kept].sectors[i]
               for i in ([2 * q] if kept == 0 else [2 * p - 1, 2 * p])]
    with pytest.raises(CountMismatch, match=(
            f"^Table: the kept modes within the threshold window of 2 have"
            f" multiplicity {multiplicity}, not 5: l = {kept}, sector"
            f" {sectors[0]}, lambda = ")) as err:
        assemble(cases.solution(pq), None, grid_size=cases.grid(pq),
                 spectra=spectra)
    assert str(err.value).count(f"l = {kept}, sector ") == len(sectors)


def test_table_refuses_a_sixth_row_at_two(cases, monkeypatch, capsys):
    """A row 1e-7 from 2 that is none of the five immersed coordinates
    (here level 1 of sector p + 1 at l = 1, the pair above 2, moved there
    at 3/5) would be counted at 2 and drop N(2) by its multiplicity, as
    the l = 1 neighbours of 2 at 1000/1999, 3.8e-7 away, would.  The
    multiplicity at 2 is then 7, not 5, and ``assemble`` raises
    CountMismatch, naming the rows at 2; through the CLI, ``spectrum``
    exits 3."""
    import otsuki_bipolar.spectrum as spec_mod
    p, q = 3, 5
    spectra = {k: cases.spectrum((p, q), k) for k in range(2)}
    lams = spectra[1].eigenvalues.copy()
    above = 2 * p + 1
    assert spectra[1].sectors[above] in (p + 1, 2 * q - p - 1)
    lams[above] = 2.0 + 1e-7
    spectra[1] = dataclasses.replace(spectra[1], eigenvalues=lams)
    with pytest.raises(CountMismatch, match=(
            "multiplicity 7, not 5: .*"
            f"l = 1, sector {spectra[1].sectors[above]},"
            r" lambda = 2\.0000001")):
        assemble(cases.solution((p, q)), None, spectra=spectra)
    monkeypatch.setattr(spec_mod, "_radial_spectra",
                        lambda sol, ls, *args: [spectra[l] for l in ls])
    assert cli.main(["spectrum", "--p", "3", "--q", "5"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: CountMismatch: Table: the kept modes ")
    assert len(err.strip().splitlines()) == 1


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
    the same solves: l = 0 and 1, each in its named sectors alone, and
    the ground sector at l = 2, all in one ``hill.levels`` call.  4.5
    solves no other l = 2 rows, and 6.0, past the end of the l = 0 radial
    window, does not raise.  No all-sector solve runs."""
    import otsuki_bipolar.spectrum as spec_mod
    default = verify_theorem3(RotationNumber(3, 5))
    levels, seen = hill.levels, []

    def spy(coefficients, requests):
        seen.append([l for l, *_ in requests])
        return levels(coefficients, requests)

    def refuse(*args, **kwargs):
        raise AssertionError("verify ran an all-sector solve")

    monkeypatch.setattr(spec_mod.hill, "levels", spy)
    monkeypatch.setattr(spec_mod, "solve_radial", refuse)
    monkeypatch.setattr(spec_mod, "_radial_spectra", refuse)
    monkeypatch.setattr(spec_mod, "assemble", refuse)
    assert verify_theorem3(RotationNumber(3, 5), lambda_cut=cut) == default
    assert seen == [[0, 1, 2]]


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
    """verify solves the named sectors alone, q - 1 and q at l = 0,
    p - 1, p and p + 1 at l = 1 and the ground sector 0 at l = 2, in one
    ``hill.levels`` call, each l below the first cut that holds its
    lowest four, three and one levels.  Against the full solves: those
    levels are the rows at positions 2q - 1, 2q and 2q + 1 at l = 0,
    2p - 2, 2p - 1 and 2p + 1 at l = 1, and the lowest at l = 2, to 1e-11;
    the certified levels, Hill roots, are the full solves' Hill roots of
    rows 2q - 1, 2q, 2p - 2 and 2p - 1 and of the l = 2 ground to 2e-14;
    the zero counts are the ones the full solves sample on rows 2q and
    2p - 1; N(2) is the full table's and the multiplicity its count at
    2."""
    import otsuki_bipolar.spectrum as spec_mod
    levels, calls = hill.levels, []

    def levels_spy(coefficients, requests):
        found = levels(coefficients, requests)
        calls.append((requests, found))
        return found

    monkeypatch.setattr(spec_mod.hill, "levels", levels_spy)
    report = verify_theorem3(RotationNumber(*pq))
    (requests, (found, _)), = calls
    p, q = pq
    named = {l: ks for l, ks, _, _ in _named_requests(p, q)}
    assert [l for l, *_ in requests] == [0, 1, 2]
    for (l, kappa, weights, least, reach), want in zip(requests, (4, 3, 1)):
        assert np.array_equal(kappa, np.array(named[l]) / q)
        assert (weights, least, reach) == (1, want, False)

    def level(l, j, n):
        sector, index, lam, _ = found[l]
        (value,) = lam[(sector == j) & (index == n)]
        return value

    full0, full1, full2 = (cases.spectrum(pq, l) for l in (0, 1, 2))
    got = [level(0, 1, 0), level(0, 1, 1), level(0, 0, 1), level(1, 0, 0),
           level(1, 1, 0), level(1, 2, 0), level(2, 0, 0)]
    want = [full0.eigenvalues[2 * q - 1], full0.eigenvalues[2 * q],
            full0.eigenvalues[2 * q + 1], full1.eigenvalues[2 * p - 2],
            full1.eigenvalues[2 * p - 1], full1.eigenvalues[2 * p + 1],
            full2.eigenvalues[0]]
    assert np.max(np.abs(np.subtract(got, want))) <= 1e-11
    certs = {c.name: c for c in report.certificates}
    certified = [certs["subcritical_radial_mode_below_two"].lhs,
                 certs["radial_eigenvalue_two_at_l0_position_2q"].lhs,
                 certs["l1_predecessor_below_two"].lhs,
                 certs["radial_eigenvalue_two_at_l1_position_2p_minus_1"].lhs,
                 certs["ground_l2_above_two"].rhs]
    assert np.max(np.abs(np.subtract(
        certified, [want[i] for i in (0, 1, 3, 4, 6)]))) <= 2e-14
    assert certs["ground_l2_above_potential_floor"].rhs == certified[4]
    assert certs["sin_phi_zero_count"].lhs == full0.zero_counts[2 * q]
    assert certs["l1_pair_zero_count"].lhs == full1.zero_counts[2 * p - 1]
    full_table = cases.table(pq)
    assert report.n2_computed == weyl_N(full_table, 2.0)
    assert report.threshold_multiplicity == full_table.threshold_multiplicity()


@pytest.mark.parametrize("pq", [(3, 5), (5, 8), (70, 99), (126, 251)])
def test_verify_takes_no_vector_and_one_hill_pass(pq, monkeypatch):
    """verify takes its certified levels, zero counts and parity from one
    Hill pass after the count, ``hill._roots`` at four times the count's
    steps: sin(phi) (level 2 of sector q at l = 0, the N solution) and
    the l = 1 pair (level 1 of sector p) from 2, below0 (level 1 of
    sector q, the D solution), the l = 2 ground (level 1 of sector 0, the
    N solution) and below1 (level 1 of sector p - 1 at l = 1) from their
    interpolant values.  It samples no row: neither ``_sample_rows`` nor
    ``hill._rows`` runs."""
    import otsuki_bipolar.spectrum as spec_mod
    count, roots, seen = hill.count, hill._roots, []

    def refuse(*args, **kwargs):
        raise AssertionError("verify sampled a row")

    def count_spy(*args):
        counted = count(*args)
        seen.append(counted.steps)
        return counted

    def roots_spy(coefficients, l, kappa, level, start, lam, steps):
        seen.append((tuple(l), tuple(kappa), tuple(level), tuple(start),
                     tuple(lam), steps))
        return roots(coefficients, l, kappa, level, start, lam, steps)

    monkeypatch.setattr(spec_mod, "_sample_rows", refuse)
    monkeypatch.setattr(spec_mod.hill, "_rows", refuse)
    monkeypatch.setattr(spec_mod.hill, "count", count_spy)
    monkeypatch.setattr(spec_mod.hill, "_roots", roots_spy)
    assert verify_theorem3(RotationNumber(*pq)).passed
    p, q = pq
    steps, (l, kappa, level, start, lam, pass_steps) = seen
    assert l == (0, 1, 0, 2, 1) and pass_steps == 4 * steps
    assert kappa == (1.0, p / q, 1.0, 0.0, (p - 1) / q)
    assert level == (1, 0, 0, 0, 0) and start == (0, -1, 1, 0, -1)
    assert lam[:2] == (2.0, 2.0)


def test_modes_at_two_are_two_in_the_json():
    """On the 16 reduced p/q with q <= 16, the three certified levels at 2
    (sin(phi) and the l = 1 pair) print as exactly 2 at 15 significant
    digits: each is within 5e-15 of 2."""
    fractions = _reduced_fractions(16)
    assert len(fractions) == 16
    for pq in fractions:
        report = verify_theorem3(RotationNumber(*pq), raise_on_failure=False)
        pinned = [c.lhs for c in report.certificates if c.name in _PINNED]
        assert json_ready(pinned) == [2.0, 2.0, 2.0], (pq, pinned)


def test_l1_pair_at_17_33_is_two():
    """At 17/33 the l = 1 pair, a Rayleigh quotient 1.9e-14 above 2 before
    the Hill pass, is within 5e-15 of 2."""
    certs = {c.name: c.lhs for c in verify_theorem3((17, 33)).certificates}
    for name in _PINNED[1:]:
        assert abs(certs[name] - 2.0) <= 5e-15


@pytest.mark.parametrize("row, where", [
    ((0, 1, 1), "level 2 of sector 5 at l = 0"),
    ((1, 1, 0), "level 1 of sector 3 at l = 1"),
    ((0, 1, 0), "level 1 of sector 5 at l = 0"),
    ((2, 0, 0), "level 1 of sector 0 at l = 2")],
    ids=["two0", "two1", "below0", "ground_l2"])
def test_hill_level_off_its_ladder_value_is_a_mismatch(row, where,
                                                       monkeypatch, capsys):
    """Each certified level is a Hill root and a root of the half-cell
    interpolants of ``hill.levels`` too.  At 3/5, the interpolant's value
    moved by 2e-9 stops verify with CountMismatch, exit 3, naming the
    level, sector and l; moved by 5e-10 it passes."""
    _shift_a_level(monkeypatch, *row)
    shift = _SHIFT
    shift[:] = [5e-10]
    assert verify_theorem3((3, 5)).passed
    shift[:] = [2e-9]
    with pytest.raises(CountMismatch, match=f"Hill levels: {where} is [0-9.]+"
                       " by the Hill pass but [0-9.]+ by its interpolant$"):
        verify_theorem3((3, 5))
    assert cli.main(["verify", "--p", "3", "--q", "5"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: CountMismatch: Hill levels: ")


def test_row_off_its_ladder_value_is_a_mismatch(monkeypatch, capsys):
    """Each window row of ``solve_radial`` is a Hill root and a root of
    the half-cell interpolants too.  At 3/5, l = 0, level 2 of sector 1
    moved by 2e-9 on the interpolant stops ``spectrum`` with
    CountMismatch, exit 3, naming the level, sector and l; moved by 5e-10
    it passes."""
    _shift_a_level(monkeypatch, 0, 1, 1)
    sol = solve_rotation(RotationNumber(3, 5))
    _SHIFT[:] = [5e-10]
    solve_radial(sol, None, 0, 2048)
    _SHIFT[:] = [2e-9]
    with pytest.raises(CountMismatch, match="Hill levels: level 2 of sector 1"
                       " at l = 0 is [0-9.]+ by the Hill pass but [0-9.]+ by"
                       " its interpolant$"):
        solve_radial(sol, None, 0, 2048)
    assert cli.main(["spectrum", "--p", "3", "--q", "5"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: CountMismatch: Hill levels: level 2 of")


_SHIFT = []     # the shift ``_shift_a_level`` adds


def _shift_a_level(monkeypatch, l, j, n):
    """Patch ``hill.levels`` to add ``_SHIFT[0]`` to level n (from 0) of
    the sector j of its request at l, wherever that request is."""
    import otsuki_bipolar.spectrum as spec_mod
    levels = hill.levels

    def moved(coefficients, requests):
        found, steps = levels(coefficients, requests)
        for (at, *_), (sector, level, lam, _) in zip(requests, found):
            if at == l:
                lam[(sector == j) & (level == n)] += _SHIFT[0]
        return found, steps

    monkeypatch.setattr(spec_mod.hill, "levels", moved)


def _record_sample_rows(monkeypatch):
    """Patch ``spectrum._sample_rows`` to record the arguments of each
    call; returns the unpatched function and the list of calls."""
    import otsuki_bipolar.spectrum as spec_mod
    sample, calls = spec_mod._sample_rows, []

    def spy(*args):
        calls.append(args)
        return sample(*args)

    monkeypatch.setattr(spec_mod, "_sample_rows", spy)
    return sample, calls


def test_verify_and_the_values_only_table_build_no_t_chart(monkeypatch):
    """verify takes t0 from the mean of W and samples no row, and
    cross-check's values-only table samples none either, so neither
    builds the geodesic's t-chart x(t): with it refused, both
    give what they gave with it.  A solve that samples its rows in t
    builds it once, on first use, for every l its chart serves."""
    import otsuki_bipolar.spectrum as spec_mod
    pqs = [(3, 5), (5, 8), (70, 99), (50, 99)]
    sol = solve_rotation(RotationNumber(3, 5))
    reports = [verify_theorem3(RotationNumber(*pq)).to_dict() for pq in pqs]
    payload = oracle.cross_check(sol, 96, 768, 2.5)
    chart_of, built = spec_mod.bipolar_chart, []

    def refuse(b):
        raise AssertionError("the t-chart was built")

    monkeypatch.setattr(spec_mod, "bipolar_chart", refuse)
    assert [verify_theorem3(RotationNumber(*pq)).to_dict()
            for pq in pqs] == reports
    assert oracle.cross_check(sol, 96, 768, 2.5) == payload

    def build(b):
        built.append(b)
        return chart_of(b)

    monkeypatch.setattr(spec_mod, "bipolar_chart", build)
    chart = _RadialChart(sol.b, 5)
    assert built == []
    for l in (0, 1):
        spec = solve_radial(sol, None, l, 2048, chart=chart)
        assert np.all(spec.zero_counts >= 0)
    assert built == [sol.b]


@pytest.mark.parametrize("pq", [(3, 5), (5, 8), (41, 58), (50, 99)])
def test_zero_counts_do_not_depend_on_the_grid(pq, monkeypatch):
    """Every row of the full l = 0 and l = 1 solves has the same zero
    count on the uniform x-grid, where the sweep's second route counts
    verify's rows, as on the uniform t-grid (``chart.x_samples``), where
    ``solve_radial`` samples."""
    sample, calls = _record_sample_rows(monkeypatch)
    sol = solve_rotation(RotationNumber(*pq))
    chart = _RadialChart(sol.b, pq[1])
    for l in (0, 1):
        spec = solve_radial(sol, None, l, 2048, chart=chart)
        args = calls[-1]
        per_half = args[8].size
        assert args[8] is chart.x_samples(per_half)
        x_grid = np.arange(per_half) * (math.pi / per_half)
        counts = sample(*args[:8], x_grid, args[9])[1]
        assert np.all(spec.zero_counts >= 0)
        assert np.array_equal(counts, spec.zero_counts)


@pytest.mark.parametrize("pq", [(3, 5), (41, 58), (70, 99), (50, 99),
                                (126, 251), (1000, 1999), (2500, 4999)])
def test_t_half_is_the_bipolar_chart_length(pq):
    """``_RadialChart.t_half``, pi times the mean of W = dt/dx over a
    cell from its FFT on 2048 nodes, is the bipolar geodesic chart's
    length to the bit, both where that chart's own FFT takes 2048 nodes
    and at 1000/1999 and 2500/4999, where it takes 8192.  (At 5000/9999,
    on 16384 nodes, they differ by one ulp.)  The period t0 is the
    quadrature's to 1e-10 relative."""
    sol = solve_rotation(RotationNumber(*pq))
    chart = _RadialChart(sol.b, pq[1])
    assert chart.t_half == bipolar_chart(sol.b).length
    assert abs(chart.t0 - sol.t0) <= 1e-10 * sol.t0


@pytest.mark.parametrize("pq", [(2, 3), (3, 5), (5, 8), (7, 13), (41, 58),
                                (70, 99), (50, 99), (126, 251)])
def test_sin_phi_row_is_cos_x(pq, monkeypatch):
    """On the uniform x-grid sin(phi) = sin(b) cos(x), so row 2q of the
    full l = 0 solve, sampled there and unit-normalized, is cos x / |cos x|
    up to sign, to 1e-12.  Its band partner, row 2q - 1 (level 1 of sector
    q), has the same 2q zeros but lies farther than 1e-3 from it, so this
    tells the two apart where the ``sin_phi_zero_count`` certificate
    cannot.  So does their parity about x = 0, sum_j h(x_j) h(-x_j) /
    sum_j h(x_j)^2, +1 for sin(phi) and -1 for the partner to 1e-12: the
    Hill route takes sin(phi) from the N solution and the partner from the
    D one.  verify certifies that parity as ``sin_phi_row_is_even`` from
    its Hill pass: the N-D problem, whose levels are even about 0, holds
    its level at 2 and the D-N problem does not."""
    sample, calls = _record_sample_rows(monkeypatch)
    p, q = pq
    spec = solve_radial(solve_rotation(RotationNumber(*pq)), None, 0, 2048,
                        sampled_sectors={q})
    (args,) = calls
    rows = np.flatnonzero(spec.sectors == q)    # the sampled rows, in order
    assert spec.sectors[2 * q - 1] == spec.sectors[2 * q] == q
    per_half = spec.grid.size // (2 * q)
    x_loc = np.arange(per_half) * (math.pi / per_half)
    on_x = sample(*args[:8], x_loc, args[9])[0]
    sin_phi, partner = (on_x[np.searchsorted(rows, i)]
                        for i in (2 * q, 2 * q - 1))
    cos_x = np.cos(np.arange(2 * q * per_half) * (math.pi / per_half))
    cos_x /= np.linalg.norm(cos_x)

    def distance(row):
        row = row / np.linalg.norm(row)
        return min(np.max(np.abs(row - cos_x)), np.max(np.abs(row + cos_x)))

    def parity(row):
        return (row @ np.roll(row[::-1], 1)) / (row @ row)

    assert distance(sin_phi) <= 1e-12
    assert distance(partner) > 1e-3
    assert abs(parity(sin_phi) - 1.0) <= 1e-12
    assert abs(parity(partner) + 1.0) <= 1e-12
    report = verify_theorem3(RotationNumber(*pq))
    cert = next(c for c in report.certificates
                if c.name == "sin_phi_row_is_even")
    assert (cert.lhs, cert.rhs, cert.passed) == (1.0, 1.0, True)


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


def test_orient_rows_makes_the_first_sample_at_six_tenths_of_the_peak_positive():
    rows = np.array([[0.2, -1.0, 0.6, 1.0],
                     [0.1, 0.45, -0.7, -0.8],
                     [0.1, 0.5, -0.7, -0.8],
                     [0.0, 0.0, 0.0, 0.0]])
    assert orient_rows(rows).tolist() == [[-0.2, 1.0, -0.6, -1.0],
                                          [-0.1, -0.45, 0.7, 0.8],
                                          [0.1, 0.5, -0.7, -0.8],
                                          [0.0, 0.0, 0.0, 0.0]]


@pytest.mark.parametrize("pq", [(2, 3), (5, 9), (7, 12), (11, 18), (13, 21),
                                (50, 99)])
def test_row_orientation_clears_its_threshold(pq):
    """With 3 | q a row that peaks at x = 0 has samples of exactly half its
    peak, h(0) cos(pi k j/q), so a threshold of 1/2 left its sign to
    rounding (at 50/99, l = 0, row 195 took opposite signs on two routes).
    No |cos(r pi)| with r rational is 0.6 (Niven's theorem).  Every row of
    l = 0 and 1, periodic and antiperiodic: its first sample at 0.6 of its
    peak or more is positive, and it and every sample before it clear 0.6
    of the peak by 1e-9 of the peak."""
    sol = solve_rotation(RotationNumber(*pq))
    chart = _RadialChart(sol.b, pq[1])
    for l in (0, 1):
        for boundary in Boundary:
            rows = solve_radial(sol, None, l, 2048, boundary,
                                chart=chart).eigenfunctions
            mag = np.abs(rows) / np.abs(rows).max(axis=1, keepdims=True)
            first = np.argmax(mag >= 0.6, axis=1)
            assert np.all(rows[np.arange(first.size), first] > 0.0)
            decided = np.arange(mag.shape[1]) <= first[:, None]
            assert np.min(np.abs(mag - 0.6)[decided]) >= 1e-9, (l, boundary)


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
    2p - 1 and 2p), reported as Hill roots, lie within 2e-14 of 2 (as
    reduced eigenvalues they missed it by up to 2.7e-12 on q <= 40, and as
    Rayleigh quotients by up to 1.9e-14)."""
    report = verify_theorem3(RotationNumber(*pq), raise_on_failure=False)
    assert report.passed, report.first_failure()
    assert report.n2_computed == expected_n2(RotationNumber(*pq))
    assert report.threshold_multiplicity == 5
    assert report.eps_grid == 1e-10     # the tolerance of hill.levels
    pinned = [c.lhs for c in report.certificates if c.name in _PINNED]
    assert len(pinned) == 3
    assert max(abs(lam - 2.0) for lam in pinned) <= 2e-14, pinned


_FOURIER = {}   # b -> the Fourier coefficients of P, S and W


def _fourier(b):
    """f_j of f(x) = sum_j f_j e^{2ijx} for P, S and W of the chart of b
    (real and even in j), j >= 0, from one real FFT of 2048 samples over
    a cell, kept per b."""
    if b not in _FOURIER:
        x = np.arange(2048) * (math.pi / 2048)
        _FOURIER[b] = np.fft.rfft(np.array(radial_coefficients(b, x))
                                  ).real / 2048
    return _FOURIER[b]


def _dense_forms(chart, kappa, l, modes):
    """The Fourier-Galerkin reduction of the radial problem at M modes per
    sector: h = e^{i kappa x} sum_{|m| <= M} c_m e^{2imx} turns it into
    A c = lambda T_W c.  Returns A = D T_P D + l^2 T_S of each sector kappa
    (D = diag(kappa + 2m), T_f the Toeplitz matrix of f_j) and T_W,
    dense."""
    p_hat, s_hat, w_hat = _fourier(chart.b)
    m = np.arange(-modes, modes + 1)
    lag = np.abs(m[:, None] - m[None, :])
    d = kappa[:, None] + 2.0 * m
    return (d[:, :, None] * p_hat[lag] * d[:, None, :]
            + l * l * s_hat[lag]), w_hat[lag]


def _galerkin_reference(chart, l, kappa, modes, keep=None):
    """The lowest ``keep`` (default all) Galerkin levels of the sectors
    kappa at M, independently of the library's solver: ``np.linalg.eigh``
    of each sector's L^-1 A L^-T, for L the Cholesky factor of T_W, one
    sector at a time.  Returns the eigh values, the coefficient vectors
    c = L^-T y (sector, level, mode) and their Rayleigh quotients
    c^T A c / c^T T_W c in the unreduced form."""
    lam, coef, rho = [], [], []
    for k in kappa:
        (a,), t_w = _dense_forms(chart, np.array([k]), l, modes)
        l_inv = np.linalg.inv(np.linalg.cholesky(t_w))
        values, y = np.linalg.eigh(l_inv @ a @ l_inv.T)
        values, c = values[:keep], (l_inv.T @ y[:, :keep]).T
        lam.append(values)
        coef.append(c)
        rho.append(np.einsum("ni,ij,nj->n", c, a, c)
                   / np.einsum("ni,ij,nj->n", c, t_w, c))
    return np.array(lam), np.array(coef), np.array(rho)


def _galerkin_rows(kappa, coef, imag, x, q):
    """Galerkin levels h = e^{i kappa x} sum_m c_m e^{2imx} sampled at x,
    one per row: Im h where ``imag``, else Re h, and h of an edge sector
    (kappa = 0, 1) turned real by half the phase of sum h^2.  c^T T_W c =
    1 makes |h|^2 integrate to 2 q pi in t over the period, q pi in each of
    Re h and Im h of a conjugate pair.  Signed by ``orient_rows``."""
    m = np.arange(coef.shape[1]) - coef.shape[1] // 2
    h = (np.exp(1j * np.multiply.outer(kappa, x))
         * (coef @ np.exp(2j * np.multiply.outer(m, x))))
    edge = np.isin(kappa, (0.0, 1.0))
    h[edge] *= np.exp(-0.5j * np.angle(np.sum(h[edge] ** 2, axis=1)))[:, None]
    rows = np.where(imag[:, None], h.imag, h.real)
    return orient_rows(rows / np.sqrt(np.where(edge, 2.0, 1.0) * q
                                      * math.pi)[:, None])


def _reference_window(chart, l, q, modes, anti, count):
    """The window of the reference at M, as ``solve_radial`` forms it from
    its sectors: every level with its conjugate partner's copy (the
    imaginary part), sorted by Rayleigh quotient, the lowest ``count``.
    Returns the reduced eigh values, the Rayleigh quotients, and per row
    its kappa, coefficient vector and whether it is Im h.  Each sector
    keeps its lowest 12 levels, and none of the window is its 12th."""
    ks = np.arange(q if anti else q + 1)
    kappa = (ks + (0.5 if anti else 0.0)) / q
    paired = ((2 * q - 1 - ks) if anti else (2 * q - ks) % (2 * q)) != ks
    lam, coef, rho = _galerkin_reference(chart, l, kappa, modes, keep=12)
    flat = np.concatenate([np.arange(lam.size),
                           np.flatnonzero(np.repeat(paired, lam.shape[1]))])
    imag = np.arange(flat.size) >= lam.size
    order = np.lexsort((imag, rho.ravel()[flat]))[:count]
    flat, imag = flat[order], imag[order]
    sector, level = np.divmod(flat, lam.shape[1])
    assert level.max() < lam.shape[1] - 1
    return (lam.ravel()[flat], rho.ravel()[flat], kappa[sector],
            coef[sector, level], imag)


@pytest.mark.parametrize("pq", [(3, 5), (5, 8)])
@pytest.mark.parametrize("l", [0, 1])
def test_rows_of_vector_sectors_are_rayleigh_quotients(pq, l):
    """With every sector sampled, each window row is its Hill root: the
    Rayleigh quotient of the test-local Galerkin vector at M = 16 (which
    settles these windows to 1e-10) to 1e-13 (relative above 1), not the
    reduced eigensolve's value, which differs from it by more than
    1e-14."""
    sol = solve_rotation(RotationNumber(*pq))
    chart = _RadialChart(sol.b, pq[1])
    spec = solve_radial(sol, None, l, 8 * pq[1], chart=chart)
    lam, rho, *_ = _reference_window(chart, l, pq[1], 16, False,
                                     spec.eigenvalues.size)
    scale = np.maximum(rho, 1.0)
    assert np.max(np.abs(spec.eigenvalues - rho) / scale) <= 1e-13
    assert np.max(np.abs(lam - rho) / scale) > 1e-14


@pytest.mark.parametrize("pq", [(3, 5), (5, 8)])
@pytest.mark.parametrize("l", [0, 1])
def test_sampling_one_sector_keeps_its_rows(pq, l):
    """``sampled_sectors`` naming one sector, q at l = 0 or p at l = 1,
    against the full solve on the same chart: every value and sector is
    the same bits, and so are the samples and zero counts of that
    sector's rows; every other row has NaN samples and zero count -1."""
    p, q = pq
    k = q if l == 0 else p
    sol = solve_rotation(RotationNumber(*pq))
    chart = _RadialChart(sol.b, q)
    full = solve_radial(sol, None, l, 2048, chart=chart)
    part = solve_radial(sol, None, l, 2048, chart=chart, sampled_sectors={k})
    assert np.array_equal(part.sectors, full.sectors)
    assert np.array_equal(part.eigenvalues, full.eigenvalues)
    named = part.sectors == k
    assert 0 < named.sum() < named.size
    for got, want in ((part.eigenfunctions, full.eigenfunctions),
                      (part.zero_counts, full.zero_counts)):
        assert np.array_equal(got[named], want[named])
    assert np.all(np.isnan(part.eigenfunctions[~named]))
    assert np.all(part.zero_counts[~named] == -1)


@pytest.mark.parametrize("boundary", [Boundary.PERIODIC,
                                      Boundary.ANTIPERIODIC])
def test_sampling_a_sector_of_no_row_samples_nothing(boundary):
    """``sampled_sectors`` that names no row of the window (at 3/5, 2q =
    10 is not a sector) leaves every row with NaN samples and zero count
    -1, and its values and sectors are the same bits as the full
    solve's."""
    sol = solve_rotation(RotationNumber(3, 5))
    chart = _RadialChart(sol.b, 5)
    full = solve_radial(sol, None, 0, 2048, boundary, chart=chart)
    part = solve_radial(sol, None, 0, 2048, boundary, chart=chart,
                        sampled_sectors={10})
    assert np.array_equal(part.sectors, full.sectors)
    assert np.array_equal(part.eigenvalues, full.eigenvalues)
    assert np.all(np.isnan(part.eigenfunctions))
    assert np.all(part.zero_counts == -1)


def _direct_sector_matrices(chart, kappa, l, modes):
    """L^-1 (D T_P D + l^2 T_S) L^-T of each sector by two dense products,
    with L^-1 from the Cholesky factor of T_W."""
    a, t_w = _dense_forms(chart, kappa, l, modes)
    l_inv = np.linalg.inv(np.linalg.cholesky(t_w))
    return l_inv @ a @ l_inv.T


@pytest.mark.parametrize("pq", [(3, 5), (9, 16), (50, 99)])
def test_sector_matrices_match_the_direct_reduction(pq):
    """At l = 0, 1 and 2, on the periodic sectors 0, p and q and the
    antiperiodic sector q - 1 (kappa = 0, p/q, 1 and (q - 1/2)/q: both
    edge sectors and two interior ones), ``hill.levels`` below the cut
    that holds eight of their levels are the eigenvalues of the direct
    reduction's sector matrices at M = 128, the second route (eigh), to
    1e-10 relative above 1."""
    p, q = pq
    chart = _RadialChart(solve_rotation(RotationNumber(*pq)).b, q)
    kappa = np.array([0.0, p / q, 1.0, (q - 0.5) / q])
    for l in (0, 1, 2):
        ((sector, level, lam, _),), _ = hill.levels(
            chart.coefficients, [(l, kappa, 1, 8, False)])
        direct = np.linalg.eigh(_direct_sector_matrices(chart, kappa, l,
                                                        128))[0]
        want = direct[sector, level]
        assert np.max(np.abs(lam - want) / np.maximum(want, 1.0)) <= 1e-10, l
        assert np.all(np.sum(direct < lam.max(), axis=1)
                      <= np.bincount(sector, minlength=4) + 1)


@pytest.mark.parametrize("pq", [(3, 5), (7, 11)])
def test_eigenvectors_only_at_the_stop_m(pq, monkeypatch):
    """No full eigensolve runs: the rows come from one Hill pass per l
    (``hill._roots``), one column pair per level it roots, each started
    from its value by ``hill.levels`` (in a full solve, fewer levels than
    the window has rows: a conjugate pair's two rows share one level).
    verify takes l = 0, 1 and 2 from one ``hill.levels`` call and samples
    no row."""
    import otsuki_bipolar.spectrum as spec_mod
    roots, levels, calls, found = hill._roots, hill.levels, [], []

    def refuse(*args, **kwargs):
        raise AssertionError("a full eigensolve ran")

    def roots_spy(coefficients, l, kappa, level, start, lam, steps):
        calls.append((np.array(kappa), np.array(level), np.array(lam)))
        return roots(coefficients, l, kappa, level, start, lam, steps)

    def levels_spy(coefficients, requests):
        out = levels(coefficients, requests)
        found.append(([(l, kappa) for l, kappa, *_ in requests], out[0]))
        return out

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    monkeypatch.setattr(spec_mod.hill, "_roots", roots_spy)
    monkeypatch.setattr(spec_mod.hill, "levels", levels_spy)
    p, q = pq
    sol = solve_rotation(RotationNumber(*pq))
    chart = _RadialChart(sol.b, q)
    spec = solve_radial(sol, None, 1, 8 * q, chart=chart)
    (kappa, level, lam), = calls
    ((((_, sectors),), ((sector, index, values, _),)),) = found
    seeds = {(k, n): v for k, n, v in zip(sectors[sector], index, values)}
    assert lam.tolist() == [seeds[k, n] for k, n in zip(kappa, level)]
    assert set(np.rint(kappa * q).astype(int)) == set(range(q + 1))
    assert lam.size < spec.eigenvalues.size
    calls.clear()
    found.clear()
    monkeypatch.setattr(spec_mod, "_sample_rows", refuse)
    verify_theorem3(RotationNumber(*pq))
    assert [[l for l, _ in requests] for requests, _ in found] == [[0, 1, 2]]
    assert len(calls) == 1


def test_pencil_is_built_once_per_m_per_chart(monkeypatch):
    """verify's named-sector solves at l = 0 and 1 and the ground level at
    l = 2 share one chart and one ``hill.levels`` call, which takes two
    passes of the lambda-affine Magnus steps: one over the first
    candidate cut of each l at 64 and 128 steps per cell, and one over the 16
    Chebyshev nodes in lambda of each l at 128.  Each pass evaluates the
    coefficients P, S and W once, for every l and lambda it serves."""
    import otsuki_bipolar.spectrum as spec_mod
    steps, levels, evaluations, passes = hill._steps, hill.levels, [], []

    def steps_spy(coefficients, l, lam, sizes):
        if coefficients is counted:
            passes.append((tuple(sizes), sorted(set(np.asarray(l).tolist())),
                           np.size(lam)))
        return steps(coefficients, l, lam, sizes)

    def counted(x):
        evaluations.append(np.size(x))
        return coefficients[0](x)

    coefficients = []

    def levels_spy(given, requests):
        coefficients.append(given)
        found = levels(counted, requests)
        passes.append(len(evaluations))
        return found

    monkeypatch.setattr(spec_mod.hill, "_steps", steps_spy)
    monkeypatch.setattr(spec_mod.hill, "levels", levels_spy)
    verify_theorem3(RotationNumber(7, 11))
    assert passes == [((64, 128), [0, 1, 2], 3), ((128,), [0, 1, 2], 48),
                      2]


def _window_against_m_256(pq):
    sol = solve_rotation(RotationNumber(*pq))
    chart = _RadialChart(sol.b, pq[1])
    for l in (0, 1):
        spec = solve_radial(sol, None, l, 8 * pq[1], chart=chart)
        count = spec.eigenvalues.size
        rho = _reference_window(chart, l, pq[1], 256, False, count)[1]
        assert np.max(np.abs(spec.eigenvalues - rho)) <= 1e-10


def test_window_is_the_m_256_window():
    """On 4/7 the window lies within 1e-10 of the test-local Rayleigh
    quotients at M = 256.  (The reduced eigenvalues at M = 256 carry up to
    3.6e-10 of rounding on q <= 16.)"""
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
    ``hill.levels`` on Bloch sector 0 alone (as verify takes its l = 2
    ground) finds the same lowest eigenvalue as the all-sector solve, to
    the levels' tolerance, 1e-10 (6.0e-11 apart at 51/101, l = 3, near the
    1/2 end, where the half-cell entries grow through the barrier)."""
    sol = solve_rotation(RotationNumber(*pq))
    chart = _RadialChart(sol.b, pq[1])
    for l in (2, 3):
        spec = solve_radial(sol, None, l, 8 * pq[1], chart=chart,
                            sampled_sectors=())
        assert spec.eigenvalues[0] >= l * l
        ((_, _, lam, _),), _ = hill.levels(chart.coefficients,
                                           [(l, np.zeros(1), 1, 1, False)])
        assert abs(lam[0] - spec.eigenvalues[0]) <= 1e-10
        assert lam[0] >= l * l


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
    """verify's levels at l = 2, on sector 0 alone, stop at the step cap
    as ``solve_radial``'s do: ConvergenceFailure naming l and the Magnus
    steps per cell (here with a cap of 512 and no change small enough)."""
    monkeypatch.setattr(hill, "_LEVEL_TOL", 0.0)
    monkeypatch.setattr(hill, "_MAX_STEPS", 512)
    sol = solve_rotation(RotationNumber(3, 5))
    with pytest.raises(ConvergenceFailure, match=r"at l = 2 not resolved at"
                       r" 512 Magnus steps per cell"):
        hill.levels(_RadialChart(sol.b, 5).coefficients,
                    [(2, np.zeros(1), 1, 1, False)])


def _named_requests(p, q):
    """verify's named sectors: per l, (l, its sectors, the row of the one
    whose levels are certified, how many of its lowest levels are)."""
    return ((0, (q - 1, q), 1, 2), (1, (p - 1, p, p + 1), 1, 1),
            (2, (0,), 0, 1))


def _certified_levels(chart, requests):
    """The Galerkin route through named sectors, apart from the Hill
    route: per request (see ``_named_requests``), the test-local eigh of
    its certified sector at the first M of 16, 32, ... 256 at which its
    asked levels, as Rayleigh quotients, move by less than 1e-10 from the
    M before.  Per request: (that M, the asked levels, their coefficient
    vectors)."""
    named = []
    for l, ks, j, count in requests:
        kappa, modes, before = np.array(ks[j:j + 1]) / chart.q, 16, None
        while True:
            _, coef, rho = _galerkin_reference(chart, l, kappa, modes,
                                               keep=count)
            if modes == 256 or (before is not None
                                and np.max(np.abs(rho[0] - before)) < 1e-10):
                break
            before, modes = rho[0], 2 * modes
        named.append((modes, rho[0], coef[0, :count]))
    return named


def _sampled_zero_counts_and_parity(pq):
    """The Galerkin route's zero counts and parity, with no Hill pass:
    rows 2q (level 2 of sector q at l = 0) and 2p - 1 (level 1 of sector
    p at l = 1, Re h) by the test-local eigh in their named sectors,
    sampled on the uniform x-grid (``_galerkin_rows``), and the sign of
    sum_m c_m c_{-1-m} of row 2q."""
    p, q = pq
    chart = _RadialChart(solve_rotation(RotationNumber(*pq)).b, q)
    per_half = pipeline_grid_size(2048, q) // (2 * q)
    x = np.arange(2 * q * per_half) * (math.pi / per_half)
    requests = _named_requests(p, q)[:2]
    counts = []
    for (l, _, j, _), (_, _, vectors) in zip(
            requests, _certified_levels(chart, requests)):
        coef = vectors[-1:]     # level 2 of sector q; level 1 of sector p
        row = _galerkin_rows(np.array([(q, p)[l] / q]), coef,
                             np.zeros(1, bool), x, q)
        counts.append(int(count_sign_changes(row)[0]))
        if l == 0:
            parity = int(np.sign(coef[0, :-1] @ coef[0, -2::-1]))
    return counts, parity


@pytest.mark.sweep
@pytest.mark.parametrize("pq", _reduced_fractions(100) + [
    (101, 201), (126, 251), (250, 499), (500, 999)])
def test_hill_zero_counts_and_parity_match_the_sampled_rows_sweep(pq):
    """The 634 fractions of ``tools/compare_verify.py``: verify's zero
    counts and ``sin_phi_row_is_even``, from its Hill pass, equal the
    sign changes of the Galerkin rows 2q and 2p - 1 and the coefficient
    parity of row 2q.  The rows are taken in their named sectors alone:
    a full reference at 500/999 would hold every sector's matrices at
    M = 256, over 2 GB."""
    certs = {c.name: c.lhs for c in verify_theorem3(pq).certificates}
    (zeros0, zeros1), parity = _sampled_zero_counts_and_parity(pq)
    assert (certs["sin_phi_zero_count"], certs["l1_pair_zero_count"]) == (
        zeros0, zeros1)
    assert certs["sin_phi_row_is_even"] == parity == 1


def _one_pass_against_per_l_ladders(pq):
    """verify's one ``hill.levels`` call over l = 0, 1 and 2 gives each l
    what a call of that l alone gives: the same cut, sectors, levels and
    starts, and values to 1e-10 (a call takes the most Magnus steps and
    Chebyshev nodes any of its l needs, so the bits may differ)."""
    p, q = pq
    chart = _RadialChart(solve_rotation(RotationNumber(*pq)).b, q)
    requests = [(l, np.array(ks) / q, 1, least, False) for (l, ks, _, _), least
                in zip(_named_requests(p, q), (4, 3, 1))]
    together, _ = hill.levels(chart.coefficients, requests)
    for request, (sector, level, lam, start) in zip(requests, together):
        ((alone_sector, alone_level, alone, alone_start),), _ = hill.levels(
            chart.coefficients, [request])
        assert np.array_equal(sector, alone_sector), request[0]
        assert np.array_equal(level, alone_level)
        assert np.array_equal(start, alone_start)
        assert np.max(np.abs(lam - alone)) <= 1e-10


def test_one_ladder_stops_each_l_where_its_own_ladder_does():
    """On the 16 reduced p/q with q <= 16, 9/17 and 15/29."""
    for pq in _reduced_fractions(16) + [(9, 17), (15, 29)]:
        _one_pass_against_per_l_ladders(pq)


@pytest.mark.sweep
@pytest.mark.parametrize("pq", _reduced_fractions(40))
def test_one_ladder_stops_each_l_where_its_own_ladder_does_sweep(pq):
    """The 100 reduced p/q with q <= 40."""
    _one_pass_against_per_l_ladders(pq)


# Fourier modes per sector of the test-local reference of each (p/q, l) of
# the row tests: twice the M that settles their windows to 1e-10, at most
# 256, since the rows at that M can be off by more (4.5e-10 at 50/99,
# l = 1, near the window's top).
_ROW_MODES = {(3, 5): (32, 32, 32), (9, 17): (64, 64, 48),
              (41, 58): (32, 32, 32), (50, 99): (192, 128, 96),
              (126, 251): (256, 256, 128)}


def _hill_rows_match_eigh(pq, l, boundary, row_tol=1e-10):
    """Every window row of ``solve_radial``, value and samples, against
    the test-local eigh reference (``_reference_window``) at the M of
    ``_ROW_MODES``.  The values agree to 1e-13 of the reference's
    Rayleigh quotients (relative above 1), and the rows, sampled on the
    same t-grid and signed by ``orient_rows``, to ``row_tol`` pointwise."""
    p, q = pq
    anti = boundary is Boundary.ANTIPERIODIC
    sol = solve_rotation(RotationNumber(*pq))
    chart = _RadialChart(sol.b, q)
    spec = solve_radial(sol, None, l, 2048, boundary, chart=chart)
    count = spec.eigenvalues.size
    _, rho, kappa, coef, imag = _reference_window(
        chart, l, q, _ROW_MODES[pq][(0, 1, 3).index(l)], anti, count)
    per_half = spec.grid.size // (2 * q)
    x = (np.arange(2 * q)[:, None] * math.pi
         + chart.x_samples(per_half)).ravel()
    scale = np.maximum(rho, 1.0)
    assert np.max(np.abs(spec.eigenvalues - rho) / scale) <= 1e-13
    rows = _galerkin_rows(kappa, coef, imag, x, q)
    assert np.max(np.abs(spec.eigenfunctions - rows)) <= row_tol


@pytest.mark.parametrize("pq", [(3, 5), (9, 17), (41, 58)])
@pytest.mark.parametrize("l", [0, 1, 3])
@pytest.mark.parametrize("boundary", list(Boundary),
                         ids=lambda b: b.name.lower())
def test_hill_rows_match_eigh(pq, l, boundary):
    _hill_rows_match_eigh(pq, l, boundary)


@pytest.mark.sweep
@pytest.mark.parametrize("pq", [(50, 99), (126, 251)])
@pytest.mark.parametrize("l", [0, 1, 3])
@pytest.mark.parametrize("boundary", list(Boundary),
                         ids=lambda b: b.name.lower())
def test_hill_rows_match_eigh_sweep(pq, l, boundary):
    """50/99 and 126/251, near the 1/2 end.  At l = 3 there a barrier at
    x = 0 splits each cell's well from the next, the bands are narrow, and
    the half-cell solutions grow through the barrier, so the small
    entries of their products lose relative precision: at 126/251 the rows
    move by up to 6.8e-10 between 512, 1024, 2048 and 4096 Magnus steps
    per cell, and they are held to 1e-9 there (4.5e-10 measured; 2.4e-11
    at 50/99)."""
    _hill_rows_match_eigh(pq, l, boundary,
                          row_tol=1e-9 if pq == (126, 251) and l == 3
                          else 1e-10)


def test_near_double_edge_pairs_are_the_even_and_odd_solutions():
    """At 41/58, near the sqrt(2)/2 end, the gaps at kappa = 0 and 1 all
    but close: levels 2 and 3 of sector 0 (near 7.995) lie 4e-6 apart at
    l = 0, and levels 3 and 4 of sector q (near 17.99) closer still.  Each
    pair's two levels are zeros of two different half-cell entries, one
    of the N solution and one of the D one, and their two rows are the N
    and the D half-cell solutions, even and odd about x = 0 to 1e-12 on
    the uniform x-grid, and orthonormal in t (the sum of W h_i h_j over
    that grid) to 1e-12."""
    import otsuki_bipolar.spectrum as spec_mod
    sol = solve_rotation(RotationNumber(41, 58))
    chart = _RadialChart(sol.b, 58)
    ((sector, index, lam, start),), _ = hill.levels(
        chart.coefficients, [(0, np.array([0.0, 1.0]), 1, 8, False)])
    pick = np.array([np.flatnonzero((sector == j) & (index == n))[0]
                     for j, n in ((0, 1), (0, 2), (1, 2), (1, 3))])
    ks, kappa = np.array([0, 0, 58, 58]), np.array([0.0, 0.0, 1.0, 1.0])
    level, values, start = index[pick], lam[pick], start[pick]
    assert 0.0 < values[1] - values[0] <= 1e-5
    assert 0.0 < values[3] - values[2] <= values[1] - values[0]
    assert sorted(start[:2]) == sorted(start[2:]) == [0, 1]
    roots, _, pass_ = spec_mod._hill_roots(
        chart.coefficients, 0, ks, kappa, level, start, values, values,
        spec_mod._HILL_STEPS)
    assert roots[0] <= roots[1] and roots[2] <= roots[3]
    per_half = 256
    x = np.arange(per_half) * (math.pi / per_half)
    rows, _ = spec_mod._sample_rows(chart, 0, kappa, roots, start, pass_,
                                    np.arange(4), np.zeros(4, bool), x,
                                    False)
    parity = (rows * np.roll(rows[:, ::-1], 1, axis=1)).sum(axis=1) / (
        rows * rows).sum(axis=1)
    assert np.max(np.abs(parity - np.where(start == 0, 1.0, -1.0))) <= 1e-12
    w = chart.coefficients(np.arange(rows.shape[1]) * (math.pi / per_half))[2]
    for pair in (rows[:2], rows[2:]):
        gram = (pair * w) @ pair.T * (math.pi / per_half)
        assert np.max(np.abs(gram - np.eye(2))) <= 1e-12


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
