"""The Hill-discriminant count: monodromy, half-cell edges, sector counts."""

import dataclasses
import math

import numpy as np
import pytest

from otsuki_bipolar import cli, hill
from otsuki_bipolar.errors import ConvergenceFailure, CountMismatch, DomainError
from otsuki_bipolar.geodesic import (
    RotationNumber,
    radial_coefficients,
    solve_rotation,
    xi,
)
from otsuki_bipolar.spectrum import (
    assemble,
    expected_n2,
    solve_radial,
    verify_theorem3,
    weyl_N,
)

# Far below every gap at 2 for q <= 300 (the smallest, the l = 1 gaps
# near 1/2, is ~1e-6 at q = 300).
DELTA = 1e-8


def _reduced_fractions(q_max):
    return [(p, q) for q in range(3, q_max + 1) for p in range(1, q)
            if math.gcd(p, q) == 1 and q < 2 * p and 2 * p * p < q * q]


def _coefficients(pq):
    b = solve_rotation(RotationNumber(*pq)).b
    return lambda x: radial_coefficients(b, x)


def _constant(x):
    one = np.ones_like(x)
    return one, one, one


@pytest.mark.parametrize("pq", [(3, 5), (7, 10), (41, 58), (70, 99),
                                (50, 99), (126, 251)])
def test_trace_at_two_is_closed_form(pq):
    """sin(phi) ~ cos x is a solution at 2 with l = 0, of multiplier -1,
    and the l = 1 coordinate pair has multiplier e^{+-i pi p/q}, so
    tr M(2) is -2 at l = 0 and 2 cos(pi p/q) at l = 1 (measured at 1024
    steps: at most 1.3e-14 and 8.9e-13)."""
    delta, _, _ = hill.monodromy(_coefficients(pq), [0, 1], [2.0, 2.0],
                                 1024)
    assert abs(delta[0] + 2.0) <= 1e-13
    assert abs(delta[1] - 2.0 * math.cos(math.pi * pq[0] / pq[1])) <= 1e-11


def _full_cell(coefficients, l, lam, steps):
    """Delta and the Pruefer angles at pi of (h, P h')(0) = (0, 1), from
    0, and of (1, 0), from pi/2, by ``steps`` Magnus steps over the whole
    cell, without the reflection: tr M of the last prefix product, and
    each angle summed over the step points (the first axis of the prefix
    products) from its column of every prefix.

    The cell x in [0, pi) is y = x/2 in [0, pi/2], where y' = 2 A(2y) y
    has the coefficients P(2y)/2, 2 S(2y) and 2 W(2y), also even about
    pi/2, so ``hill._steps`` at twice the steps gives the cell's steps on
    the same nodes (every factor of two is exact)."""
    def stretched(y):
        p, s, w = coefficients(2.0 * y)
        return 0.5 * p, 2.0 * s, 2.0 * w

    m = hill._prefix_products(hill._steps(stretched, l, lam, (2 * steps,)))
    thetas = []
    for h, ph, start in ((m[1], m[3], 0.0), (m[0], m[2], 0.5 * math.pi)):
        turn = np.diff(np.arctan2(h, ph), prepend=start, axis=0)
        thetas.append(start + np.sum(
            turn - 2.0 * math.pi * np.round(turn / (2.0 * math.pi)), axis=0))
    return (m[0][-1] + m[3][-1], *thetas)


@pytest.mark.parametrize("steps", [512, 1024])
@pytest.mark.parametrize("pq", [(3, 5), (41, 58), (70, 99), (50, 99),
                                (126, 251)])
def test_half_cell_is_the_full_cell(pq, steps):
    """The monodromy rebuilt from [0, pi/2] by the reflection x -> pi - x
    gives the full cell's Delta to 2e-13 (relative where |Delta| > 1), in
    bands and gaps at l = 0 and 1.  Both carry the rounding of their
    prefix products, which grows with the entries of Phi: they differ
    most at l = 1 next to 2 on 126/251, where those reach 54, by 1.05e-13
    (512 steps).  The reflection also splits the whole cell's Dirichlet
    levels into the half cell's D-D and D-N ones, and its Neumann levels
    into N-N and N-D: a = floor(2 theta_d/pi) is the full cell's
    Dirichlet count ceil(theta(pi)/pi) - 1, and b = floor(2 theta_n/pi)
    its Neumann count floor(theta_N(pi)/pi + 1/2)."""
    lams = [0.5, 1.0, 1.5, 2.0 - DELTA, 2.0 + DELTA, 2.5, 3.0, 3.5, 4.0]
    l = np.repeat([0, 1], len(lams))
    lam = np.tile(lams, 2)
    delta, theta_d, theta_n = hill.monodromy(_coefficients(pq), l, lam,
                                             steps)
    full_delta, full_d, full_n = _full_cell(_coefficients(pq), l, lam, steps)
    assert np.all(np.abs(delta - full_delta)
                  <= 2e-13 * np.maximum(1.0, np.abs(full_delta)))
    assert np.array_equal(np.floor(2.0 * theta_d / math.pi),
                          np.ceil(full_d / math.pi) - 1.0)
    assert np.array_equal(np.floor(2.0 * theta_n / math.pi),
                          np.floor(full_n / math.pi + 0.5))


@pytest.mark.parametrize("pq", [(3, 5), (41, 58), (126, 251)])
def test_one_pass_is_each_size_alone(pq):
    """Each pass of ``count`` takes n and 2n steps per cell together, 64
    and 128 first, then 128 and 256, 256 and 512, ... (and a pass may take
    any sizes): one coefficient evaluation, one Magnus evaluation and one
    prefix product, the shorter size's products led by identity steps.
    Delta, theta_d and theta_n are bit for bit those of ``monodromy`` at
    each size."""
    lams = [0.5, 2.0 - DELTA, 2.0 + DELTA, 3.5]
    l = np.repeat([0, 1], len(lams))
    lam = np.tile(lams, 2)
    for sizes in ((64, 128), (128, 256), (256, 512), (512, 1024)):
        together = hill._monodromies(_coefficients(pq), l, lam, sizes)
        for i, steps in enumerate(sizes):
            alone = hill.monodromy(_coefficients(pq), l, lam, steps)
            for got, want in zip(together, alone):
                assert np.array_equal(got[i], want), (steps, got[i] - want)


@pytest.mark.parametrize("pq, calls", [((3, 5), 1), ((1000, 1999), 4)])
def test_count_evaluates_the_coefficients_once_per_pass(pq, calls):
    """Each pass evaluates the coefficients once for both of its sizes, n
    and 2n steps, on 6n + 6 nodes: three Gauss nodes on each of the n
    steps of the finer size's half cell, once per size (the coarser
    size's n/2 steps led by n/2 of length 0), and the mirrors of each
    size's first step.  3/5 resolves at 128 steps in one call, 1000/1999
    at 1024 in four, n = 64, 128, 256 and 512."""
    coefficients = _coefficients(pq)
    nodes = []

    def spy(x):
        nodes.append(np.size(x))
        return coefficients(x)

    counted = hill.count(spy, pq[1], (2.0 - DELTA, 2.0 + DELTA))
    assert nodes == [6 * 64 * 2 ** k + 6 for k in range(calls)], nodes
    assert counted.steps == 64 * 2 ** calls


def test_monodromy_needs_coefficients_even_about_half_the_cell():
    """The reflection holds only for P, S and W even about pi/2: P shifted
    by 0.1 is not, and an odd step count has no step point at pi/2, so
    either is a DomainError."""
    coefficients = _coefficients((3, 5))

    def shifted(x):
        _, s, w = coefficients(x)
        return coefficients(x + 0.1)[0], s, w

    with pytest.raises(DomainError, match="not even about pi/2"):
        hill.monodromy(shifted, [0], [2.0], 512)
    with pytest.raises(DomainError, match="must be even"):
        hill.monodromy(coefficients, [0], [2.0], 511)


def test_magnus_steps_are_sixth_order():
    """Doubling the steps divides the error of tr M(2) at l = 1 on 50/99
    by about 2^6 (63, 64 and 56 measured from 64 steps); a fourth-order
    rule would divide it by 16."""
    exact = 2.0 * math.cos(math.pi * 50 / 99)
    errors = [abs(hill.monodromy(_coefficients((50, 99)), [1], [2.0], n)[0][0]
                  - exact) for n in (64, 128, 256, 512)]
    ratios = np.divide(errors[:-1], errors[1:])
    assert np.all(ratios > 40.0), ratios


@pytest.mark.parametrize("l", [0, 1])
@pytest.mark.parametrize("k", [0.3, 1.3, 2.7, 3.5])
def test_constant_coefficients_rotate_at_their_wave_number(k, l):
    """With P = S = W = 1 every gap is closed, Delta = 2 cos(pi k) for
    k = sqrt(lambda - l^2), and the half-cell levels are exact: sin(k'x)
    is D-N or D-D for k' = 1, 2, ..., and cos(k'x) N-N or N-D for
    k' = 0, 1, ....  So a = floor(k) and b = floor(k) + 1.  The angles
    at pi/2 of sin(kx)/k and cos(kx) are m pi + atan2(sin(r)/k, cos(r))
    and pi/2 + m pi + atan2(k sin(r), cos(r)), for m = round(k/2) and
    r = pi (k/2 - m): not counts of sign changes."""
    lam = k * k + l * l
    delta, theta_d, theta_n = hill.monodromy(_constant, [l], [lam], 256)
    assert abs(delta[0] - 2.0 * math.cos(math.pi * k)) <= 1e-13
    m = round(k / 2.0)
    r = math.pi * (k / 2.0 - m)
    assert abs(theta_d[0] - m * math.pi
               - math.atan2(math.sin(r) / k, math.cos(r))) <= 1e-12
    assert abs(theta_n[0] - (m + 0.5) * math.pi
               - math.atan2(k * math.sin(r), math.cos(r))) <= 1e-12
    assert math.floor(2.0 * theta_d[0] / math.pi) == math.floor(k)
    assert math.floor(2.0 * theta_n[0] / math.pi) == math.floor(k) + 1


@pytest.mark.parametrize("a, b, delta, counts", [
    (0, 0, 3.0, [0] * 10),                              # below band 1
    (0, 1, 0.0, [1, 1, 1, 0, 0, 0, 0, 0, 1, 1]),        # band 1
    (1, 1, -2.5, [1] * 10),         # gap 1, its D-N edge below lambda
    (0, 2, -2.5, [1] * 10),         # gap 1, its N-D edge below lambda
    (1, 2, 0.0, [1, 1, 1, 2, 2, 2, 2, 2, 1, 1]),        # band 2
    (1, 3, 2.5, [2] * 10),          # gap 2, its N-N edge below lambda
    (2, 2, 2.5, [2] * 10),          # gap 2, its D-D edge below lambda
    (2, 3, 2.0 * math.cos(0.3 * math.pi),               # band 3
     [3, 3, 2, 2, 2, 2, 2, 2, 2, 3]),
    (3, 3, -2.5, [3] * 10),                             # gap 3
])
def test_level_counts_from_the_half_cell_edges(a, b, delta, counts):
    """The sectors of 3/5 (kappa = k/5, k < 10), with lambda between
    half-cell levels, a D-N and D-D levels and b N-N and N-D levels below
    it: kappa = 0 holds ceil(b/2) + floor(a/2) levels, kappa = 1
    floor(b/2) + ceil(a/2), so a gap's top edge is counted in its own
    sector, and inside band n (a + b odd) the level of kappa is below
    lambda when kappa lies below arccos(Delta/2)/pi (odd n) or above it
    (even n)."""
    kappa = hill.surface_sectors(5, 0)
    got = hill.level_counts(kappa, delta, (a + 0.5) * math.pi / 2.0,
                            (b + 0.5) * math.pi / 2.0)
    assert got.tolist() == counts


@pytest.mark.parametrize("l", [0, 1, 2])
def test_level_counts_of_constant_coefficients(l):
    """A census with P = S = W = 1, where every gap is closed: sector
    kappa has the levels (kappa + 2m)^2 + l^2, and ``level_counts`` from
    ``monodromy`` at 512 steps counts them exactly in every sector k/q,
    k < 2q, of q = 1, 2, 3, 5 and 7, on a lambda grid of step 0.075 in
    (0, 30] less the points within 1e-6 of a level."""
    qs = (1, 2, 3, 5, 7)
    kappas = [np.arange(2 * q) / q for q in qs]
    wave = np.concatenate(kappas)[:, None] + 2.0 * np.arange(-3, 4)
    levels = wave.ravel() ** 2 + l * l
    grid = np.linspace(0.0, 30.0, 401)[1:]
    lams = grid[np.min(np.abs(grid[:, None] - levels), axis=1) >= 1e-6]
    assert lams.size >= 390
    delta, theta_d, theta_n = hill.monodromy(_constant, [l] * lams.size,
                                             lams, 512)
    for kappa in kappas:
        exact = ((kappa[:, None] + 2.0 * np.arange(-3, 4)) ** 2 + l * l)
        for j, lam in enumerate(lams):
            got = hill.level_counts(kappa, delta[j], theta_d[j], theta_n[j])
            assert np.array_equal(got, np.sum(exact < lam, axis=1)), (
                kappa, lam)


@pytest.mark.parametrize("l", [0, 1])
def test_rotation_of_constant_coefficients(l):
    """With P = S = W = 1 the real solutions at lambda are cos and sin of
    k x, k = sqrt(lambda - l^2), so ``rotation`` from ``monodromy`` at 512
    steps is k zeros per cell of length pi (0 below l^2), to 1e-10
    (measured: 1.2e-12), on a lambda grid of step 0.075 in (0, 30] less
    the points within 1e-3 of a band edge, where arccos(Delta/2) is
    steep."""
    grid = np.linspace(0.0, 30.0, 401)[1:]
    edges = np.arange(6.0) ** 2 + l * l
    lams = grid[np.min(np.abs(grid[:, None] - edges), axis=1) >= 1e-3]
    alpha = hill.rotation(*hill.monodromy(_constant, [l] * lams.size, lams,
                                          512))
    want = np.sqrt(np.maximum(lams - l * l, 0.0))
    assert np.max(np.abs(alpha - want)) <= 1e-10


def test_identities_at_two_across_b():
    """The two exact solutions at lambda = 2 hold along the whole curve
    of b, not only at rational p/q: sin(phi) ~ cos x makes 2 the first
    N-D level at l = 0, theta_n(2) = pi, and the l = 1 coordinate pair has
    the multipliers e^{+-i xi(b)}, Delta(2) = 2 cos(xi(b)).  At 20 values
    of b in [0.05, 1.4], ``monodromy`` at 1024 steps gives both to 1e-13
    (measured: 0 and 1.3e-14)."""
    for b in np.linspace(0.05, 1.4, 20):
        delta, _, theta_n = hill.monodromy(
            lambda x: radial_coefficients(b, x), [0, 1], [2.0, 2.0], 1024)
        assert abs(theta_n[0] - math.pi) <= 1e-13, b
        assert abs(delta[1] - 2.0 * math.cos(xi(b))) <= 1e-13, b


def test_surface_sectors_follow_the_parity_of_q():
    """Odd q keeps all 2q sectors k/q; even q keeps (2k + l mod 2)/q."""
    assert np.array_equal(hill.surface_sectors(5, 1) * 5, np.arange(10))
    assert np.array_equal(hill.surface_sectors(8, 0) * 8, [0, 2, 4, 6, 8,
                                                           10, 12, 14])
    assert np.array_equal(hill.surface_sectors(8, 1) * 8, [1, 3, 5, 7, 9,
                                                           11, 13, 15])


def _count_is_the_closed_form(pq):
    """The count at 2 -+ DELTA; returns the step count per cell at which
    it resolved against half as many."""
    counted = hill.count(_coefficients(pq), pq[1], (2.0 - DELTA, 2.0 + DELTA))
    below, above = counted.totals
    assert below == expected_n2(RotationNumber(*pq)), counted
    assert above - below == 5, counted
    return counted.steps


@pytest.mark.parametrize("pq", _reduced_fractions(16)
                         + [(41, 58), (70, 99), (50, 99), (126, 251)])
def test_count_is_the_closed_form(pq):
    """N(2 - delta) = 2q + 4p - 2 (odd q) or q + 2p - 2 (even q) and
    N(2 + delta) - N(2 - delta) = 5, resolved at 128 steps per cell, or
    at 256 nearer 1/2.  At 41/58 and 70/99 the l = 0 gap below 2 nearly
    closes (2.4e-3 and 4.1e-4)."""
    steps = 256 if pq in ((50, 99), (126, 251)) else 128
    assert _count_is_the_closed_form(pq) == steps, pq


@pytest.mark.sweep
def test_count_is_the_closed_form_q_up_to_300():
    """All 5,675 reduced p/q with q <= 300, in one test, each resolved
    by 256 steps per cell."""
    fractions = _reduced_fractions(300)
    assert len(fractions) == 5675
    for pq in fractions:
        assert _count_is_the_closed_form(pq) <= 256, pq


@pytest.mark.sweep
def test_levels_match_galerkin_in_every_sector_q_up_to_40():
    """On all 100 reduced p/q with q <= 40, at l = 0 and 1 and lambda =
    2 -+ DELTA, ``HillCount.levels`` of every Bloch sector k/q, k < 2q,
    not only the surface's or verify's named ones, is the number of
    ``solve_radial``'s values-only rows of sector k below lambda."""
    fractions = _reduced_fractions(40)
    assert len(fractions) == 100
    for pq in fractions:
        sol = solve_rotation(RotationNumber(*pq))
        q = pq[1]
        counted = hill.count(_coefficients(pq), q, (2.0 - DELTA, 2.0 + DELTA))
        for l in (0, 1):
            rows = solve_radial(sol, None, l, 2048, sampled_sectors=())
            for j, lam in enumerate(counted.lams):
                galerkin = [np.sum((rows.sectors == k)
                                   & (rows.eigenvalues < lam))
                            for k in range(2 * q)]
                hill_levels = counted.levels(l, j, np.arange(2 * q) / q)
                assert hill_levels.tolist() == galerkin, (pq, l, lam)


@pytest.mark.parametrize("pq, steps", [((1000, 1999), 1024),
                                       ((2500, 4999), 1024),
                                       ((5000, 9999), 2048)])
def test_count_is_the_closed_form_past_512_steps(pq, steps):
    """Near 1/2 the count doubles its steps past 512, through the same
    half-cell monodromy: 1024 at 1000/1999 and 2500/4999, 2048 at
    5000/9999."""
    assert _count_is_the_closed_form(pq) == steps, pq


def test_count_stops_at_the_step_cap():
    """At lambda = 2, l = 0 sits on a band edge (Delta = -2 to rounding),
    which no step count resolves: ConvergenceFailure at 16384 steps."""
    with pytest.raises(ConvergenceFailure, match="16384 Magnus steps"):
        hill.count(_coefficients((3, 5)), 5, (2.0,))


@pytest.mark.parametrize("lam", [5.9, math.nan])
def test_count_rejects_lambda_above_four(lam):
    """l = 2 holds levels from 4 up (at 3/5 five below 5.9, its ground at
    5.767), which the count at l = 0 and 1 leaves out, so a lambda above
    4 is a DomainError, and so is NaN, which no step count resolves."""
    with pytest.raises(DomainError, match="lambda must lie in"):
        hill.count(_coefficients((3, 5)), 5, (2.0, lam))


def test_count_accepts_lambda_four():
    """N counts strictly below lambda, so 4 itself still has no l = 2
    level below it: the count is the assembled table's."""
    sol = solve_rotation(RotationNumber(3, 5))
    counted = hill.count(_coefficients((3, 5)), 5, (4.0,))
    assert counted.totals == (weyl_N(assemble(sol, None, lambda_cut=4.0),
                                     4.0),)


def test_count_mismatch_is_exit_3(monkeypatch, capsys):
    """A Hill count that disagrees with a named sector's Galerkin levels
    stops verify with exit 3, naming the stage."""
    import otsuki_bipolar.spectrum as spec_mod
    count = hill.count

    def shifted(*args, **kwargs):
        counted = count(*args, **kwargs)
        return dataclasses.replace(counted,
                                   theta_d=counted.theta_d + 0.5 * math.pi)

    monkeypatch.setattr(spec_mod.hill, "count", shifted)
    code = cli.main(["verify", "--p", "3", "--q", "5"])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error: CountMismatch: Hill count: below ")
    assert len(err.strip().splitlines()) == 1


def test_count_mismatch_at_one_l_and_lambda_alone(monkeypatch):
    """The consistency check compares every (l, lambda), not only the
    first: theta_d shifted by pi/2 at l = 1 and 2 + delta alone, which
    moves the count of sector p + 1 there (at 3/5, Galerkin [1, 1, 0]
    against [1, 1, 1]), still raises CountMismatch, naming that l, lambda
    and sectors."""
    import otsuki_bipolar.spectrum as spec_mod
    count = hill.count

    def shifted(*args, **kwargs):
        counted = count(*args, **kwargs)
        theta_d = counted.theta_d.copy()
        theta_d[1, 1] += 0.5 * math.pi
        return dataclasses.replace(counted, theta_d=theta_d)

    monkeypatch.setattr(spec_mod.hill, "count", shifted)
    with pytest.raises(CountMismatch,
                       match=r"below 2\.\d+ at l = 1, sectors \[2, 3, 4\] "):
        verify_theorem3((3, 5))


def test_verify_counts_q_up_to_16_in_one_pass(monkeypatch):
    """At verify's own delta, each reduced p/q with q <= 16 resolves its
    count in the first pass: one coefficient evaluation, at 128 steps per
    cell."""
    import otsuki_bipolar.spectrum as spec_mod
    count = hill.count
    passes = []

    def spy(coefficients, q, lams):
        calls = []

        def counted_calls(x):
            calls.append(np.size(x))
            return coefficients(x)

        counted = count(counted_calls, q, lams)
        passes.append((len(calls), counted.steps))
        return counted

    monkeypatch.setattr(spec_mod.hill, "count", spy)
    fractions = _reduced_fractions(16)
    assert len(fractions) == 16
    for pq in fractions:
        verify_theorem3(pq)
    assert dict(zip(fractions, passes)) == {pq: (1, 128) for pq in fractions}


def test_dropped_interpolant_root_is_a_mismatch(monkeypatch, capsys):
    """Each sector's roots of the half-cell interpolants must number what
    the Pruefer angles count at the cut: a root dropped from the edge
    sector kappa = 1 at l = 0 (3/5) stops ``hill.levels`` with
    CountMismatch, naming the cut, l, the sector and both counts, and
    ``verify`` with exit 3."""
    sector_roots = hill._sector_roots

    def dropped(coef, kappa, owner):
        sector, u, start = sector_roots(coef, kappa, owner)
        first = np.flatnonzero((owner[sector] == 0)
                               & (kappa[sector] == 1.0))[0]
        keep = np.arange(sector.size) != first
        return sector[keep], u[keep], start[keep]

    monkeypatch.setattr(hill, "_sector_roots", dropped)
    b = solve_rotation(RotationNumber(3, 5)).b
    with pytest.raises(CountMismatch, match=r"^Hill levels: below [0-9.]+ at"
                       r" l = 0, sector kappa = 1\.0 holds 1 interpolant roots"
                       r" but the discriminant counts 2$"):
        hill.levels(lambda x: radial_coefficients(b, x),
                    [(0, np.array([0.8, 1.0]), 1, 4, False)])
    assert cli.main(["verify", "--p", "3", "--q", "5"]) == 3
    assert capsys.readouterr().err.startswith(
        "error: CountMismatch: Hill levels: below ")
