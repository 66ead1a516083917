"""The Hill-discriminant count: monodromy, rotation number, sector counts."""

import math

import numpy as np
import pytest

from otsuki_bipolar import cli, hill
from otsuki_bipolar.errors import ConvergenceFailure, DomainError
from otsuki_bipolar.geodesic import (
    RotationNumber,
    radial_coefficients,
    solve_rotation,
)
from otsuki_bipolar.spectrum import assemble, expected_n2, weyl_N

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
    delta, _ = hill.monodromy(_coefficients(pq), [0, 1], [2.0, 2.0], 1024)
    assert abs(delta[0] + 2.0) <= 1e-13
    assert abs(delta[1] - 2.0 * math.cos(math.pi * pq[0] / pq[1])) <= 1e-11


def _full_cell(coefficients, l, lam, steps):
    """Delta and theta(pi) from ``steps`` Magnus steps over the whole cell,
    without the reflection: tr M of the last prefix product, and theta
    summed from the angles of every prefix's second column.

    The cell x in [0, pi) is y = x/2 in [0, pi/2], where y' = 2 A(2y) y
    has the coefficients P(2y)/2, 2 S(2y) and 2 W(2y), also even about
    pi/2, so ``hill._steps`` at twice the steps gives the cell's steps on
    the same nodes (every factor of two is exact)."""
    def stretched(y):
        p, s, w = coefficients(2.0 * y)
        return 0.5 * p, 2.0 * s, 2.0 * w

    m = hill._prefix_products(hill._steps(stretched, l, lam, 2 * steps))
    turn = np.diff(np.arctan2(m[1], m[3]), prepend=0.0, axis=1)
    return (m[0][:, -1] + m[3][:, -1],
            np.sum(turn - 2.0 * math.pi * np.round(turn / (2.0 * math.pi)),
                   axis=1))


@pytest.mark.parametrize("steps", [512, 1024])
@pytest.mark.parametrize("pq", [(3, 5), (41, 58), (70, 99), (50, 99),
                                (126, 251)])
def test_half_cell_is_the_full_cell(pq, steps):
    """The monodromy rebuilt from [0, pi/2] by the reflection x -> pi - x
    gives the full cell's Delta to 2e-13 (relative where |Delta| > 1) and
    its theta(pi) to 1e-12, in bands and gaps at l = 0 and 1.  Both carry
    the rounding of their prefix products, which grows with the entries
    of Phi: they differ most at l = 1 next to 2 on 126/251, where those
    reach 54, by 1.05e-13 in Delta (512 steps) and 3.8e-13 in theta, and
    at 1024 against 2048 steps tr M(2) there is off the closed form by
    2e-13 to 9e-13 either way."""
    lams = [0.5, 1.0, 1.5, 2.0 - DELTA, 2.0 + DELTA, 2.5, 3.0, 3.5, 4.0]
    l = np.repeat([0, 1], len(lams))
    lam = np.tile(lams, 2)
    half = hill.monodromy(_coefficients(pq), l, lam, steps)
    full = _full_cell(_coefficients(pq), l, lam, steps)
    assert np.all(np.abs(half[0] - full[0])
                  <= 2e-13 * np.maximum(1.0, np.abs(full[0])))
    assert np.max(np.abs(half[1] - full[1])) <= 1e-12


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
    """With P = S = W = 1 every gap is closed and h = sin(kx)/k for
    k = sqrt(lambda - l^2): its multiplier is e^{i pi k}, its Pruefer
    angle (h = r sin theta, h' = r cos theta) at pi is m pi +
    atan2(sin(r)/k, cos(r)) for m = round(k) and r = k pi - m pi, not a
    count of sign changes, and alpha(lambda) = k in odd and even bands
    alike."""
    lam = k * k + l * l
    delta, theta = hill.monodromy(_constant, [l], [lam], 256)
    assert abs(delta[0] - 2.0 * math.cos(math.pi * k)) <= 1e-13
    m = round(k)
    r = math.pi * (k - m)
    exact = m * math.pi + math.atan2(math.sin(r) / k, math.cos(r))
    assert abs(theta[0] - exact) <= 1e-12
    alpha, gap = hill.rotation_number(delta, theta)
    assert abs(alpha[0] - k) <= 1e-12 and gap[0] == -1


@pytest.mark.parametrize("delta, theta, alpha", [
    (3.0, 0.2 * math.pi, 0),        # below band 1
    (-2.5, 0.5 * math.pi, 1),       # gap 1, below its Dirichlet level
    (-2.5, 1.2 * math.pi, 1),       # gap 1, above it
    (2.5, 1.5 * math.pi, 2),
    (2.5, 2.5 * math.pi, 2),
    (-2.5, 2.5 * math.pi, 3),
])
def test_gap_index_from_the_sign_of_delta(delta, theta, alpha):
    """In a gap alpha is its index g, the one of D and D + 1 (D the
    Dirichlet zero count) with sign Delta = (-1)^g."""
    got, gap = hill.rotation_number([delta], [theta])
    assert got[0] == alpha and gap[0] == alpha


def test_level_counts_add_the_top_edge_of_the_gap_band():
    """Inside gap 1 every sector of 3/5 holds one level below (band 1),
    the sector kappa = 1 by its top edge; inside gap 2 each holds two,
    kappa = 0 by the top edge of band 2."""
    kappa = hill.surface_sectors(5, 0)
    assert hill.level_counts(kappa, 1.0, 1).tolist() == [1] * 10
    assert hill.level_counts(kappa, 2.0, 2).tolist() == [2] * 10
    in_band = hill.level_counts(kappa, 1.5, -1)     # band 2 at kappa 0.5
    assert in_band.tolist() == [1, 1, 1, 2, 2, 2, 2, 2, 1, 1]


def test_surface_sectors_follow_the_parity_of_q():
    """Odd q keeps all 2q sectors k/q; even q keeps (2k + l mod 2)/q."""
    assert np.array_equal(hill.surface_sectors(5, 1) * 5, np.arange(10))
    assert np.array_equal(hill.surface_sectors(8, 0) * 8, [0, 2, 4, 6, 8,
                                                           10, 12, 14])
    assert np.array_equal(hill.surface_sectors(8, 1) * 8, [1, 3, 5, 7, 9,
                                                           11, 13, 15])


def _count_is_the_closed_form(pq, steps=512):
    """The count at 2 -+ DELTA, resolved at ``steps`` against half as many."""
    counted = hill.count(_coefficients(pq), pq[1], (2.0 - DELTA, 2.0 + DELTA))
    below, above = counted.totals
    assert below == expected_n2(RotationNumber(*pq)), counted
    assert above - below == 5, counted
    assert counted.steps == steps, counted


@pytest.mark.parametrize("pq", _reduced_fractions(16)
                         + [(41, 58), (70, 99), (50, 99), (126, 251)])
def test_count_is_the_closed_form(pq):
    """N(2 - delta) = 2q + 4p - 2 (odd q) or q + 2p - 2 (even q) and
    N(2 + delta) - N(2 - delta) = 5.  At 41/58 and 70/99 the l = 0 gap
    below 2 nearly closes (2.4e-3 and 4.1e-4)."""
    _count_is_the_closed_form(pq)


@pytest.mark.sweep
def test_count_is_the_closed_form_q_up_to_300():
    """All 5,675 reduced p/q with q <= 300, in one test."""
    fractions = _reduced_fractions(300)
    assert len(fractions) == 5675
    for pq in fractions:
        _count_is_the_closed_form(pq)


@pytest.mark.parametrize("pq, steps", [((1000, 1999), 1024),
                                       ((2500, 4999), 1024),
                                       ((5000, 9999), 2048)])
def test_count_is_the_closed_form_past_512_steps(pq, steps):
    """Near 1/2 the count doubles its steps past 512, through the same
    half-cell monodromy: 1024 at 1000/1999 and 2500/4999, 2048 at
    5000/9999."""
    _count_is_the_closed_form(pq, steps)


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
        return hill.HillCount(counted.lams, counted.alpha + 0.5, counted.gap,
                              counted.totals, counted.steps)

    monkeypatch.setattr(spec_mod.hill, "count", shifted)
    code = cli.main(["verify", "--p", "3", "--q", "5"])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error: CountMismatch: Hill count: below ")
    assert len(err.strip().splitlines()) == 1
