"""Sturm-Liouville solver: constant-coefficient exactness, oscillation
ladders, interlacing, Rayleigh quotients, and shift-symmetry tagging."""

import math

import numpy as np
import pytest

from otsuki_bipolar.errors import DegenerateGrid, SubperiodViolation, ZeroFunction
from otsuki_bipolar.sturm import (
    Boundary,
    SLProblem,
    _flux_form_matrix,
    build_problem,
    classify_subperiod,
    count_sign_changes,
    eigen,
    rayleigh,
)

TWO_PI = 2.0 * math.pi


def constant_problem(boundary=Boundary.PERIODIC, period=TWO_PI):
    return SLProblem(
        l=0, period=period,
        p_fn=lambda t: np.ones_like(np.asarray(t, float)),
        v_fn=lambda t: np.zeros_like(np.asarray(t, float)),
        boundary=boundary)


def cosine_problem(m, boundary=Boundary.PERIODIC):
    """p = 1, V = 2 + cos(m t): coefficients with period 2 pi / m."""
    return SLProblem(
        l=0, period=TWO_PI,
        p_fn=lambda t: np.ones_like(np.asarray(t, float)),
        v_fn=lambda t: 2.0 + np.cos(m * np.asarray(t, float)),
        boundary=boundary,
        coefficient_subperiod=TWO_PI / m)


# -- zero counting -------------------------------------------------------

def test_count_sign_changes_basic():
    t = np.linspace(0, TWO_PI, 256, endpoint=False)
    assert count_sign_changes(np.sin(3 * t)) == 6
    assert count_sign_changes(np.cos(2 * t)) == 4
    assert count_sign_changes(np.ones(64)) == 0
    assert count_sign_changes(np.sin(2.5 * t), antiperiodic=True) == 5


def test_count_sign_changes_with_exact_zeros():
    t = np.linspace(0, TWO_PI, 240, endpoint=False)
    v = np.sin(2 * t)           # zeros land exactly on samples
    assert np.min(np.abs(v)) < 1e-15
    assert count_sign_changes(v) == 4


def count_sign_changes_by_row(v, antiperiodic=False, rel_tol=1e-9):
    """One row at a time: the zero counter as a plain loop over nonzeros."""
    scale = np.max(np.abs(v))
    if scale == 0.0:
        return 0
    signs = np.sign(v)
    signs[np.abs(v) < rel_tol * scale] = 0
    nz = signs[signs != 0]
    if nz.size < 2:
        return 0
    pairs = nz * np.roll(nz, -1)
    if antiperiodic:
        pairs[-1] = -pairs[-1]
    return int(np.sum(pairs < 0))


@pytest.mark.parametrize("antiperiodic", [False, True])
def test_count_sign_changes_rows_match_the_row_loop(antiperiodic):
    rng = np.random.default_rng(11)
    n = 48
    rows = [rng.standard_normal(n) for _ in range(40)]
    for _ in range(40):                      # exact zeros and near-zeros
        v = rng.standard_normal(n)
        v[rng.random(n) < 0.3] = 0.0
        v[rng.random(n) < 0.2] *= 1e-12
        rows.append(v)
    t = np.linspace(0, TWO_PI, n, endpoint=False)
    rows += [np.zeros(n), -np.zeros(n), np.sin(2.5 * t), np.cos(1.5 * t)]
    edge = np.where(np.arange(n) % 3 == 0, 1.0, -1e-9)   # |v| == rel_tol * max
    edge[1::6] = 0.999e-9
    rows += [edge, -edge, 1e-315 * np.sign(rows[0])]       # rel_tol * max underflows
    for k in range(n):                       # a single surviving sample
        v = np.zeros(n)
        v[k] = -1.0
        rows.append(v)
    for lo, hi in ((0, 2), (n - 2, n), (0, n - 1), (5, 9)):  # two survivors
        v = np.zeros(n)
        v[lo], v[hi - 1] = 1.0, -1.0
        rows += [v, np.abs(v), -np.abs(v)]
    rows = np.array(rows)
    expected = [count_sign_changes_by_row(v, antiperiodic) for v in rows]
    got = count_sign_changes(rows, antiperiodic=antiperiodic)
    assert got.dtype.kind == "i"
    assert got.tolist() == expected
    assert [count_sign_changes(v, antiperiodic) for v in rows] == expected
    assert all(type(count_sign_changes(v, antiperiodic)) is int for v in rows[:3])


# -- constant-coefficient exactness ---------------------------------------

def test_constant_periodic_eigenvalues_and_order():
    exact = np.array([0, 1, 1, 4, 4, 9, 9, 16, 16], float)
    errs = []
    for n in (128, 256, 512):
        spec = eigen(constant_problem(), 9, n)
        errs.append(np.max(np.abs(spec.eigenvalues - exact)))
        assert np.array_equal(spec.zero_counts, spec.expected_zero_counts())
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert all(o >= 1.9 for o in orders)
    assert errs[-1] < 5e-3


def test_constant_antiperiodic_eigenvalues():
    exact = np.array([0.25, 0.25, 2.25, 2.25, 6.25, 6.25], float)
    spec = eigen(constant_problem(Boundary.ANTIPERIODIC), 6, 512)
    assert np.max(np.abs(spec.eigenvalues - exact)) < 5e-3
    assert spec.zero_counts.tolist() == [1, 1, 3, 3, 5, 5]


def test_eigenfunctions_normalized():
    spec = eigen(constant_problem(), 5, 256)
    h = TWO_PI / 256
    for v in spec.eigenfunctions:
        assert h * np.sum(v * v) == pytest.approx(1.0, rel=1e-12)


def test_eigen_serves_counts_up_to_grid_size_minus_two():
    assert eigen(constant_problem(), 62, 64).eigenvalues.size == 62
    for count in (0, 63, 64, 65):
        with pytest.raises(ValueError, match="count must lie in"):
            eigen(constant_problem(), count, 64)


def test_degenerate_grid_guard():
    bad = SLProblem(l=0, period=TWO_PI,
                    p_fn=lambda t: np.cos(np.asarray(t, float)),
                    v_fn=lambda t: np.zeros_like(np.asarray(t, float)),
                    boundary=Boundary.PERIODIC)
    with pytest.raises(DegenerateGrid):
        eigen(bad, 4, 128)


def flux_form_matrix_by_entries(prob, n):
    """The flux-form matrix written entry by entry into a dense array:
    diagonal, neighbour couplings and the boundary-signed wrap pair."""
    h = prob.period / n
    t = np.arange(n) * h
    p_half = prob.p_fn(t + 0.5 * h)
    inv_h2 = 1.0 / (h * h)
    diag = (p_half + np.roll(p_half, 1)) * inv_h2 + prob.v_fn(t)
    off = -p_half * inv_h2
    wrap = -off[-1] if prob.boundary is Boundary.ANTIPERIODIC else off[-1]
    a = np.diag(diag)
    idx = np.arange(n - 1)
    a[idx, idx + 1] = off[:-1]
    a[idx + 1, idx] = off[:-1]
    a[0, n - 1] += wrap
    a[n - 1, 0] += wrap
    return a


@pytest.mark.parametrize("l", [0, 2])
@pytest.mark.parametrize("boundary", list(Boundary))
def test_flux_stencil_matches_the_entrywise_matrix(l, boundary, cases):
    prob = build_problem(cases.profile((3, 5)), l, boundary)
    a = _flux_form_matrix(prob, 512)[0]
    ref = flux_form_matrix_by_entries(prob, 512)
    assert a.nnz == np.count_nonzero(ref) == 3 * 512
    assert np.array_equal(a.toarray() != 0, ref != 0)
    assert np.max(np.abs(a.toarray() - ref)) <= 1e-15 * np.max(np.abs(ref))


# -- Otsuki problems -----------------------------------------------------

def test_build_problem_potentials(cases):
    prof = cases.profile((3, 5))
    t = np.linspace(0, prof.t0, 64, endpoint=False)
    p0 = build_problem(prof, 0)
    assert np.all(p0.v_fn(t) == 0.0)
    p1 = build_problem(prof, 1)
    assert np.all(p1.v_fn(t) >= 1.0)
    p2 = build_problem(prof, 2)
    assert np.all(p2.v_fn(t) >= 4.0)
    with pytest.raises(ValueError):
        build_problem(prof, -1)


@pytest.mark.parametrize("pq", [(3, 5), (5, 8), (4, 7), (5, 9), (7, 10)])
@pytest.mark.parametrize("l", [0, 1, 2, 3])
def test_zero_count_ladders(pq, l, cases):
    for boundary in (Boundary.PERIODIC, Boundary.ANTIPERIODIC):
        spec = cases.spectrum(pq, l, boundary)
        n_check = 2 * pq[1] + 4
        assert np.array_equal(spec.zero_counts[:n_check],
                              spec.expected_zero_counts()[:n_check])


@pytest.mark.parametrize("pq", [(3, 5), (5, 8)])
@pytest.mark.parametrize("l", [0, 1, 2, 3])
@pytest.mark.parametrize("boundary", list(Boundary))
def test_rotated_degenerate_pairs_keep_the_ladder_count(pq, l, boundary,
                                                        cases):
    """Every function in a degenerate eigenspace has the ladder's zero
    count, so neither solver rotates a pair before counting: 20 random
    rotations inside each degenerate pair of the Bloch and of the
    finite-difference spectrum count the same."""
    rng = np.random.default_rng(7)
    anti = boundary is Boundary.ANTIPERIODIC
    fd = eigen(build_problem(cases.profile(pq), l, boundary),
               2 * pq[1] + 4, cases.grid(pq))
    for spec in (cases.spectrum(pq, l, boundary), fd):
        lam = spec.eigenvalues
        pairs = np.flatnonzero(
            np.diff(lam) <= 1e-8 * max(1.0, float(np.max(np.abs(lam)))))
        assert pairs.size >= pq[1] - 1
        expected = spec.expected_zero_counts()
        for i in pairs:
            theta = rng.uniform(0.0, TWO_PI, 20)[:, None]
            mixed = (np.cos(theta) * spec.eigenfunctions[i]
                     + np.sin(theta) * spec.eigenfunctions[i + 1])
            assert expected[i] == expected[i + 1]
            assert np.all(count_sign_changes(mixed, anti) == expected[i])


@pytest.mark.parametrize("pq", [(3, 5), (5, 8), (4, 7), (5, 9), (7, 10)])
@pytest.mark.parametrize("l", [0, 1, 2, 3])
def test_interlacing(pq, l, cases):
    lam = cases.spectrum(pq, l, Boundary.PERIODIC).eigenvalues
    mu = cases.spectrum(pq, l, Boundary.ANTIPERIODIC).eigenvalues
    count = min(lam.size, mu.size)
    g = 0
    while 2 * g + 1 < count:
        assert lam[2 * g] < mu[2 * g]
        assert mu[2 * g + 1] < lam[2 * g + 1]
        g += 1


def test_sin_phi_is_radial_eigenfunction(cases):
    sol, prof = cases.solution((3, 5)), cases.profile((3, 5))
    q = 5
    spec = cases.spectrum((3, 5), 0)
    assert spec.eigenvalues[2 * q] == pytest.approx(2.0, abs=5e-4)
    f = np.sin(prof.phi_at(spec.grid))
    f /= np.linalg.norm(f)
    v = spec.eigenfunctions[2 * q] / np.linalg.norm(spec.eigenfunctions[2 * q])
    assert abs(float(np.dot(f, v))) > 1.0 - 1e-6
    assert spec.zero_counts[2 * q] == 2 * q


def test_corollary3_monotone_ground_eigenvalues(cases):
    for pq in [(3, 5), (5, 8)]:
        grounds = [cases.spectrum(pq, l).eigenvalues[0] for l in range(4)]
        assert all(b > a for a, b in zip(grounds, grounds[1:]))


def test_ground_l2_exceeds_pointwise_bound(cases):
    for pq in [(3, 5), (7, 10)]:
        spec = cases.spectrum(pq, 2)
        assert spec.eigenvalues[0] > 4.0 - max(spec.eps_grid, 0.0)
        assert spec.eigenvalues[0] > 2.0


def test_grid_refinement_second_order(cases):
    prob = build_problem(cases.profile((3, 5)), 0)
    n = cases.grid((3, 5))
    coarse = eigen(prob, 18, n)                  # base grid
    fine = eigen(prob, 18, 2 * n)
    diff = np.abs(coarse.eigenvalues - fine.eigenvalues)
    # second order: the doubled grid removes ~3/4 of the error, so the
    # Richardson estimate at the base grid bounds the decrease
    assert np.max(diff) < 4.5 * max(coarse.eps_grid, 1e-12)
    assert np.max(diff) > 0.0


# -- Rayleigh quotients ---------------------------------------------------

def test_rayleigh_reproduces_ground_state(cases):
    prob = build_problem(cases.profile((3, 5)), 0)
    spec = cases.spectrum((3, 5), 0)
    r0 = rayleigh(prob, spec.eigenfunctions[0])
    assert r0 == pytest.approx(spec.eigenvalues[0], abs=1e-6)
    r3 = rayleigh(prob, spec.eigenfunctions[3])
    assert r3 == pytest.approx(spec.eigenvalues[3], abs=1e-3)
    assert r3 >= spec.eigenvalues[0]


def test_rayleigh_constant_function_is_zero(cases):
    prob = build_problem(cases.profile((3, 5)), 0)
    assert rayleigh(prob, np.ones(512)) == pytest.approx(0.0, abs=1e-12)


def test_rayleigh_oscillation_test_function(cases):
    # sin(2 q pi t / t0) keeps the quotient of the l = 0 problem below 2
    for pq in [(3, 5), (5, 8), (7, 10)]:
        prof = cases.profile(pq)
        prob = build_problem(prof, 0)
        n = 4096
        t = np.arange(n) * (prof.t0 / n)
        v = np.sin(2 * pq[1] * math.pi * t / prof.t0)
        val = rayleigh(prob, v)
        assert val < 2.0
        assert val > cases.spectrum(pq, 0).eigenvalues[2 * pq[1] - 1] - 1e-3


def test_rayleigh_zero_function_raises(cases):
    prob = build_problem(cases.profile((3, 5)), 0)
    with pytest.raises(ZeroFunction):
        rayleigh(prob, np.zeros(128))


# -- sub-period classification --------------------------------------------

def test_classify_constant_coefficients_half_period():
    spec = eigen(constant_problem(), 9, 512)
    tags = classify_subperiod(spec, 2)
    # modes cos/sin(k t): even k are pi-periodic, odd k are not
    for i, tag in enumerate(tags):
        k = (i + 1) // 2
        assert tag.periodic_t0_over_n == (k % 2 == 0)


def test_classify_cosine_potential_antiperiodic_family():
    # coefficients with period 2 pi / 4: the T/4-antiperiodic modes of
    # the periodic problem are indices 2n(2k+1)-1, 2n(2k+1) with n = 2
    spec = eigen(cosine_problem(4), 10, 512)
    tags = classify_subperiod(spec, 2)
    anti = [i for i, t in enumerate(tags) if t.antiperiodic_t0_over_2n]
    assert anti == [3, 4]


def test_classify_otsuki_l0(cases):
    q = 5
    spec = cases.spectrum((3, 5), 0)
    tags = classify_subperiod(spec, q)
    anti = [i for i, t in enumerate(tags) if t.antiperiodic_t0_over_2n]
    assert anti == [2 * q - 1, 2 * q]
    # the ground state is T/n-periodic for every admissible divisor
    for n in (1, 5, 2 * q):
        tags_n = classify_subperiod(spec, n)
        assert tags_n[0].periodic_t0_over_n
        assert tags_n[0].tag == "periodic"


def shifted(v, m, antiperiodic):
    """Samples of v(t + m h), with the boundary sign past the seam."""
    idx = np.arange(v.size) + m
    sign = np.where(idx >= v.size, -1.0 if antiperiodic else 1.0, 1.0)
    return sign * v[idx % v.size]


@pytest.mark.parametrize("build, n", [
    pytest.param(lambda c: eigen(constant_problem(), 9, 512), 2,
                 id="constant-n2"),
    pytest.param(lambda c: eigen(cosine_problem(4), 10, 512), 2,
                 id="cosine4-n2"),
    pytest.param(lambda c: eigen(cosine_problem(4), 10, 512), 1,
                 id="cosine4-n1"),
    pytest.param(lambda c: eigen(build_problem(c.profile((3, 5)), 1), 14,
                                 c.grid((3, 5))), 5, id="fd-3/5-l1-n5"),
    pytest.param(lambda c: c.spectrum((3, 5), 0), 5, id="bloch-3/5-l0-n5"),
    pytest.param(lambda c: c.spectrum((5, 8), 1), 4, id="bloch-5/8-l1-n4"),
])
def test_classify_tags_match_a_direct_shift_of_each_row(build, n, cases):
    """Each tag describes the row of ``spec.eigenfunctions`` it is listed
    against, degenerate pairs included."""
    spec = build(cases)
    N = spec.grid_size
    anti = spec.problem.boundary is Boundary.ANTIPERIODIC
    tags = classify_subperiod(spec, n)
    assert len(tags) == spec.eigenvalues.size
    for v, tag in zip(spec.eigenfunctions, tags):
        tol = 1e-5 * np.linalg.norm(v)
        per = np.linalg.norm(shifted(v, N // n, anti) - v) <= tol
        half = np.linalg.norm(shifted(v, N // (2 * n), anti) + v) <= tol
        assert tag.periodic_t0_over_n == per
        assert tag.antiperiodic_t0_over_2n == half
        assert tag.tag == ("antiperiodic" if half
                           else "periodic" if per else "neither")
    assert len({t.tag for t in tags}) >= 2


def test_classify_rejects_wrong_subperiod():
    spec = eigen(cosine_problem(3), 6, 512)
    with pytest.raises(SubperiodViolation):
        classify_subperiod(spec, 2)   # V has period 2pi/3, not pi


def test_classify_requires_divisible_grid():
    spec = eigen(constant_problem(), 4, 130)
    with pytest.raises(ValueError):
        classify_subperiod(spec, 4)
