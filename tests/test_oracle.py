"""2-D brute-force operator: spectrum cross-checks and coordinate residuals."""

import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

from otsuki_bipolar import geodesic, oracle, spectrum
from otsuki_bipolar.errors import ConvergenceFailure
from otsuki_bipolar.geodesic import RotationNumber, radial_coefficients
from otsuki_bipolar.oracle import (
    OracleSpectrum,
    TorusGrid,
    _operator_matrix,
    dense_spectrum,
    match_table,
    theorem2_residual,
)
from otsuki_bipolar.spectrum import ModeEntry, ModeTable, weyl_N
from otsuki_bipolar.sturm import Boundary, flux_stencil

CASES = [(3, 5), (5, 8), (4, 7), (5, 9), (7, 10)]


def test_grid_validation(cases):
    prof = cases.profile((3, 5))
    with pytest.raises(ValueError):
        TorusGrid(prof, 16, 256)
    with pytest.raises(ValueError):
        TorusGrid(prof, 33, 256)


def test_operator_symmetric_psd(cases):
    grid = TorusGrid(cases.profile((3, 5)), 32, 64)
    a = _operator_matrix(grid)
    assert abs(a - a.T).max() < 1e-12
    const = np.ones(a.shape[0])
    assert np.max(np.abs(a @ const)) < 1e-9
    rng = np.random.default_rng(3)
    for _ in range(5):
        v = rng.standard_normal(a.shape[0])
        assert float(v @ (a @ v)) > -1e-9 * float(v @ v)


def operator_matrix_by_coordinates(grid):
    """K assembled from COO triples: each node's right (alpha) and up (x)
    neighbour couplings, both ways, and the diagonal."""
    b = grid.profile.solution.b
    na, nt = grid.n_alpha, grid.n_t
    h_a, h_x = 2.0 * math.pi / na, grid.h_x
    w_alpha = radial_coefficients(b, grid.xs)[1] / h_a ** 2
    w_x = radial_coefficients(b, grid.xs + 0.5 * h_x)[0] / h_x ** 2
    n = na * nt
    idx = np.arange(n).reshape(nt, na)
    right = np.roll(idx, -1, axis=1)
    up = np.roll(idx, -1, axis=0)
    wa = np.repeat(w_alpha, na)
    wx = np.repeat(w_x, na)
    diag = 2.0 * wa + wx + np.repeat(np.roll(w_x, 1), na)
    rows = np.concatenate([idx.ravel(), right.ravel(), idx.ravel(),
                           up.ravel(), np.arange(n)])
    cols = np.concatenate([right.ravel(), idx.ravel(), up.ravel(),
                           idx.ravel(), np.arange(n)])
    vals = np.concatenate([-wa, -wa, -wx, -wx, diag])
    return scipy.sparse.csc_matrix((vals, (rows, cols)), shape=(n, n))


@pytest.mark.parametrize("pq", [(3, 5), (5, 8)])
def test_operator_is_the_kronecker_sum_of_flux_stencils(pq, cases):
    grid = TorusGrid(cases.profile(pq), 32, 64)
    k = _operator_matrix(grid)
    ref = operator_matrix_by_coordinates(grid)
    ref.sort_indices()
    assert k.format == "csc" and k.nnz == ref.nnz == 5 * 32 * 64
    assert np.array_equal(k.indptr, ref.indptr)
    assert np.array_equal(k.indices, ref.indices)
    assert np.max(np.abs(k.data - ref.data)) <= 1e-15 * np.max(np.abs(ref.data))


def test_constant_mode(cases):
    grid = TorusGrid(cases.profile((3, 5)), 32, 160)
    spec = dense_spectrum(grid, 0.05)
    assert spec.eigenvalues[0] == pytest.approx(0.0, abs=1e-10)
    with pytest.raises(ValueError):
        dense_spectrum(grid, 0.0)   # the window below a non-positive cut is empty


@pytest.mark.parametrize("pq,na,nt", [((3, 5), 64, 512), ((5, 8), 64, 512)])
def test_oracle_matches_assembly(pq, na, nt, cases):
    prof = cases.profile(pq)
    table = cases.table(pq)
    spec = dense_spectrum(TorusGrid(prof, na, nt), 2.2)
    ok, diff, n_o, n_t = match_table(spec, table, 2.0,
                                     exclusion_window=0.02, pair_tol=5e-3)
    assert n_o == n_t == weyl_N(table, 2.0)
    assert ok and diff < 5e-3


def _hand_built(oracle_vals, table_modes):
    """An oracle spectrum and a table whose three threshold modes (one at
    l = 0, a pair at l = 1) carry multiplicity 5."""
    vals = np.sort(np.array(oracle_vals))
    spec = OracleSpectrum(grid=None, lambda_cut=2.5, eigenvalues=vals,
                          deck_characters=np.ones(vals.size),
                          kept=np.ones(vals.size, dtype=bool))
    entries = [ModeEntry(l=l, i=i, lam=lam, multiplicity=1 if l == 0 else 2,
                         kept=True, reason="below-cut", zero_count=0)
               for l, i, lam in table_modes]
    entries += [ModeEntry(l=l, i=i, lam=2.0 + d, multiplicity=1 if l == 0 else 2,
                          kept=True, reason="at-threshold-2", zero_count=0,
                          pinned_two=True)
                for l, i, d in [(0, 6, 1e-12), (1, 5, -1e-12), (1, 6, 2e-12)]]
    table = ModeTable(rotation=RotationNumber(3, 5), lambda_cut=2.5,
                      eps_grid=1e-10, entries=entries)
    return spec, table


def test_match_keeps_a_genuine_mode_inside_the_window():
    """A table mode at 1.984 sits 0.016 below 2, inside the 0.02 window:
    only the five values nearest 2 are set aside for the pinned modes,
    so its oracle pair is compared, not dropped."""
    threshold = [1.999, 1.9995, 2.0003, 2.0008, 2.001]
    spec, table = _hand_built([0.0, 1.9841, 1.9842] + threshold,
                              [(0, 0, 0.0), (1, 3, 1.984)])
    assert table.threshold_multiplicity() == 5
    ok, diff, n_o, n_t = match_table(spec, table, 2.0,
                                     exclusion_window=0.02, pair_tol=5e-3)
    assert (n_o, n_t) == (3, 3) == (weyl_N(table, 2.0),) * 2
    assert ok and diff == pytest.approx(2e-4)


def test_match_fails_when_a_set_aside_value_leaves_the_window():
    spec, table = _hand_built([0.0, 1.999, 2.0, 2.001, 2.002, 2.05],
                              [(0, 0, 0.0)])
    ok, diff, n_o, n_t = match_table(spec, table, 2.0,
                                     exclusion_window=0.02, pair_tol=5e-3)
    assert n_o == n_t == 1 and diff == 0.0
    assert not ok


def test_oracle_threshold_cluster_multiplicity(cases):
    spec = dense_spectrum(TorusGrid(cases.profile((3, 5)), 64, 512), 2.2)
    ev = spec.kept_eigenvalues()
    cluster = np.sum(np.abs(ev - 2.0) <= 0.02)
    assert cluster == 5


def test_even_q_filter_drops_non_invariant_modes(cases):
    spec = dense_spectrum(TorusGrid(cases.profile((5, 8)), 64, 512), 2.2)
    assert np.sum(~spec.kept) > 0
    below = spec.kept_eigenvalues()
    assert int(np.sum(below[np.abs(below - 2.0) > 0.02] < 2.0)) == 16


def test_window_matches_dense_generalized_eigensolve(cases):
    """All eigenvalues below the cut, against LAPACK on K f = lambda W f.

    At 32 alpha nodes the cut 2.5 holds the blocks l <= 1, 12 the blocks
    l <= 3 and 150 every block up to the Nyquist mode l = 16.
    """
    grid = TorusGrid(cases.profile((3, 5)), 32, 32)
    full = scipy.linalg.eigh(_operator_matrix(grid).toarray(),
                             np.diag(grid.mass), eigvals_only=True)
    for cut in (2.5, 12.0, 150.0):
        exact = full[full < cut]
        spec = dense_spectrum(grid, cut)
        assert spec.eigenvalues.size == exact.size > 0, cut
        assert np.max(np.abs(spec.eigenvalues - exact)) < 1e-9, cut


def test_deck_blocks_match_dense_generalized_eigensolve(cases):
    """Each deck character's window, against LAPACK on K f = lambda W f
    restricted to the functions of that character, f(P r) = c f(r) with
    P the half-period shift; together they are the whole window.  The
    cuts reach the blocks l <= 1, l <= 3 and every block up to l = 16."""
    _check_deck_blocks(TorusGrid(cases.profile((5, 8)), 32, 32))


def test_odd_deck_blocks_match_dense_generalized_eigensolve(cases):
    """As above at 34 x-nodes, where each deck block has odd size 17 and
    the two middle nodes form one reflection orbit, coupled to each other
    with the sign of the wrap."""
    _check_deck_blocks(TorusGrid(cases.profile((5, 8)), 32, 34))


def _check_deck_blocks(grid):
    k, w = _operator_matrix(grid).toarray(), np.diag(grid.mass)
    n, half = k.shape[0], k.shape[0] // 2
    idx = np.arange(n).reshape(grid.n_t, grid.n_alpha)
    shifted = np.roll(np.roll(idx, -grid.n_t // 2, axis=0),
                      -grid.n_alpha // 2, axis=1).ravel()
    by_char = {}
    for c in (1.0, -1.0):
        s = np.zeros((n, half))
        s[np.arange(half), np.arange(half)] = 1.0
        s[shifted[:half], np.arange(half)] = c
        by_char[c] = scipy.linalg.eigh(s.T @ k @ s, s.T @ w @ s,
                                       eigvals_only=True)
    full = scipy.linalg.eigh(k, w, eigvals_only=True)
    for cut in (2.5, 12.0, 150.0):
        spec = dense_spectrum(grid, cut)
        assert set(spec.deck_characters) == {1.0, -1.0}
        assert np.array_equal(spec.kept, spec.deck_characters == 1.0)
        for c, vals in by_char.items():
            exact = vals[vals < cut]
            mine = spec.eigenvalues[spec.deck_characters == c]
            assert mine.size == exact.size > 0, (cut, c)
            assert np.max(np.abs(mine - exact)) < 1e-9, (cut, c)
        exact = full[full < cut]
        assert spec.eigenvalues.size == exact.size, cut
        assert np.max(np.abs(spec.eigenvalues - exact)) < 1e-9, cut


def _dense_cyclic_block(grid, l, wrap, n):
    """D (flux_stencil(P_half / h_x^2, wrap) + mu_l diag(S)) D on the first
    n x-nodes, D = W^-1/2, as a dense array."""
    b, h_x = grid.profile.solution.b, grid.h_x
    _, s, w = radial_coefficients(b, grid.xs[:n])
    p_half = radial_coefficients(b, grid.xs[:n] + 0.5 * h_x)[0] / h_x ** 2
    mu = (2.0 * math.sin(math.pi * l / grid.n_alpha)
          / (2.0 * math.pi / grid.n_alpha)) ** 2
    d = np.diag(1.0 / np.sqrt(w))
    return d @ (flux_stencil(p_half, wrap).toarray() + mu * np.diag(s)) @ d


@pytest.mark.parametrize("pq,na,nt,n", [((3, 5), 96, 768, 768),
                                        ((5, 8), 96, 768, 384),
                                        ((5, 8), 32, 34, 17)])
def test_band_blocks_match_dense_cyclic_blocks(pq, na, nt, n, cases, monkeypatch):
    """Each alpha-block's window from the two reflection-folded
    tridiagonal solves, against ``eigvalsh`` of the same cyclic block as a
    dense array: wrap +1 and -1 (even q), at even and odd block sizes n.
    The even and odd parts together have n rows, and the union of their
    windows is the block's window."""
    grid = TorusGrid(cases.profile(pq), na, nt)
    cut = 12.0
    solved, eigh_tridiagonal = [], scipy.linalg.eigh_tridiagonal

    def spy(d, e, *args, **kwargs):
        found = eigh_tridiagonal(d, e, *args, **kwargs)
        solved.append((d.size, found[found < cut]))
        return found

    monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", spy)
    dense_spectrum(grid, cut)
    wraps = (1.0, -1.0) if pq[1] % 2 == 0 else (1.0,)
    halves = list(zip(solved[0::2], solved[1::2]))
    blocks = [(l, c) for l in range(len(halves) // len(wraps)) for c in wraps]
    assert 2 * len(halves) == len(solved)
    assert len(blocks) == len(halves) > len(wraps)
    for (l, c), ((rows_even, even), (rows_odd, odd)) in zip(blocks, halves):
        full = scipy.linalg.eigvalsh(_dense_cyclic_block(grid, l, c, n))
        exact = full[full < cut]
        found = np.sort(np.concatenate([even, odd]))
        assert rows_even + rows_odd == n, (l, c)
        assert found.size == exact.size > 0, (l, c)
        assert np.max(np.abs(found - exact)) <= 1e-9, (l, c)


def test_uneven_coefficients_are_refused(cases, monkeypatch):
    """A chart shifted off x = 0 makes P, S and W uneven on the grid, so
    the reflection fold would solve the wrong problem: the oracle raises
    ConvergenceFailure instead."""
    grid = TorusGrid(cases.profile((3, 5)), 32, 64)

    def shifted(b, x):
        return radial_coefficients(b, np.asarray(x) + 0.3)

    monkeypatch.setattr(oracle, "radial_coefficients", shifted)
    with pytest.raises(ConvergenceFailure, match="oracle"):
        dense_spectrum(grid, 2.5)


def test_theorem2_residual_converges_quadratically(cases):
    prof = cases.profile((3, 5))
    res = [theorem2_residual(prof, TorusGrid(prof, na, nt))
           for na, nt in [(32, 256), (64, 512), (128, 1024)]]
    assert all(b < a for a, b in zip(res, res[1:]))
    order = math.log2(res[-2] / res[-1])
    assert order >= 1.9
    assert res[-1] < 1e-2


def test_theorem2_residual_v_coordinate_alone(cases):
    """The radial coordinate sin(phi) alone shows the same second-order
    behaviour as the full coordinate set."""
    prof = cases.profile((3, 5))
    vals = []
    for na, nt in [(32, 256), (64, 512)]:
        grid = TorusGrid(prof, na, nt)
        a = _operator_matrix(grid)
        aa, tt = np.meshgrid(grid.alphas, grid.ts, indexing="xy")
        f = (np.sin(prof.phi_at(tt)) * np.ones_like(aa)).ravel()
        vals.append(np.max(np.abs((a @ f) / grid.mass - 2 * f)) / np.max(np.abs(f)))
    assert 1.7 < math.log2(vals[0] / vals[1]) < 2.3


def values_only_table(sol, lambda_cut):
    """The table from l = 0, 1 solved together, as ``cross_check`` solves
    them (one chart, one ``hill.levels`` call), with no row sampled."""
    spectra = dict(enumerate(spectrum._radial_spectra(
        sol, range(2), 0, Boundary.PERIODIC, None, ())))
    return spectrum.assemble(sol, None, lambda_cut=lambda_cut, spectra=spectra)


def c7a_derivation(prof, table):
    """C7a by hand: a 96 x 768 oracle, its error from a 64 x 512 coarse
    grid, and the match against ``table`` below 2."""
    fine = dense_spectrum(TorusGrid(prof, 96, 768), 2.2)
    coarse = dense_spectrum(TorusGrid(prof, 64, 512), 2.2)
    kf = np.sort(fine.kept_eigenvalues())
    kc = np.sort(coarse.kept_eigenvalues())
    m = min(kf.size, kc.size)
    eps_oracle = float(np.max(np.abs(kf[:m] - kc[:m]))) / 1.25
    window = max(2.0 * eps_oracle, 0.02)
    tol = max(2.0 * eps_oracle, 1e-3)
    match, diff, n_o, n_t = match_table(fine, table, 2.0, window, tol)
    return {"oracle_eps": eps_oracle, "threshold_window": window,
            "pair_tolerance": tol, "max_pairwise_difference": diff,
            "n_below_2_oracle": n_o, "n_below_2_assembled": n_t,
            "N2_assembled": weyl_N(table, 2.0), "pass": match}


@pytest.mark.parametrize("pq", [(3, 5), (5, 8)])
def test_cross_check_is_the_c7a_derivation(pq, cases):
    """cross_check at 96 x 768 and cut 2.2 gives, bit for bit, what C7a
    derives by hand from a 64 x 512 coarse grid and the values-only table."""
    sol = cases.solution(pq)
    want = c7a_derivation(cases.profile(pq), values_only_table(sol, 2.2))
    got = oracle.cross_check(sol, 96, 768, 2.2)
    assert {k: got[k] for k in want} == want
    assert got["pass"] is True


@pytest.mark.parametrize("pq", CASES)
def test_values_only_table_checks_as_the_session_table(pq, cases):
    """The values-only table and the session's sampled one give the same
    count, pairing and verdict; the pair differences agree to rounding."""
    got = oracle.cross_check(cases.solution(pq), 96, 768, 2.2)
    want = c7a_derivation(cases.profile(pq), cases.table(pq))
    for key in ("N2_assembled", "n_below_2_oracle", "n_below_2_assembled",
                "oracle_eps", "pass"):
        assert got[key] == want[key], key
    assert abs(got["max_pairwise_difference"]
               - want["max_pairwise_difference"]) <= 1e-11


def test_cross_check_samples_no_radial_row(cases, monkeypatch):
    """Each l below the cut is solved once, values-only, all l in one
    call: no row sampled."""
    solve, calls = spectrum._radial_spectra, []

    def spy(sol, ls, *args):
        calls.append((list(ls), solve(sol, ls, *args)))
        return calls[-1][1]

    monkeypatch.setattr(spectrum, "_radial_spectra", spy)
    oracle.cross_check(cases.solution((3, 5)), 32, 64, 2.2)
    ((ls, spectra),) = calls
    assert ls == [0, 1]
    for spec in spectra:
        assert np.all(spec.zero_counts == -1)
        assert np.all(np.isnan(spec.eigenfunctions))


def test_cross_check_calls_each_layer_by_module_attribute(cases, monkeypatch):
    """One call builds one 16-sample profile, assembles one table, solves
    the oracle twice and matches once, each looked up on its module, so
    wrappers installed there (as the benchmark's spans are) see it."""
    calls = []

    def spy(module, name):
        original = getattr(module, name)

        def traced(*args, **kwargs):
            calls.append((name, args[1:2] if name == "profile" else ()))
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, traced)

    for module, name in ((geodesic, "profile"), (spectrum, "assemble"),
                         (oracle, "dense_spectrum"), (oracle, "match_table")):
        spy(module, name)
    oracle.cross_check(cases.solution((3, 5)), 32, 64, 2.2)
    assert calls == [("profile", (16,)), ("assemble", ()),
                     ("dense_spectrum", ()), ("dense_spectrum", ()),
                     ("match_table", ())]
