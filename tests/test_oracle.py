"""2-D brute-force operator: spectrum cross-checks and coordinate residuals."""

import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg

from otsuki_bipolar.geodesic import RotationNumber
from otsuki_bipolar.oracle import (
    OracleSpectrum,
    TorusGrid,
    _operator_matrix,
    dense_spectrum,
    match_table,
    theorem2_residual,
)
from otsuki_bipolar.spectrum import ModeEntry, ModeTable, weyl_N


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


def test_constant_mode(cases):
    grid = TorusGrid(cases.profile((3, 5)), 32, 160)
    spec = dense_spectrum(grid, 0.05)
    assert spec.eigenvalues[0] == pytest.approx(0.0, abs=1e-10)
    with pytest.raises(ValueError):
        dense_spectrum(grid, 0.0)   # no shift fits inside an empty window


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


@pytest.mark.parametrize("pq,blocks", [((3, 5), 1), ((5, 8), 2)])
def test_growth_loop_reuses_one_factorization(pq, blocks, cases, monkeypatch):
    """One LU per deck block: one for odd q, one per character for even q."""
    grid = TorusGrid(cases.profile(pq), 64, 512)
    ref = dense_spectrum(grid, 2.2, k_start=48)

    calls = {"splu": 0, "eigsh": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(scipy.sparse.linalg, name,
                            counted(name, getattr(scipy.sparse.linalg, name)))
    grown = dense_spectrum(grid, 2.2, k_start=4)
    assert calls["eigsh"] > 1 and calls["splu"] == blocks

    assert grown.eigenvalues.size == ref.eigenvalues.size
    assert np.max(np.abs(grown.eigenvalues - ref.eigenvalues)) < 1e-10
    assert np.array_equal(grown.deck_characters, ref.deck_characters)
    assert np.array_equal(grown.kept, ref.kept)


@pytest.mark.parametrize("pq,cut", [((3, 5), 2.5), ((5, 8), 2.5),
                                    ((5, 8), 0.05)])
def test_default_k_start_needs_one_lanczos_run(pq, cut, cases, monkeypatch):
    calls = []
    eigsh = scipy.sparse.linalg.eigsh

    def counted(*args, **kwargs):
        calls.append(kwargs["k"])
        return eigsh(*args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", counted)
    spec = dense_spectrum(TorusGrid(cases.profile(pq), 32, 256), cut)
    chars = [1.0, -1.0] if pq[1] % 2 == 0 else [1.0]
    assert len(calls) == len(chars)      # one run per deck block
    for k, c in zip(calls, chars):
        assert k > np.sum(spec.deck_characters == c)


def test_window_matches_dense_generalized_eigensolve(cases):
    """All eigenvalues below the cut, against LAPACK on K f = lambda W f.

    Asking for one more than the window holds leaves the stop test
    vals[-1] >= cut to prove that the window is complete.
    """
    grid = TorusGrid(cases.profile((3, 5)), 32, 32)
    cut = 2.5
    exact = scipy.linalg.eigh(_operator_matrix(grid).toarray(),
                              np.diag(grid.mass), eigvals_only=True)
    exact = exact[exact < cut]
    spec = dense_spectrum(grid, cut, k_start=exact.size + 1)
    assert spec.eigenvalues.size == exact.size > 0
    assert np.max(np.abs(spec.eigenvalues - exact)) < 1e-9


def test_deck_blocks_match_dense_generalized_eigensolve(cases):
    """Each deck character's window, against LAPACK on K f = lambda W f
    restricted to the functions of that character, f(P r) = c f(r) with
    P the half-period shift; together they are the whole window."""
    grid = TorusGrid(cases.profile((5, 8)), 32, 32)
    cut = 2.5
    k, w = _operator_matrix(grid).toarray(), np.diag(grid.mass)
    n, half = k.shape[0], k.shape[0] // 2
    idx = np.arange(n).reshape(grid.n_t, grid.n_alpha)
    shifted = np.roll(np.roll(idx, -grid.n_t // 2, axis=0),
                      -grid.n_alpha // 2, axis=1).ravel()
    spec = dense_spectrum(grid, cut)
    assert set(spec.deck_characters) == {1.0, -1.0}
    assert np.array_equal(spec.kept, spec.deck_characters == 1.0)
    for c in (1.0, -1.0):
        s = np.zeros((n, half))
        s[np.arange(half), np.arange(half)] = 1.0
        s[shifted[:half], np.arange(half)] = c
        exact = scipy.linalg.eigh(s.T @ k @ s, s.T @ w @ s, eigvals_only=True)
        exact = exact[exact < cut]
        mine = spec.eigenvalues[spec.deck_characters == c]
        assert mine.size == exact.size > 0
        assert np.max(np.abs(mine - exact)) < 1e-9
    exact = scipy.linalg.eigh(k, w, eigvals_only=True)
    exact = exact[exact < cut]
    assert spec.eigenvalues.size == exact.size
    assert np.max(np.abs(spec.eigenvalues - exact)) < 1e-9


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
