"""Shared fixtures: solved tori, profiles, and radial spectra are cached
per session because most tests exercise the same five rotation numbers."""

import pytest

from otsuki_bipolar.geodesic import RotationNumber, profile, solve_rotation
from otsuki_bipolar.spectrum import assemble, pipeline_grid_size, solve_radial
from otsuki_bipolar.sturm import Boundary

CASES = [(3, 5), (5, 8), (4, 7), (5, 9), (7, 10)]
BASE_GRID = 2048


class CaseCache:
    def __init__(self):
        self._solutions = {}
        self._profiles = {}
        self._spectra = {}
        self._tables = {}

    def solution(self, pq):
        if pq not in self._solutions:
            self._solutions[pq] = solve_rotation(RotationNumber(*pq))
        return self._solutions[pq]

    def profile(self, pq):
        if pq not in self._profiles:
            self._profiles[pq] = profile(self.solution(pq))
        return self._profiles[pq]

    def grid(self, pq, doubled=False):
        n = pipeline_grid_size(BASE_GRID, pq[1])
        return 2 * n if doubled else n

    def spectrum(self, pq, l, boundary=Boundary.PERIODIC, doubled=False):
        key = (pq, l, boundary, doubled)
        if key not in self._spectra:
            self._spectra[key] = solve_radial(
                self.solution(pq), None, l, self.grid(pq, doubled), boundary)
        return self._spectra[key]

    def table(self, pq, doubled=False):
        key = (pq, doubled)
        if key not in self._tables:
            spectra = {l: self.spectrum(pq, l, doubled=doubled)
                       for l in range(2)}
            self._tables[key] = assemble(
                self.solution(pq), None,
                grid_size=self.grid(pq, doubled), spectra=spectra)
        return self._tables[key]


@pytest.fixture(scope="session")
def cases():
    return CaseCache()
