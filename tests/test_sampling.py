"""The sampling ports against SciPy, which built these sample sets before:
the scrambled Halton points, the Cephes ndtri and every point set built on
them must equal the SciPy-built values bit for bit."""

import numpy as np
import pytest
from scipy.special import ndtri as scipy_ndtri
from scipy.stats import norm, qmc

from lyapmetric import sampling

DIMS = range(1, 6)
COUNTS = (1, 2, 3, 5, 10, 20, 50, 100, 200, 500, 1000)
SEEDS = range(45)


def _scipy_halton(dim, count, seed):
    return qmc.Halton(d=dim, scramble=True, seed=seed).random(count)


def _scipy_directions(u):
    g = norm.ppf(np.clip(u, 1e-12, 1 - 1e-12))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    return g


@pytest.mark.parametrize("dim", DIMS)
def test_halton_unit_equals_scipy(dim):
    for count in COUNTS:
        for seed in SEEDS:
            assert np.array_equal(sampling.halton_unit(dim, count, seed),
                                  _scipy_halton(dim, count, seed)), \
                (dim, count, seed)


def test_ndtri_equals_scipy():
    rng = np.random.default_rng(20170608)
    y = np.concatenate([
        rng.random(100_000),
        rng.random(50_000) * 0.14,                 # lower tail, z < 8
        1.0 - rng.random(50_000) * 0.14,           # upper tail
        10.0 ** -rng.uniform(14.0, 300.0, 20_000),  # z >= 8
        1.0 - 10.0 ** -rng.uniform(0.0, 16.0, 20_000),
        [1e-12, 1.0 - 1e-12, 0.5, np.exp(-2.0)],
    ])
    assert y.size == 240_004
    ours = np.array([sampling.ndtri(v) for v in y.tolist()])
    assert np.array_equal(ours, scipy_ndtri(y))


def test_ndtri_ends_and_outside():
    assert sampling.ndtri(0.0) == -np.inf
    assert sampling.ndtri(1.0) == np.inf
    for y in (-0.5, 1.5, np.nan):
        assert np.isnan(sampling.ndtri(y))


@pytest.mark.parametrize("dim", range(2, 6))
def test_sphere_and_ball_points_equal_scipy_built(dim):
    for count in (1, 4, 8, 33):
        for seed in range(0, 45, 4):
            u = _scipy_halton(dim, count, seed)
            assert np.array_equal(sampling.sphere_points(dim, 1.5, count, seed),
                                  1.5 * _scipy_directions(u))
            u = _scipy_halton(dim + 1, count, seed)
            r = 0.7 * np.maximum(u[:, dim], 1.0 / (4 * count)) ** (1.0 / dim)
            want = _scipy_directions(u[:, :dim]) * r[:, None]
            assert np.array_equal(sampling.ball_points(dim, 0.7, count, seed),
                                  want)


@pytest.mark.parametrize("dim", DIMS)
def test_box_points_equal_scipy_built(dim):
    lo, hi = -np.arange(1.0, dim + 1), np.full(dim, 2.0)
    for count in (1, 7, 64):
        for seed in range(0, 45, 4):
            want = lo + _scipy_halton(dim, count, seed) * (hi - lo)
            assert np.array_equal(sampling.box_points(lo, hi, count, seed),
                                  want)


@pytest.mark.parametrize("points", [
    [[1.0, 2.0], [0.5, 3.0], [1.0, 2.0], [0.5, -1.0], [1.0, 1.5]],
    [[2.0], [-1.0], [2.0]],
    np.round(np.random.default_rng(3).normal(size=(200, 3)), 1),
], ids=["planar", "scalar", "random"])
def test_unique_rows_equals_numpy_unique(points):
    points = np.asarray(points, dtype=float)
    assert np.array_equal(sampling.unique_rows(points),
                          np.unique(points, axis=0))
