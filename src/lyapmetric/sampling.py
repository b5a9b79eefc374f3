"""Deterministic low-discrepancy sampling helpers.

All sample sets are functions of (shape, count, seed) only, so repeated runs
of an estimate or certificate see byte-identical inputs.

The unit points are the scrambled Halton sequence of Owen ("A randomized
Halton algorithm in R", arXiv:1706.02808, 2017): one van der Corput sequence
per prime base, each digit mapped through its own random permutation of
``0 .. base - 1``.  The permutations are drawn from
``numpy.random.default_rng(seed)``, base by base and digit by digit, so the
points equal ``scipy.stats.qmc.Halton(d, scramble=True, seed=seed)
.random(count)`` bit for bit; the Gaussian directions come from a port of
the Cephes inverse normal CDF :func:`ndtri`, bit-equal to
``scipy.special.ndtri``.  Neither needs SciPy at run time.
"""

from __future__ import annotations

import math

import numpy as np
# numpy imports its random package on first attribute access; importing it
# here keeps that (about 15 ms) out of the first command that samples
from numpy.random import default_rng


def _primes(count):
    """The first `count` primes, by trial division."""
    primes = []
    k = 2
    while len(primes) < count:
        if all(k % p for p in primes if p * p <= k):
            primes.append(k)
        k += 1
    return primes


def halton_unit(dim, count, seed):
    """The first `count` points of the scrambled Halton sequence in
    [0, 1)^dim, shape (count, dim).

    Base b (the j-th prime for coordinate j) gets ceil(54 / log2 b) - 1
    digit permutations, enough that b^-k stays above 2^-54, each a shuffled
    ``arange(b)``; the point's coordinate is sum_k perm_k[digit_k] b^-k,
    accumulated from the lowest digit up.
    """
    rng = default_rng(int(seed))
    out = np.empty((count, dim))
    for j, base in enumerate(_primes(dim)):
        perms = np.repeat(np.arange(base)[None],
                          math.ceil(54 / math.log2(base)) - 1, axis=0)
        for perm in perms:
            rng.shuffle(perm)
        quotient = np.arange(count)
        value = np.zeros(count)
        scale = 1.0 / base
        for perm in perms:
            value += perm[quotient % base] * scale
            quotient //= base
            scale /= base
        out[:, j] = value
    return out


# Cephes ndtri: rational approximations in y - 1/2 on the centre
# |y - 1/2| <= 1/2 - exp(-2), and in 1/z, z = sqrt(-2 log y), on the tails
# (z < 8 and z >= 8)
_S2PI = 2.50662827463100050242e0
_EXP_M2 = 0.13533528323661269189
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1,
       -5.66762857469070293439e1, 1.39312609387279679503e1,
       -1.23916583867381258016e0)
_Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0,
       8.63602421390890590575e1, -2.25462687854119370527e2,
       2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1,
       5.71628192246421288162e1, 4.40805073893200834700e1,
       1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2,
       -8.57456785154685413611e-4)
_Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1,
       4.13172038254672030440e1, 1.50425385692907503408e1,
       2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0,
       3.93881025292474443415e0, 1.33303460815807542389e0,
       2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6,
       6.23974539184983293730e-9)
_Q2 = (6.02427039364742014255e0, 3.67983563856160859403e0,
       1.37702099489081330271e0, 2.16236993594496635890e-1,
       1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)


def _polevl(x, coefs):
    """coefs[0] x^n + ... + coefs[n], by Horner's rule."""
    out = coefs[0]
    for c in coefs[1:]:
        out = out * x + c
    return out


def _p1evl(x, coefs):
    """x^n + coefs[0] x^(n-1) + ... + coefs[n-1], by Horner's rule."""
    out = x + coefs[0]
    for c in coefs[1:]:
        out = out * x + c
    return out


def ndtri(y):
    """The standard normal quantile at a probability y in [0, 1] (a Python
    float; -inf at 0, inf at 1, nan outside), in the operation order of
    Cephes, so it equals ``scipy.special.ndtri`` bit for bit."""
    if y == 0.0:
        return -math.inf
    if y == 1.0:
        return math.inf
    if not 0.0 < y < 1.0:
        return math.nan
    negate = True
    if y > 1.0 - _EXP_M2:
        y = 1.0 - y
        negate = False
    if y > _EXP_M2:
        y = y - 0.5
        y2 = y * y
        x = y + y * (y2 * _polevl(y2, _P0) / _p1evl(y2, _Q0))
        return x * _S2PI
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    if x < 8.0:
        x1 = z * _polevl(z, _P1) / _p1evl(z, _Q1)
    else:
        x1 = z * _polevl(z, _P2) / _p1evl(z, _Q2)
    x = x0 - x1
    return -x if negate else x


def _directions(u):
    """Rows of `u` in (0, 1)^dim mapped through ndtri and normalized:
    directions distributed uniformly on the unit sphere."""
    clipped = np.clip(u, 1e-12, 1 - 1e-12)
    g = np.array([ndtri(v) for v in clipped.ravel().tolist()])
    g = g.reshape(u.shape)
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    return g


def sphere_points(dim, radius, count, seed):
    """Deterministic points on the sphere |e| = radius."""
    if dim == 1:
        signs = np.array([1.0 if i % 2 == 0 else -1.0 for i in range(count)])
        return (radius * signs)[:, None]
    return radius * _directions(halton_unit(dim, count, seed))


def ball_points(dim, radius, count, seed):
    """Deterministic points in the closed ball |e| <= radius (origin excluded)."""
    if dim == 1:
        # symmetric radii ladder
        mags = radius * (np.arange(1, count + 1) / count)
        signs = np.array([1.0 if i % 2 == 0 else -1.0 for i in range(count)])
        return (mags * signs)[:, None]
    u = halton_unit(dim + 1, count, seed)
    g = _directions(u[:, :dim])
    r = radius * np.maximum(u[:, dim], 1.0 / (4 * count)) ** (1.0 / dim)
    return g * r[:, None]


def box_points(lo, hi, count, seed):
    """Deterministic points in an axis-aligned box."""
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    u = halton_unit(lo.size, count, seed)
    return lo + u * (hi - lo)


def unique_rows(points):
    """The distinct rows of `points` in lexicographic order, as
    ``np.unique(points, axis=0)`` returns them; np.unique would import
    ``numpy.ma`` on its first call."""
    points = np.asarray(points, dtype=float)
    rows = sorted(set(map(tuple, points.tolist())))
    return np.array(rows).reshape(-1, points.shape[1])
