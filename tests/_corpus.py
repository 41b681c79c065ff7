"""Frozen random program instances shared by the solver tests and the
acceptance suite.

The seeds are pinned; regenerating with the same index always yields the
same instance.  An f-divergence instance is a divergence name, a budget and
the query values of a uniform law on K <= 3 clients, small enough for the
exhaustive ball oracle at its pinned step sizes.
The transport allocation's instances are random concave query curves, given
to the solvers as the values and right derivatives a grid of answers holds.
"""
import numpy as np

# (K, number of instances, oracle grid step)
BALL_BLOCKS = [(2, 40, 1e-3), (3, 10, 2e-3)]


def ball_instance(K: int, i: int):
    """Instance i of the K-client block: (name, epsilon, q)."""
    rng = np.random.default_rng(np.random.SeedSequence([11000, K, i]))
    name = "kl" if i % 2 == 0 else "chi-square"
    epsilon = float(rng.uniform(0.02, 0.5))
    q = rng.uniform(0.0, 1.0, K)
    return name, epsilon, q


def iter_ball_corpus():
    for K, n_inst, step in BALL_BLOCKS:
        for i in range(n_inst):
            yield (K, i, step, *ball_instance(K, i))


def concave_curve(rng, start: float, stop: float):
    """A random concave nondecreasing piecewise-linear curve in [0, 1], kinked
    in (start, stop) and flat past its last kink, as a query curve ends flat
    once every sample is bought: a function of radii at or past ``start``
    giving the curve's values there and its right derivatives, as each query
    answer carries them.  About one curve in ten is flat throughout, and
    about one in five rises to 1."""
    kinks = np.sort(rng.uniform(start, stop, int(rng.integers(1, 6))))
    points = np.r_[start, kinks]
    slopes = np.r_[np.sort(rng.exponential(1.0, len(kinks)))[::-1], 0.0]
    base = float(rng.uniform(0.0, 0.6))
    rise = slopes[:-1] * np.diff(points)
    scale = (1.0 - base) * min(1.0, float(rng.uniform(0.2, 1.2))) / rise.sum()
    slopes *= scale * (rng.random() > 0.1)
    at = np.r_[base, base + np.cumsum(slopes[:-1] * np.diff(points))]

    def curve(r):
        i = np.searchsorted(kinks, r, side="right")
        return np.minimum(at[i] + slopes[i] * (r - points[i]), 1.0), slopes[i]
    return curve


def tangents(curves, grid):
    """The (K, G) values and right derivatives of each curve on the grid."""
    values, slopes = zip(*(c(grid) for c in curves))
    return np.array(values), np.array(slopes)
