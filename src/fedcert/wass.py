"""Certificates under transport-cost shifts of the client population.

The target population may move each client's data distribution, as long as
the population-average transport cost stays within epsilon.  The certificate
maximizes the mean of per-client robust query values over per-client radii:

    maximize   (1/K) sum_k QV_k(rho_k)
    subject to rho_k >= epsilon / K,
               mean(rho) <= epsilon (1 + 1/K) + c1 sqrt(ln((K+2)/delta) / K),

where the floor covers the share of the budget any single client can absorb
and the cap inflation pays for estimating the average cost from K clients,
with c1 = ``DEFAULT_C1`` = 1/sqrt(2).

The clients answer a fixed radius grid as one (K, G) table of values and
slopes (``query.query_profiles``: one stacked build per block of same-size
flip-route clients), which charges each client one query per grid point.
Every answer carries its value and its right derivative in the radius
(``QueryValue.gamma_star``), and a concave curve lies below each of its
tangent lines, so the minimum of the lines ``QV(r_j) + g_j (rho - r_j)``,
capped at 1, bounds each client's curve from above at no extra query
(Kelley's cutting-plane outer approximation).  The envelope is exact at the
grid points; the straight chords between them, which lie below the curve,
are reported only as ``chord_value``.  The allocation over these
piecewise-linear concave envelopes is solved exactly by greedy water-filling
on their slopes (``concave.RowFill``, the kernel of the exact query routes),
and its maximum is the program value; ``wass_mean_rows`` solves many
populations' tables at once, and ``wass_mean_certificate`` is its one-row
case, made by ``Rows.bound``.  ``wass_mean_bound`` asks the clients the
grid and returns that certificate; ``certify`` reads each grid's columns
off the one table it asks every client (``oracle.issue_certificate``).
Every query route is ``exact`` or a ``bound`` that lies above its inner
supremum, with the slope of that bound, so the certificate's status is
``optimal``.

The per-client slack carries log((K+2) n_k / (epsilon delta)); a zero
budget, or one for which that log is not positive for some client, has no
slack term, and ``certificate_grid`` refuses it before any query.  Every
bound function here returns a certificate, slack included; the program
value it pads is its ``extra["program_value"]``.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .certificates import CertifiedBound, Rows
from .concave import RowFill
from .losses import Hypothesis
from .query import Client, query_profiles

__all__ = [
    "RadiusAllocation",
    "mean_radius_cap",
    "radius_grid",
    "certificate_grid",
    "wass_mean_rows",
    "wass_mean_certificate",
    "wass_mean_bound",
]

DEFAULT_C1 = float(1.0 / np.sqrt(2.0))
DEFAULT_C2 = 1.0
DEFAULT_GRID_SIZE = 16


class RadiusAllocation(NamedTuple):
    rho: np.ndarray           # per-client radii, after the rows' leading axes
    mean_rho: np.ndarray
    values: np.ndarray        # envelope values at those radii
    objective: np.ndarray     # mean of values


def mean_radius_cap(epsilon: float, delta: float, K: int) -> float:
    return epsilon * (1.0 + 1.0 / K) + DEFAULT_C1 * float(np.sqrt(np.log((K + 2) / delta) / K))


def _per_client_log_terms(K: int, ns, epsilon: float, delta: float) -> np.ndarray:
    """log((K+2) n_k / (epsilon delta)) per client, whose square root over
    n_k is its slack; ValueError where it is not positive (epsilon delta >=
    (K+2) n_k), since no slack term is derived for such a budget."""
    arg = (K + 2) * np.asarray(ns, dtype=float) / (epsilon * delta)
    if np.any(arg <= 1.0):
        raise ValueError(f"epsilon {epsilon:g} is too large for the per-client slack: "
                         f"epsilon * delta must stay below (K+2) n_k = {(K + 2) * np.min(ns):g}")
    return np.log(arg)


def radius_grid(floor: float, top: float, grid_size: int) -> np.ndarray:
    """The shared radius grid: ``grid_size`` log-spaced radii from the floor
    epsilon/K to the top, the whole population budget on one client (the
    curves flatten quickly).  ``certificate_grid`` refuses a zero epsilon,
    so the floor is positive and the top lies above it."""
    if grid_size < 1:
        raise ValueError("grid_size must be positive")
    return np.unique(np.geomspace(floor, top, grid_size))


def certificate_grid(ns, epsilon: float, delta: float, *,
                     grid_size: int = DEFAULT_GRID_SIZE) -> np.ndarray:
    """The ``radius_grid`` of K clients of ``ns`` samples (K along the last
    axis) for a ``wass-mean`` certificate, after the budget is checked: a
    budget the certificate refuses is refused before any query."""
    if not epsilon > 0:
        raise ValueError("epsilon must be positive: the per-client term carries "
                         "log(1/epsilon)")
    if not (0 < delta < 1):
        raise ValueError("delta must lie in (0, 1)")
    K = np.shape(ns)[-1]
    _per_client_log_terms(K, ns, epsilon, delta)
    return radius_grid(epsilon / K, K * mean_radius_cap(epsilon, delta, K), grid_size)


def _tangent_vertices(grid, values, slopes) -> np.ndarray:
    """Where each client's neighbouring tangent lines meet, (..., K, G-1):
    lines j and j+1 of a concave curve meet in [grid[j], grid[j+1]], and
    each vertex is clipped there to absorb rounding.  Lines of equal slope
    meet at grid[j+1]."""
    step = np.diff(grid)
    drop = slopes[..., :-1] - slopes[..., 1:]
    # (s_j - s_j+1) (x - r_j) = v_j+1 - v_j - s_j+1 (r_j+1 - r_j)
    lift = np.diff(values, axis=-1) - slopes[..., 1:] * step
    x = np.divide(lift, drop, out=np.broadcast_to(step, drop.shape).copy(), where=drop > 0)
    return np.clip(grid[:-1] + x, grid[:-1], grid[1:])


def _waterfill(grid, values, slopes, floor: float, mean_cap: float) -> RadiusAllocation:
    """Exact maximizer of the mean envelope value under the radius floor and
    mean cap, for each row of (..., K, G) values and slopes.  Client k's
    envelope is min(1, min_j values[k, j] + slopes[k, j] (rho - grid[j])):
    line j from vertex j-1 to vertex j, cut short where it reaches 1.  The
    rising pieces of each row, in client and line order, make one row of a
    ``RowFill``, which pours the row's spare budget onto them in slope
    order."""
    *lead, K, G = np.shape(values)
    x = _tangent_vertices(grid, values, slopes)
    edge = np.full((*lead, K, 1), np.inf)
    lo = np.maximum(np.concatenate([-edge, x], axis=-1), floor)
    # where each line reaches 1; a flat line never does, and one that rises
    # over no width is no piece
    with np.errstate(divide="ignore", invalid="ignore"):
        reach = lo + (1.0 - (values + slopes * (lo - grid))) / slopes
        width = np.minimum(np.concatenate([x, edge], axis=-1), reach) - lo
    rising = ((slopes > 0.0) & (width > 0.0)).reshape(-1, K * G)
    m = np.count_nonzero(rising, axis=1)
    # each row's pieces, in order, at its front
    piece = np.arange(m.max(initial=0)) < m[:, None]
    cost, gain = np.zeros(piece.shape), np.zeros(piece.shape)
    cost[piece] = width.reshape(rising.shape)[rising]
    gain[piece] = slopes.reshape(rising.shape)[rising] * cost[piece]
    taken = np.zeros(rising.shape)
    taken[rising] = RowFill.greedy(cost, gain, m).taken(K * (mean_cap - floor))[piece]
    # a client's pieces tile its radii from the floor, and fill left to right
    client = np.repeat(np.arange(taken.size // G), G)
    rho = floor + np.bincount(client, weights=taken.reshape(-1)).reshape(*lead, K)
    at_rho = np.minimum(1.0, np.min(values + slopes * (rho[..., None] - grid), axis=-1))
    return RadiusAllocation(
        rho=rho,
        mean_rho=np.mean(rho, axis=-1),
        values=at_rho,
        objective=np.mean(at_rho, axis=-1),
    )


def _chords(grid, values, rho) -> np.ndarray:
    """Each client's chord between the grid answers on either side of its
    radius, at that radius; a radius past the grid's ends takes the answer
    at the nearer end."""
    if len(grid) == 1:
        return values[..., 0]
    j = np.clip(np.searchsorted(grid, rho, side="right") - 1, 0, len(grid) - 2)
    t = np.clip((rho - grid[j]) / (grid[j + 1] - grid[j]), 0.0, 1.0)
    lo, hi = (np.take_along_axis(values, at[..., None], axis=-1)[..., 0] for at in (j, j + 1))
    return lo + t * (hi - lo)


def wass_mean_rows(grid, values, slopes, ns, epsilon: float, delta: float) -> Rows:
    """``wass_mean_bound`` of T client populations from their answers on
    ``grid``, ``values`` and ``slopes`` (T, K, G), and sample counts ``ns``
    (T, K): each term is (T,), and the witness radii (T, K).  ``grid`` is
    the ``certificate_grid`` of these counts and budget, which has checked
    the budget."""
    ns = np.asarray(ns, dtype=float)
    if np.shape(values)[-1] != len(grid) or np.shape(values)[:-1] != ns.shape:
        raise ValueError("each client needs one answer per radius of its certificate grid")
    T, K = ns.shape
    witness = _waterfill(grid, values, slopes, epsilon / K, mean_radius_cap(epsilon, delta, K))
    chord_value = np.mean(_chords(grid, values, witness.rho), axis=-1)
    meta = np.full(T, np.sqrt(np.log((K + 2) / delta) / (2 * K)))
    per_client = np.mean(DEFAULT_C2 * np.sqrt(_per_client_log_terms(K, ns, epsilon, delta) / ns),
                         axis=-1)
    raw = witness.objective + meta + per_client
    return Rows(np.minimum(raw, 1.0), raw, {"meta": meta, "per_client": per_client}, {
        "program_value": witness.objective,
        "chord_value": chord_value,
        "grid_gap": witness.objective - chord_value,
        "witness_mean_rho": witness.mean_rho,
        "witness_rho": witness.rho,
    })


def wass_mean_certificate(grid, values, slopes, ns, epsilon: float,
                          delta: float) -> CertifiedBound:
    """The ``wass-mean`` certificate of K clients from their answers on
    ``grid``, ``values`` and ``slopes`` (K, G), and sample counts ``ns``
    (K,): ``wass_mean_rows`` of one row, made by ``Rows.bound``.  ``grid``
    is the ``certificate_grid`` of these counts and budget, whose log-spaced
    radii are distinct, so its ``grid_size`` is its length."""
    ns = np.asarray(ns, dtype=float)
    return wass_mean_rows(grid, values[None], slopes[None], ns[None], epsilon, delta).bound(
        "wass-mean", K=len(ns), delta=delta, epsilon=epsilon, c1=DEFAULT_C1, c2=DEFAULT_C2,
        grid_size=len(grid), mean_radius_cap=mean_radius_cap(epsilon, delta, len(ns)))


def wass_mean_bound(
    clients: list[Client],
    h: Hypothesis,
    epsilon: float,
    delta: float,
    *,
    grid_size: int = DEFAULT_GRID_SIZE,
) -> CertifiedBound:
    """Certified upper bound on the target mean risk when the target moves
    clients by at most epsilon average transport cost: the
    ``wass_mean_certificate`` of the clients' answers on
    ``certificate_grid``."""
    if not clients:
        raise ValueError("at least one client required")
    ns = np.array([c.n_samples for c in clients], dtype=float)
    grid = certificate_grid(ns, epsilon, delta, grid_size=grid_size)
    values, slopes = query_profiles(clients, h, grid)
    return wass_mean_certificate(grid, values, slopes, ns, epsilon, delta)
