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
on their slopes (``concave``, as in the exact query routes), once per
certificate, and its maximum is the program value.  Every query route is
``exact`` or a ``bound`` that lies above its inner supremum, with the slope
of that bound, so the certificate's status is ``optimal``.

The per-client slack carries log((K+2) n_k / (epsilon delta)); a budget for
which that log is not positive for some client has no slack term, and is
refused.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .certificates import CertifiedBound
from .concave import GreedyFill
from .losses import Hypothesis
from .query import Client, query_profiles

__all__ = [
    "RadiusAllocation",
    "mean_radius_cap",
    "radius_grid",
    "wass_mean_bound",
]

DEFAULT_C1 = float(1.0 / np.sqrt(2.0))
DEFAULT_C2 = 1.0
DEFAULT_GRID_SIZE = 16


@dataclass
class RadiusAllocation:
    rho: np.ndarray           # per-client radii
    mean_rho: float
    values: np.ndarray        # envelope values at those radii
    objective: float          # mean of values


def mean_radius_cap(epsilon: float, delta: float, K: int, *,
                    include_slack: bool = True) -> float:
    cap = epsilon * (1.0 + 1.0 / K)
    if include_slack:
        cap += DEFAULT_C1 * float(np.sqrt(np.log((K + 2) / delta) / K))
    return cap


def _per_client_log_terms(K: int, ns, epsilon: float, delta: float) -> np.ndarray:
    """log((K+2) n_k / (epsilon delta)) for each client's sample count n_k:
    the per-client slack is the square root of this term over n_k.  Raises
    ValueError where the term is not positive (epsilon delta >= (K+2) n_k),
    since no slack term is derived for such a budget."""
    arg = (K + 2) * np.asarray(ns, dtype=float) / (epsilon * delta)
    if np.any(arg <= 1.0):
        raise ValueError(f"epsilon {epsilon:g} is too large for the per-client slack: "
                         f"epsilon * delta must stay below (K+2) n_k = {(K + 2) * np.min(ns):g}")
    return np.log(arg)


def radius_grid(floor: float, top: float, grid_size: int) -> np.ndarray:
    """The shared radius grid: ``grid_size`` log-spaced radii from the floor
    epsilon/K to the top, the whole population budget on one client (the
    curves flatten quickly), or the floor alone where the two meet.  A zero
    floor below a higher top is refused: its answer carries slope 0, and
    that flat tangent would not bound the curve above it."""
    if grid_size < 1:
        raise ValueError("grid_size must be positive")
    if top <= floor + 1e-15:
        return np.array([floor])
    if floor <= 0.0:
        raise ValueError("a radius grid above a zero floor has no sound tangent at 0")
    return np.unique(np.geomspace(floor, top, grid_size))


def _tangent_vertices(grid, values, slopes) -> np.ndarray:
    """Where each client's neighbouring tangent lines meet, (K, G-1): lines j
    and j+1 of a concave curve meet in [grid[j], grid[j+1]], and each vertex
    is clipped there to absorb rounding.  Lines of equal slope meet at
    grid[j+1]."""
    step = np.diff(grid)
    drop = slopes[:, :-1] - slopes[:, 1:]
    # (s_j - s_j+1) (x - r_j) = v_j+1 - v_j - s_j+1 (r_j+1 - r_j)
    lift = np.diff(values, axis=1) - slopes[:, 1:] * step
    x = np.divide(lift, drop, out=np.broadcast_to(step, drop.shape).copy(), where=drop > 0)
    return np.clip(grid[:-1] + x, grid[:-1], grid[1:])


def _waterfill(grid, values, slopes, floor: float, mean_cap: float) -> RadiusAllocation:
    """Exact maximizer of the mean envelope value under the radius floor and
    mean cap.  Client k's envelope is min(1, min_j values[k, j] + slopes[k, j]
    (rho - grid[j])): line j from vertex j-1 to vertex j, cut short where it
    reaches 1.  The spare budget is poured onto those pieces in slope order."""
    K = len(values)
    x = _tangent_vertices(grid, values, slopes)
    lo = np.maximum(np.c_[np.full(K, -np.inf), x], floor)
    # where each line reaches 1; a flat line never does, and is no piece
    with np.errstate(divide="ignore", invalid="ignore"):
        reach = lo + (1.0 - (values + slopes * (lo - grid))) / slopes
        width = np.minimum(np.c_[x, np.full(K, np.inf)], reach) - lo
        rising = (slopes > 0.0) & (width > 0.0)
    width = width[rising]
    taken = GreedyFill(width, slopes[rising] * width).taken(K * (mean_cap - floor))
    # a client's pieces tile its radii from the floor, and fill left to right
    rho = floor + np.bincount(np.nonzero(rising)[0], weights=taken, minlength=K)
    at_rho = np.minimum(1.0, np.min(values + slopes * (rho[:, None] - grid), axis=1))
    return RadiusAllocation(
        rho=rho,
        mean_rho=float(np.mean(rho)),
        values=at_rho,
        objective=float(np.mean(at_rho)),
    )


def _chords(grid, values, rho) -> np.ndarray:
    """Each client's chord between the grid answers on either side of its
    radius, at that radius; a radius past the grid's ends takes the answer
    at the nearer end."""
    if len(grid) == 1:
        return values[:, 0]
    j = np.clip(np.searchsorted(grid, rho, side="right") - 1, 0, len(grid) - 2)
    t = np.clip((rho - grid[j]) / (grid[j + 1] - grid[j]), 0.0, 1.0)
    at = np.arange(len(rho))
    return values[at, j] + t * (values[at, j + 1] - values[at, j])


def wass_mean_bound(
    clients: list[Client],
    h: Hypothesis,
    epsilon: float,
    delta: float,
    *,
    grid_size: int = DEFAULT_GRID_SIZE,
    include_slack: bool = True,
) -> CertifiedBound:
    """Certified upper bound on the target mean risk when the target moves
    clients by at most epsilon average transport cost."""
    if not clients:
        raise ValueError("at least one client required")
    if epsilon < 0:
        raise ValueError("epsilon must be nonnegative")
    if not (0 < delta < 1):
        raise ValueError("delta must lie in (0, 1)")
    if include_slack and epsilon <= 0:
        raise ValueError("epsilon must be positive when slack terms are on "
                         "(the per-client term carries log(1/epsilon))")
    K = len(clients)
    ns = np.array([c.n_samples for c in clients], dtype=float)
    if include_slack:
        per_client_log = _per_client_log_terms(K, ns, epsilon, delta)
    cap = mean_radius_cap(epsilon, delta, K, include_slack=include_slack)
    grid = radius_grid(epsilon / K, K * cap, grid_size)
    values, slopes = query_profiles(clients, h, grid)
    witness = _waterfill(grid, values, slopes, epsilon / K, cap)
    chord_value = float(np.mean(_chords(grid, values, witness.rho)))
    if include_slack:
        meta = float(np.sqrt(np.log((K + 2) / delta) / (2 * K)))
        per_client = float(np.mean(DEFAULT_C2 * np.sqrt(per_client_log / ns)))
    else:
        meta = per_client = 0.0
    raw = witness.objective + meta + per_client
    return CertifiedBound(
        kind="wass-mean",
        value=float(min(raw, 1.0)),
        raw_value=raw,
        status="optimal",
        slack={"meta": meta, "per_client": per_client},
        params={
            "K": K, "delta": delta, "epsilon": epsilon,
            "c1": DEFAULT_C1, "c2": DEFAULT_C2, "grid_size": grid_size,
            "mean_radius_cap": cap,
            "include_slack": include_slack,
        },
        extra={
            "program_value": witness.objective,
            "chord_value": chord_value,
            "grid_gap": witness.objective - chord_value,
            "witness_mean_rho": witness.mean_rho,
            "witness_rho": witness.rho.tolist(),
        },
    )
