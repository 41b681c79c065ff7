"""Certificates under transport-cost shifts of the client population.

The target population may move each client's data distribution, as long as
the population-average transport cost stays within epsilon.  The certificate
maximizes the mean of per-client robust query values over per-client radii:

    maximize   (1/K) sum_k QV_k(rho_k)
    subject to rho_k >= epsilon / K,
               mean(rho) <= epsilon (1 + 1/K) + c1 sqrt(ln((K+2)/delta) / K),

where the floor covers the share of the budget any single client can absorb
and the cap inflation pays for estimating the average cost from K clients.

Each client answers a fixed radius grid in one profile call
(``Client.query_profile``), which charges one query per grid point, and the
resulting profile is replaced by its concave upper envelope.  The envelope is
exact at the grid points; between them it follows straight chords, which lie
below the concave query curve they join (making it an upper bound is open,
ROADMAP item 1).  The allocation over piecewise-linear concave envelopes is
solved exactly by greedy water-filling on segment slopes (``concave``, as in
the exact query routes), once per certificate, and its maximum is the
program value.
A profile is sound when every query on it is ``exact`` or a ``bound`` (the
logistic score-line route, which lies above its inner supremum).  The
certificate's status is ``optimal`` when every profile is sound, and
``iterative`` otherwise: the ascent route for linear-classifier rules only
lower-bounds its inner supremum.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .certificates import CertifiedBound
from .concave import GreedyFill, upper_hulls
from .losses import Hypothesis
from .query import Client

__all__ = [
    "QvProfile",
    "RadiusAllocation",
    "mean_radius_cap",
    "build_profiles",
    "wass_mean_bound",
]

DEFAULT_C1 = float(1.0 / np.sqrt(2.0))
DEFAULT_C2 = 1.0
DEFAULT_GRID_SIZE = 16


@dataclass
class QvProfile:
    """One client's robust-query curve sampled on a radius grid, stored as
    the vertices of its concave upper envelope.

    ``hull`` marks which grid points are those vertices.  ``build_profiles``
    passes it in, having hulled every client's profile in one
    ``concave.upper_hulls`` call; a profile built without it hulls its own
    curve with the same kernel, as one row.
    """

    client_id: int
    n_samples: int
    rhos: np.ndarray
    qvs: np.ndarray
    sound: bool = True        # every query is exact or an upper bound
    hull: np.ndarray | None = field(default=None, repr=False)
    hull_x: np.ndarray = field(init=False)
    hull_y: np.ndarray = field(init=False)

    def __post_init__(self):
        self.rhos = np.asarray(self.rhos, dtype=float)
        self.qvs = np.asarray(self.qvs, dtype=float)
        if len(self.rhos) != len(self.qvs) or len(self.rhos) == 0:
            raise ValueError("profile needs matching nonempty grids")
        if np.any(np.diff(self.rhos) <= 0):
            raise ValueError("radius grid must be strictly increasing")
        if self.hull is None:
            self.hull = upper_hulls(self.rhos, self.qvs, [len(self.rhos)])
        self.hull_x, self.hull_y = self.rhos[self.hull], self.qvs[self.hull]

    def envelope(self, rho) -> np.ndarray:
        """Piecewise-linear envelope value; clamps outside the grid range."""
        return np.interp(rho, self.hull_x, self.hull_y)


@dataclass
class RadiusAllocation:
    rho: np.ndarray           # per-client radii
    mean_rho: float
    values: np.ndarray        # envelope values at those radii
    objective: float          # mean of values


def mean_radius_cap(epsilon: float, delta: float, K: int,
                    c1: float = DEFAULT_C1, *, include_slack: bool = True) -> float:
    cap = epsilon * (1.0 + 1.0 / K)
    if include_slack:
        cap += c1 * float(np.sqrt(np.log((K + 2) / delta) / K))
    return cap


def build_profiles(
    clients: list[Client],
    h: Hypothesis,
    epsilon: float,
    delta: float,
    grid_size: int = DEFAULT_GRID_SIZE,
    c1: float = DEFAULT_C1,
    *,
    include_slack: bool = True,
) -> list[QvProfile]:
    """Query every client on a shared radius grid covering [epsilon/K, K*cap].

    The top of the grid is the whole population budget concentrated on one
    client; the grid is log-spaced since the curves flatten quickly.  Each
    client answers the grid in one ``query_profile`` call; each grid point
    consumes one query from the client's budget.  Every client's envelope
    is then taken in one ``concave.upper_hulls`` call.
    """
    if not clients:
        raise ValueError("at least one client required")
    if grid_size < 1:
        raise ValueError("grid_size must be positive")
    K = len(clients)
    floor = epsilon / K
    top = K * mean_radius_cap(epsilon, delta, K, c1, include_slack=include_slack)
    if top <= floor + 1e-15:
        grid = np.array([floor])
    elif floor <= 0.0:
        grid = np.concatenate([[0.0], np.geomspace(top / 10.0 ** (grid_size - 1),
                                                   top, max(grid_size - 1, 1))])
    else:
        grid = np.geomspace(floor, top, grid_size)
    grid = np.unique(grid)

    answers = [c.query_profile(h, grid) for c in clients]
    qvs = np.array([[q.value for q in a] for a in answers])
    hulls = upper_hulls(np.tile(grid, K), qvs.ravel(), np.full(K, len(grid)))
    return [QvProfile(client_id=c.client_id, n_samples=c.n_samples, rhos=grid.copy(),
                      qvs=v, sound=all(q.status in ("exact", "bound") for q in a), hull=k)
            for c, a, v, k in zip(clients, answers, qvs, hulls.reshape(K, len(grid)))]


def _waterfill(profiles: list[QvProfile], floor: float, mean_cap: float) -> RadiusAllocation:
    """Exact maximizer of the mean envelope value under the radius floor and
    mean cap: pour the spare budget onto hull segments in slope order."""
    K = len(profiles)
    # every hull segment, client by client and left to right
    client = np.repeat(np.arange(K), [len(p.hull_x) - 1 for p in profiles])
    x0 = np.concatenate([p.hull_x[:-1] for p in profiles])
    x1 = np.concatenate([p.hull_x[1:] for p in profiles])
    y0 = np.concatenate([p.hull_y[:-1] for p in profiles])
    y1 = np.concatenate([p.hull_y[1:] for p in profiles])
    lo = np.maximum(x0, floor)
    width = x1 - lo
    # the envelope at lo as np.interp finds it where the segment is kept
    # (x0 <= lo < x1)
    rise = y1 - np.where(lo == x0, y0, (y1 - y0) / (x1 - x0) * (lo - x0) + y0)
    rising = (width > 0.0) & (rise > 0.0)
    client, lo, width, rise = client[rising], lo[rising], width[rising], rise[rising]
    taken = GreedyFill(width, rise).taken(K * (mean_cap - floor))
    # a client's segments fill left to right, so its radius ends in the
    # rightmost segment it touched
    rho = np.full(K, floor)
    used = taken > 0.0
    np.maximum.at(rho, client[used], lo[used] + taken[used])
    values = np.array([p.envelope(r) for p, r in zip(profiles, rho)])
    return RadiusAllocation(
        rho=rho,
        mean_rho=float(np.mean(rho)),
        values=values,
        objective=float(np.mean(values)),
    )


def wass_mean_bound(
    clients: list[Client],
    h: Hypothesis,
    epsilon: float,
    delta: float,
    *,
    grid_size: int = DEFAULT_GRID_SIZE,
    c1: float = DEFAULT_C1,
    c2: float = DEFAULT_C2,
    include_slack: bool = True,
) -> CertifiedBound:
    """Certified upper bound on the target mean risk when the target moves
    clients by at most epsilon average transport cost."""
    if epsilon < 0:
        raise ValueError("epsilon must be nonnegative")
    if not (0 < delta < 1):
        raise ValueError("delta must lie in (0, 1)")
    if include_slack and epsilon <= 0:
        raise ValueError("epsilon must be positive when slack terms are on "
                         "(the per-client term carries log(1/epsilon))")
    profiles = build_profiles(
        clients, h, epsilon, delta, grid_size, c1, include_slack=include_slack
    )
    K = len(clients)
    cap = mean_radius_cap(epsilon, delta, K, c1, include_slack=include_slack)
    witness = _waterfill(profiles, epsilon / K, cap)
    if include_slack:
        meta = float(np.sqrt(np.log((K + 2) / delta) / (2 * K)))
        ns = np.array([p.n_samples for p in profiles], dtype=float)
        per_client = float(np.mean(
            c2 * np.sqrt(np.log((K + 2) * ns / (epsilon * delta)) / ns)
        ))
    else:
        meta = per_client = 0.0
    raw = witness.objective + meta + per_client
    return CertifiedBound(
        kind="wass-mean",
        value=float(min(raw, 1.0)),
        raw_value=raw,
        # an iterative query only lower-bounds its inner supremum
        status="optimal" if all(p.sound for p in profiles) else "iterative",
        slack={"meta": meta, "per_client": per_client},
        params={
            "K": K, "delta": delta, "epsilon": epsilon,
            "c1": c1, "c2": c2, "grid_size": grid_size,
            "mean_radius_cap": cap,
            "include_slack": include_slack,
        },
        extra={
            "program_value": witness.objective,
            "witness_mean_rho": witness.mean_rho,
            "witness_rho": witness.rho.tolist(),
        },
    )
