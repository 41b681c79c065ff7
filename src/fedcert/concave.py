"""Spend a budget on concave piecewise-linear curves for the largest gain:
buying their linear pieces (cost, gain) best gain per unit cost first takes
each curve left to right, as its slopes fall, and is optimal."""
from __future__ import annotations

import numpy as np

__all__ = ["upper_hull", "GreedyFill"]


def upper_hull(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Upper hull (monotone chain) of points with increasing x, as rows x, y."""
    hull: list[tuple[float, float]] = []
    # Python floats: the same double arithmetic as numpy scalars, faster
    for xi, yi in zip(np.asarray(x, dtype=float).tolist(), np.asarray(y, dtype=float).tolist()):
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            # keep the chain concave: drop the middle point when it sags
            if (y2 - y1) * (xi - x1) <= (yi - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append((xi, yi))
    return np.array(hull).T


class GreedyFill:
    """Pieces sorted once by gain per unit cost, best first; a free piece
    (cost 0) is always bought, and ties keep the given order."""

    def __init__(self, cost, gain):
        cost, gain = np.asarray(cost, dtype=float), np.asarray(gain, dtype=float)
        with np.errstate(divide="ignore"):
            self._order = np.argsort(-(gain / cost), kind="stable")
        self._cost = cost[self._order]
        self._gain = gain[self._order]
        self._paid = np.cumsum(self._cost)
        self._gained = np.cumsum(self._gain)

    def _split(self, budget: float) -> tuple[int, float]:
        # pieces [0, k) are paid in full; piece k, if any, takes the rest
        k = int(np.searchsorted(self._paid, budget, side="right"))
        return k, budget - (float(self._paid[k - 1]) if k else 0.0)

    def __call__(self, budget: float) -> tuple[float, float]:
        """(gain bought with ``budget``, marginal gain per unit cost there,
        which is 0 once every piece is bought)."""
        k, rest = self._split(budget)
        bought = float(self._gained[k - 1]) if k else 0.0
        if k == len(self._cost):
            return bought, 0.0
        cost, gain = float(self._cost[k]), float(self._gain[k])
        return bought + gain * rest / cost, gain / cost

    def taken(self, budget: float) -> np.ndarray:
        """Cost each piece takes from ``budget``, in the order they were given."""
        k, rest = self._split(budget)
        out = np.zeros(len(self._cost))
        out[self._order[:k]] = self._cost[:k]
        out[self._order[k:k + 1]] = rest   # the piece bought in part, if any
        return out
