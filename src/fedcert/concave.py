"""Spend a budget on concave piecewise-linear curves for the largest gain:
buying their linear pieces (cost, gain) best gain per unit cost first takes
each curve left to right, as its slopes fall, and is optimal.  The curves
are upper hulls of rows of points, taken for many rows at once."""
from __future__ import annotations

import numpy as np

__all__ = ["upper_hulls", "hull_pieces", "GreedyFill"]


# points hulled at once: each float array of a block holds about 64 KB
_HULL_BLOCK = 1 << 13


def upper_hulls(x, y, counts) -> np.ndarray:
    """Which points are vertices of their row's upper hull.

    The rows lie end to end in ``x`` and ``y``, ``counts[r]`` points for
    row r (at least one), each with strictly increasing x.  A vertex lies
    strictly above the chord of its neighbours on the hull, so a point on a
    chord is no vertex.  The rows are hulled in blocks of about
    ``_HULL_BLOCK`` points, each block by one segmented quickhull.
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    counts = np.asarray(counts, dtype=np.intp)
    ends = np.cumsum(counts)
    vertex = np.zeros(len(x), dtype=bool)
    row = 0
    while row < len(counts):
        start = ends[row] - counts[row]
        stop = max(row + 1, int(np.searchsorted(ends, start + _HULL_BLOCK, side="right")))
        block = slice(start, ends[stop - 1])
        vertex[start + _block_hull(x[block], y[block], counts[row:stop])] = True
        row = stop
    return vertex


def _rise_over_chord(x1, y1, x2, y2, x3, y3):
    """Two products whose difference is how far each middle point lies
    above the chord of its neighbours, times the chord's width.  The
    monotone chain keeps the point when the first exceeds the second."""
    return (y2 - y1) * (x3 - x1), (y3 - y1) * (x2 - x1)


def _block_hull(x, y, counts) -> np.ndarray:
    """Indices of the hull vertices of the rows of one block.

    Each pass splits every open interval of every row at its first point
    farthest above the chord, and drops the points on or below it.  Every
    row starts and ends at a vertex, so the nearest vertices on either side
    of a point lie in its own row.  After a pass that drops nothing, the
    live points are the hull when none lies on or below the chord of its
    neighbours: the monotone chain's own test.  When every live point is a
    vertex and some still fail that test, which only rounding can cause,
    they are dropped as the chain would drop them.
    """
    ends = np.cumsum(counts)
    edge = np.zeros(len(x), dtype=bool)
    edge[ends - counts] = edge[ends - 1] = True
    vertex = edge.copy()
    at = np.arange(len(x))            # where each live point came from
    while True:
        live = np.ones(len(at), dtype=bool)
        if not vertex.all():
            pos = np.arange(len(at))
            open_ = np.flatnonzero(~vertex)
            a = np.maximum.accumulate(np.where(vertex, pos, 0))[open_]
            b = np.minimum.accumulate(np.where(vertex, pos, len(at))[::-1])[::-1][open_]
            rise, chord = _rise_over_chord(x[a], y[a], x[open_], y[open_], x[b], y[b])
            above = rise > chord
            live[open_[~above]] = False
            open_, a, lift = open_[above], a[above], (rise - chord)[above]
            if len(open_):
                first = np.r_[True, a[1:] != a[:-1]]
                interval = np.cumsum(first) - 1
                top = np.maximum.reduceat(lift, np.flatnonzero(first))
                far = np.flatnonzero(lift == top[interval])
                far = far[np.r_[True, interval[far[1:]] != interval[far[:-1]]]]
                vertex[open_[far]] = True
            if not live.all():
                at, x, y, vertex, edge = at[live], x[live], y[live], vertex[live], edge[live]
                continue
        rise, chord = _rise_over_chord(x[:-2], y[:-2], x[1:-1], y[1:-1], x[2:], y[2:])
        sags = np.r_[False, ~edge[1:-1] & (rise <= chord), False][:len(at)]
        if not sags.any():
            return at
        if vertex.all():
            at, x, y, vertex, edge = at[~sags], x[~sags], y[~sags], vertex[~sags], edge[~sags]


def hull_pieces(x, y, counts) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The segments of each row's upper hull (``upper_hulls``) as pieces
    (width, rise), row by row and left to right, and how many pieces each
    row has."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    vertex = upper_hulls(x, y, counts)
    row = np.repeat(np.arange(len(counts)), counts)[vertex]
    joined = row[1:] == row[:-1]
    return (np.diff(x[vertex])[joined], np.diff(y[vertex])[joined],
            np.bincount(row, minlength=len(counts)) - 1)


class GreedyFill:
    """Pieces sorted once by gain per unit cost, best first; a free piece
    (cost 0) is always bought, and ties keep the given order."""

    def __init__(self, cost, gain):
        cost, gain = np.asarray(cost, dtype=float), np.asarray(gain, dtype=float)
        with np.errstate(divide="ignore"):
            self._order = np.argsort(-(gain / cost), kind="stable")
        # the pieces best first, then a padding piece (cost 1, gain 0) that
        # a bought-out fill reads with nothing left to spend
        self._cost = np.concatenate([cost[self._order], [1.0]])
        self._gain = np.concatenate([gain[self._order], [0.0]])
        # what pieces [0, k) paid and gained, indexed by k
        self._paid_before = np.concatenate([[0.0], np.cumsum(self._cost[:-1])])
        self._gained_before = np.concatenate([[0.0], np.cumsum(self._gain[:-1])])
        self._paid = self._paid_before[1:]

    def _split(self, budget):
        # pieces [0, k) are paid in full; piece k, if any, takes the rest
        k = np.searchsorted(self._paid, budget, side="right")
        return k, budget - self._paid_before[k]

    def __call__(self, budget):
        """(gain bought with ``budget``, marginal gain per unit cost there,
        which is 0 once every piece is bought): floats for a scalar budget,
        arrays for an array of budgets, answered with one search."""
        # past the total cost every piece is bought and nothing is left
        k, rest = self._split(np.minimum(budget, self._paid_before[-1]))
        cost, gain = self._cost[k], self._gain[k]
        value = self._gained_before[k] + gain * rest / cost
        slope = gain / cost
        if value.ndim == 0:
            return float(value), float(slope)
        return value, slope

    def taken(self, budget: float) -> np.ndarray:
        """Cost each piece takes from ``budget``, in the order they were given."""
        k, rest = self._split(float(budget))
        out = np.zeros(len(self._order))
        out[self._order[:k]] = self._cost[:k]
        out[self._order[k:k + 1]] = rest   # the piece bought in part, if any
        return out
