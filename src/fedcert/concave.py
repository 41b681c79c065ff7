"""Spend a budget on concave piecewise-linear curves for the largest gain:
buying their linear pieces (cost, gain) best gain per unit cost first takes
each curve left to right, as its slopes fall, and is optimal.  The curves
are upper hulls of rows of points, taken for many rows at once, and
``RowFill`` fills many rows of pieces at once: the clients of every query
route (``query``) and the transport certificate's radius budget (``wass``)."""
from __future__ import annotations

import numpy as np

__all__ = ["upper_hulls", "hull_pieces", "RowFill"]


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


class RowFill:
    """The greedy fill of each of B rows of pieces, ``cost`` and ``gain``
    (B, M): row b's first ``m[b]`` pieces in greedy order (best gain per
    unit cost first, ties in the given order; ``greedy`` sorts them), then
    padding of cost inf.  A budget buys the pieces whose running cost it
    covers, as ``np.searchsorted(..., side="right")`` counts them, then part
    of the next piece, or a padding piece (cost 1, gain 0) once all are."""

    def __init__(self, cost: np.ndarray, gain: np.ndarray, m, order: np.ndarray | None = None):
        B, M = cost.shape
        if M == 0:   # no row has a piece: one column of padding
            cost, gain, M = np.full((B, 1), np.inf), np.zeros((B, 1)), 1
        self._cost, self._gain, self._m = cost, gain, np.asarray(m)[:, None]
        # where each stored piece was given: in place, unless ``greedy`` sorted it
        self._order = np.broadcast_to(np.arange(M), (B, M)) if order is None else order
        self._rows = np.arange(B)[:, None]
        # each row's running costs after a 0, keyed as (its row) + i (cost):
        # numpy orders complex numbers by real part, then imaginary part, so
        # the rows laid end to end are one sorted array, and a keyed budget
        # searched in it meets its own row's entries only, compared as floats
        self._keyed_paid = np.zeros((B, M + 1), dtype=complex)
        self._keyed_paid.real = self._rows
        np.cumsum(cost, axis=1, out=self._keyed_paid.imag[:, 1:])
        self._gained_before = np.zeros((B, M + 1))
        np.cumsum(gain, axis=1, out=self._gained_before[:, 1:])
        self._total = self._keyed_paid.imag[self._rows, self._m]

    @classmethod
    def greedy(cls, cost: np.ndarray, gain: np.ndarray, m) -> "RowFill":
        """The fill of each row's first ``m[b]`` pieces given in any order,
        sorted in place as ``ndarray.sort`` sorts: a stable sort of each row on
        -gain/cost (a free piece first, one of no cost and no gain last)."""
        pad = np.arange(cost.shape[1]) >= np.asarray(m)[:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            # NaN sorts last, and stably, so the padding follows every piece
            # and keeps its place past m[b]
            order = np.argsort(np.where(pad, np.nan, -(gain / cost)), axis=1, kind="stable")
        rows = np.arange(len(order))[:, None]
        for a, padding in ((cost, np.inf), (gain, 0.0)):
            a[...] = a[rows, order]
            a[pad] = padding
        return cls(cost, gain, m, order)

    def _split(self, budget):
        # past its total cost a row has bought every piece and has nothing
        # left; pieces [0, k) are paid in full, counted past the row's
        # leading 0, and piece k, if any, takes the rest
        spend = np.minimum(budget, self._total)
        keyed = np.empty(spend.shape, dtype=complex)
        keyed.real, keyed.imag = self._rows, spend
        k = np.searchsorted(self._keyed_paid.reshape(-1), keyed.reshape(-1), side="right")
        k = k.reshape(spend.shape) - self._rows * self._keyed_paid.shape[1] - 1
        return k, spend - self._keyed_paid.imag[self._rows, k]

    def __call__(self, budget) -> tuple[np.ndarray, np.ndarray]:
        """(gain bought, marginal gain per unit cost there), (B, G), for
        budgets of at least 0: (G,), shared by the rows, or (B, G)."""
        k, rest = self._split(budget)
        part = k < self._m
        at = np.minimum(k, self._cost.shape[1] - 1)
        cost = np.where(part, self._cost[self._rows, at], 1.0)
        gain = np.where(part, self._gain[self._rows, at], 0.0)
        return self._gained_before[self._rows, k] + gain * rest / cost, gain / cost

    def taken(self, budget) -> np.ndarray:
        """The cost each piece takes from ``budget``, one for every row or
        one per row: (B, M), in the order the pieces were given."""
        k, rest = self._split(np.reshape(budget, (-1, 1)))
        j = np.arange(self._cost.shape[1])
        out = np.where(j < k, self._cost, np.where((j == k) & (j < self._m), rest, 0.0))
        given = np.empty(self._order.shape)
        given[self._rows, self._order] = out[:, :self._order.shape[1]]
        return given
