"""The one-curve greedy fill, kept as the reference that ``concave.RowFill``
must equal bit for bit, row by row: it sorts one curve's pieces and reads
one budget or an array of budgets with one search."""
import numpy as np


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
