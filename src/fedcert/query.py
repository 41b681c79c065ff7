"""Client-side loss queries.

The server learns about a client only through ``Client.query(h, rho)``, which
returns a single scalar summary (plus solver metadata).  At rho = 0 that is
the plain empirical risk; at rho > 0 it is the worst-case risk over all data
distributions within transport cost rho of the client's empirical sample,

    sup_{Q in ball(rho)}  E_Q[loss]
        =  min_{gamma >= 0}  gamma * rho + mean_i sup_{z'} [loss(z') - gamma c(z', z_i)]

with the minimizing gamma known to lie in [0, 1/rho] for losses in [0, 1].
Each inner solver answers ``query(rho)``; the route is chosen from the
loss/hypothesis pair:

  * zero-one loss with a binary linear rule on continuous features: a
    correctly classified sample stays (loss 0) or pays its flip cost for loss 1;
  * a declared perturbation grid (always for lookup tables): each sample's
    worst case is the upper hull of its (cost, loss) candidates, the grid
    points plus its own point at cost 0;
  * differentiable losses: projected gradient ascent with a curvature-aware
    step and deterministic restarts seeded at the loss-clip plateau.  The
    restarts run stacked as one iterate, and each step makes one model pass
    for both the losses and the gradients (``loss_and_gradient_values``).
    The ascent only lower-bounds each inner supremum, so these answers are
    flagged ``iterative``, and a golden-section search over gamma (the
    objective is convex in gamma) solves the dual around them.

The first two routes are exact primal knapsacks: the budget n * rho buys the
samples' concave pieces best gain per unit cost first (``concave``), and
gamma_star is the marginal slope at the budget.

Label changes carry infinite transport cost throughout: adversaries move
features, never labels.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .concave import GreedyFill, upper_hull
from .losses import (
    LINEAR,
    LOGISTIC,
    LOOKUP,
    SQUARED,
    ZERO_ONE,
    Hypothesis,
    LossFn,
    Sample,
    curvature_bound,
    loss_and_gradient_values,
    loss_values,
)
from .metasim import LocalDataset

__all__ = [
    "TransportCost",
    "QueryValue",
    "BudgetExceededError",
    "Client",
    "empirical_risk",
    "adversarial_risk",
    "phi_gamma",
]

HALF_SQ = "half-squared-l2"
PLAIN_L2 = "l2"

_ASCENT_STEPS = 100


class BudgetExceededError(RuntimeError):
    def __init__(self, client_id: int, max_queries: int):
        super().__init__(f"client {client_id} exhausted its budget of {max_queries} queries")
        self.client_id = client_id
        self.max_queries = max_queries


@dataclass(frozen=True)
class TransportCost:
    """Ground cost between samples; label changes are infinitely expensive."""

    kind: str = HALF_SQ

    def __post_init__(self):
        if self.kind not in (HALF_SQ, PLAIN_L2):
            raise ValueError(f"unknown transport cost {self.kind!r}")

    def of_distance(self, dist: np.ndarray) -> np.ndarray:
        dist = np.asarray(dist, dtype=float)
        return 0.5 * dist * dist if self.kind == HALF_SQ else dist

    def pairwise(self, X: np.ndarray, G: np.ndarray) -> np.ndarray:
        d = np.linalg.norm(X[:, None, :] - G[None, :, :], axis=2)
        return self.of_distance(d)

    def between(self, z1: Sample, z2: Sample) -> float:
        if z1.label != z2.label:
            return float("inf")
        return float(self.of_distance(np.linalg.norm(z1.features - z2.features)))


@dataclass(frozen=True)
class QueryValue:
    """The only object that crosses the client -> server boundary."""

    value: float
    rho: float
    gamma_star: float
    inner_iterations: int
    status: str = "exact"

    def __post_init__(self):
        if not (0.0 <= self.value <= 1.0):
            raise ValueError("query values live in [0, 1]")

    def to_json_dict(self) -> dict:
        return {
            "value": self.value,
            "rho": self.rho,
            "gamma_star": self.gamma_star,
            "inner_iterations": self.inner_iterations,
            "status": self.status,
        }


def empirical_risk(h: Hypothesis, dataset: LocalDataset, loss_fn: LossFn) -> QueryValue:
    vals = loss_values(loss_fn, h, dataset.features, dataset.labels)
    return QueryValue(
        value=float(np.mean(vals)), rho=0.0, gamma_star=0.0,
        inner_iterations=0, status="exact",
    )


# ---------------------------------------------------------------------------
# inner suprema  sup_{x'} loss(x') - gamma * c(x', x)
# ---------------------------------------------------------------------------

class _FillInner:
    """Exact primal answer: ``_n`` samples of total loss ``_base`` spend n * rho on ``_fill``."""

    def query(self, rho: float) -> QueryValue:
        gain, slope = self._fill(self._n * rho)
        return QueryValue(value=float(np.clip((self._base + gain) / self._n, 0.0, 1.0)),
                          rho=float(rho), gamma_star=slope, inner_iterations=1)


class _GridInner(_FillInner):
    """Exhaustive search over a declared finite feature grid.

    Each sample's own point joins its candidates at cost 0, so the ball always
    contains the empirical distribution even when the data lie off the grid.
    A lookup table has losses only at its grid points: a robust query of
    lookup data off the table is refused, and ``phi`` searches the grid alone.
    """

    def __init__(self, h, X, y, grid, cost, loss_fn):
        grid = np.atleast_2d(np.asarray(grid, dtype=float))
        X = np.atleast_2d(X)
        labels = np.asarray(y)
        # loss of every grid point under every distinct label present
        L = np.empty((len(X), len(grid)))
        for lab in np.unique(labels):
            row = loss_values(loss_fn, h, grid, np.full(len(grid), lab))
            L[labels == lab] = row
        C = cost.pairwise(X, grid)
        try:
            own = loss_values(loss_fn, h, X, labels)
        except ValueError:
            if h.kind != LOOKUP:
                raise
            self._L, self._C, self._fill = L, C, None
            return
        self._L = np.column_stack([own, L])
        self._C = np.column_stack([np.zeros(len(X)), C])
        self._n = len(X)
        self._base, self._fill = _hull_fill(self._C, self._L)

    def phi(self, gamma: float) -> np.ndarray:
        return np.max(self._L - gamma * self._C, axis=1)

    def query(self, rho: float) -> QueryValue:
        if self._fill is None:
            raise ValueError("lookup-table data must lie on the table's grid")
        return super().query(rho)


def _hull_fill(C: np.ndarray, L: np.ndarray) -> tuple[float, GreedyFill]:
    """Total loss at cost 0, and the fill over the rising segments of each
    row's upper hull of its (C, L) points."""
    order = np.lexsort((-L, C))
    Cs, Ls = (np.take_along_axis(a, order, axis=1) for a in (C, L))
    # only a point that beats every cheaper one can be on the rising hull
    best_before = np.maximum.accumulate(Ls, axis=1)[:, :-1]
    keep = np.column_stack([np.ones(len(Ls), dtype=bool), Ls[:, 1:] > best_before])
    cost, gain = np.concatenate(
        [np.diff(upper_hull(c[k], l[k])) for c, l, k in zip(Cs, Ls, keep)], axis=1)
    return float(np.sum(Ls[:, 0])), GreedyFill(cost, gain)


class _FlipInner(_FillInner):
    """Zero-one loss with a binary linear rule on continuous features.

    A perturbation either leaves the prediction alone (payoff = current loss)
    or pays the cost of reaching the decision surface for payoff 1; the
    cheapest flip crosses a pairwise class boundary orthogonally, so the
    supremum is available in closed form.

    The pieces are the finite flips of the correctly classified samples,
    each of gain 1.
    """

    def __init__(self, h, X, y, cost):
        X = np.atleast_2d(X)
        y = np.asarray(y).astype(int)
        self._wrong = (h.predict(X) != y)
        self._flip_cost = cost.of_distance(_distance_to_flip(h, X))
        finite = self._flip_cost[~self._wrong & np.isfinite(self._flip_cost)]
        self._n, self._base = len(X), int(np.count_nonzero(self._wrong))
        self._fill = GreedyFill(finite, np.ones(len(finite)))

    def phi(self, gamma: float) -> np.ndarray:
        # an infinite flip cost means no boundary to reach, even at gamma = 0
        out = np.zeros(len(self._flip_cost))
        flip = np.isfinite(self._flip_cost)
        out[flip] = np.maximum(0.0, 1.0 - gamma * self._flip_cost[flip])
        out[self._wrong] = 1.0
        return out


def _distance_to_flip(h: Hypothesis, X: np.ndarray) -> np.ndarray:
    """Distance from each point to the nearest boundary where the prediction
    changes; inf when the rule is constant."""
    if h.kind == LOGISTIC:
        w2 = float(np.linalg.norm(h.weights))
        if w2 == 0.0:
            return np.full(len(X), np.inf)
        return np.abs(h.scores(X)) / w2
    scores = h.scores(X)
    pred = np.argmax(scores, axis=1)
    dists = np.full(len(X), np.inf)
    for c in range(h.n_classes):
        mask = pred == c
        if not np.any(mask):
            continue
        for cp in range(h.n_classes):
            if cp == c:
                continue
            u = h.weights[c] - h.weights[cp]
            nu = np.linalg.norm(u)
            if nu == 0.0:
                # identical rows: prediction ties resolve by index, treat as free flip
                dists[mask] = np.minimum(dists[mask], 0.0)
                continue
            gap = (scores[mask, c] - scores[mask, cp]) / nu
            dists[mask] = np.minimum(dists[mask], np.maximum(gap, 0.0))
    return dists


class _AscentInner:
    """Gradient ascent on loss(x') - gamma * c(x', x) for smooth losses.

    Step size 1/(gamma + beta) with beta the loss curvature bound keeps the
    iteration a contraction whenever the surrogate is strongly concave
    (gamma > beta).  Restarts are deterministic: the sample itself plus two
    points translated along the weight vector far enough that the clipped
    loss saturates at 1, which covers the plateau branch of the supremum.

    The S restarts run together as one (S * n, d) iterate: each step makes
    one model pass, which gives the losses at the current point (for the
    running best) and the gradients for the next move.  A restart whose
    largest move falls below 1e-12 freezes where it is, and only moving
    restarts count towards ``iterations``; every restart therefore takes the
    same steps it would take alone.
    """

    _GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0
    _GAMMA_TOL = 1e-12
    _GAMMA_MAX_ITER = 200

    def __init__(self, h, X, y, cost, loss_fn):
        if cost.kind != HALF_SQ:
            raise ValueError("gradient inner solver requires the half-squared-L2 cost")
        self._h, self._cost, self._loss = h, cost, loss_fn
        X = np.atleast_2d(X)
        y = np.asarray(y, dtype=float)
        self._beta = curvature_bound(loss_fn, h)
        starts = self._plateau_starts(X)
        self._n_starts = len(starts)
        self._starts = np.concatenate(starts)
        self._X = np.tile(X, (self._n_starts, 1))
        self._y = np.tile(y, self._n_starts)
        self.iterations = 0

    def _plateau_starts(self, X: np.ndarray) -> list[np.ndarray]:
        h = self._h
        starts = [X.copy()]
        if h.kind not in (LOGISTIC,):
            return starts
        w = h.weights
        w2 = float(w @ w)
        if w2 == 0.0:
            return starts
        s0 = h.scores(X)
        if self._loss.kind == SQUARED:
            # probability targets where (y - p)^2 == 1 exist only at p = y -+ 1;
            # push the score far out on both sides instead
            targets = [s0 * 0 + 12.0, s0 * 0 - 12.0]
        else:
            # binary CE hits its clip at s = -+ log(e - 1) + margin
            edge = float(np.log(np.e - 1.0)) + 0.5
            targets = [s0 * 0 + edge, s0 * 0 - edge]
        for t in targets:
            starts.append(X + ((t - s0) / w2)[:, None] * w[None, :])
        return starts

    def phi(self, gamma: float) -> np.ndarray:
        step = 1.0 / (gamma + self._beta + 1e-12)
        S = self._n_starts
        Xp = self._starts
        moving = np.ones(S, dtype=bool)
        lv, g = loss_and_gradient_values(self._loss, self._h, Xp, self._y)
        best = self._objective(Xp, lv, gamma)
        for _ in range(_ASCENT_STEPS):
            g -= gamma * (Xp - self._X)
            move = (step * g).reshape(S, -1)
            move[~moving] = 0.0
            Xp = Xp + move.reshape(Xp.shape)
            self.iterations += int(np.count_nonzero(moving))
            lv, g = loss_and_gradient_values(self._loss, self._h, Xp, self._y)
            best = np.maximum(best, self._objective(Xp, lv, gamma))
            # written as not-below so that a NaN move keeps moving, as it did alone
            moving &= ~(np.max(np.abs(move), axis=1) < 1e-12)
            if not moving.any():
                break
        return best.reshape(S, -1).max(axis=0)

    def _objective(self, Xp, lv, gamma):
        c = self._cost.of_distance(np.linalg.norm(Xp - self._X, axis=1))
        return lv - gamma * c

    def query(self, rho: float) -> QueryValue:
        """Worst-case mean loss over the ball of radius rho > 0, by the dual."""
        gamma_star, best = self._golden_min(
            lambda g: g * rho + float(np.mean(self.phi(g))), 0.0, 1.0 / rho)
        return QueryValue(value=float(np.clip(best, 0.0, 1.0)), rho=float(rho),
                          gamma_star=float(gamma_star),
                          inner_iterations=int(self.iterations), status="iterative")

    @classmethod
    def _golden_min(cls, fn, a: float, b: float) -> tuple[float, float]:
        """Minimize a convex scalar function over [a, b]; returns (argmin, min).

        Endpoints are always evaluated, so boundary minimizers are found exactly.
        """
        evals = {a: fn(a), b: fn(b)}
        x1 = b - cls._GOLDEN * (b - a)
        x2 = a + cls._GOLDEN * (b - a)
        f1, f2 = fn(x1), fn(x2)
        evals[x1], evals[x2] = f1, f2
        it = 0
        while (b - a) > cls._GAMMA_TOL and it < cls._GAMMA_MAX_ITER:
            if f1 <= f2:
                b, x2, f2 = x2, x1, f1
                x1 = b - cls._GOLDEN * (b - a)
                f1 = fn(x1)
                evals[x1] = f1
            else:
                a, x1, f1 = x1, x2, f2
                x2 = a + cls._GOLDEN * (b - a)
                f2 = fn(x2)
                evals[x2] = f2
            it += 1
        x_star = min(evals, key=lambda g: (evals[g], g))
        return x_star, evals[x_star]


def _make_inner(h, X, y, cost, loss_fn, grid):
    if h.kind == LOOKUP or grid is not None:
        return _GridInner(h, X, y, h.grid if grid is None else grid, cost, loss_fn)
    if loss_fn.kind == ZERO_ONE:
        if h.kind == LOGISTIC or (h.kind == LINEAR and h.n_classes == 2):
            return _FlipInner(h, X, y, cost)
        raise ValueError("zero-one adversarial queries need a binary linear rule "
                         "or a declared perturbation grid")
    return _AscentInner(h, X, y, cost, loss_fn)


def phi_gamma(
    h: Hypothesis,
    gamma: float,
    z: Sample,
    cost: TransportCost = TransportCost(),
    loss_fn: LossFn = LossFn(ZERO_ONE),
    grid: np.ndarray | None = None,
) -> float:
    """Penalized single-sample supremum sup_{z'} loss(z') - gamma c(z', z)."""
    if gamma < 0:
        raise ValueError("gamma must be nonnegative")
    inner = _make_inner(h, z.features[None, :], np.array([z.label]), cost, loss_fn, grid)
    return float(inner.phi(gamma)[0])


def adversarial_risk(
    h: Hypothesis,
    dataset: LocalDataset,
    rho: float,
    cost: TransportCost = TransportCost(),
    loss_fn: LossFn = LossFn(ZERO_ONE),
    grid: np.ndarray | None = None,
) -> QueryValue:
    """Worst-case mean loss over the transport ball of radius rho."""
    if rho < 0:
        raise ValueError("rho must be nonnegative")
    if rho == 0.0:
        return empirical_risk(h, dataset, loss_fn)
    inner = _make_inner(h, dataset.features, dataset.labels, cost, loss_fn, grid)
    return inner.query(rho)


class Client:
    """Holds one private dataset and answers scalar loss queries about it.

    The public surface deliberately exposes no samples, gradients, or any
    other per-datum information: only query values, counters, and the public
    metadata (client id, sample count) the certificates need.
    """

    def __init__(
        self,
        client_id: int,
        dataset: LocalDataset,
        loss_fn: LossFn,
        cost: TransportCost = TransportCost(),
        max_queries: int | None = None,
        grid: np.ndarray | None = None,
    ):
        self.client_id = client_id
        self.max_queries = max_queries
        self.audit_log: list[dict] = []
        self._dataset = dataset
        self._loss_fn = loss_fn
        self._cost = cost
        self._grid = grid
        self._used = 0
        self._inner_cache: tuple[str, _FillInner | _AscentInner] | None = None

    @property
    def queries_used(self) -> int:
        return self._used

    @property
    def n_samples(self) -> int:
        return len(self._dataset)

    def query(self, h: Hypothesis, rho: float = 0.0) -> QueryValue:
        """Answer one loss query; raises BudgetExceededError past the cap."""
        if self.max_queries is not None and self._used >= self.max_queries:
            raise BudgetExceededError(self.client_id, self.max_queries)
        self._used += 1
        if rho == 0.0:
            qv = empirical_risk(h, self._dataset, self._loss_fn)
        else:
            qv = self._robust_query(h, rho)
        self.audit_log.append({"client": self.client_id, **qv.to_json_dict()})
        return qv

    def _robust_query(self, h: Hypothesis, rho: float) -> QueryValue:
        # the inner solver's precomputations depend only on h, reuse across radii
        key = h.cache_key()
        if self._inner_cache is None or self._inner_cache[0] != key:
            inner = _make_inner(
                h, self._dataset.features, self._dataset.labels,
                self._cost, self._loss_fn, self._grid,
            )
            self._inner_cache = (key, inner)
        return self._inner_cache[1].query(rho)
