"""Client-side loss queries.

The server learns about a client only through ``Client.query(h, rho)``, which
returns a single scalar summary (plus solver metadata), and
``Client.query_profile(h, rhos)``, which computes a radius vector's answers
in one call and passes each through ``query``: one scalar answer, one audit
entry and one unit of the query budget per radius.  ``query_empirical``
answers many clients' zero-radius queries from one batched loss pass
(``empirical_risks``) and passes each through ``query`` in the same way.  A
query is charged once answered.  At rho = 0 the answer is the plain
empirical risk; at rho > 0 it is the worst-case risk over all data
distributions within transport cost rho of the client's empirical sample,

    sup_{Q in ball(rho)}  E_Q[loss]
        =  min_{gamma >= 0}  gamma * rho + mean_i sup_{z'} [loss(z') - gamma c(z', z_i)]

with the minimizing gamma known to lie in [0, 1/rho] for losses in [0, 1].
A negative or NaN radius is refused.  Each inner solver is built once per
hypothesis and answers ``query_profile(rhos)``, one robust radius as a
one-element vector; the route is chosen from the loss/hypothesis pair:

  * zero-one loss with a binary linear rule on continuous features: a
    correctly classified sample stays (loss 0) or pays its flip cost for loss 1;
  * a declared perturbation grid (always for lookup tables): each sample's
    worst case is the upper hull of its (cost, loss) candidates, the grid
    points plus its own point at cost 0;
  * clipped cross-entropy or squared loss with a logistic rule: candidates
    on each sample's score line, whose knapsack bounds the worst case from
    above within ``SCORE_LINE_TAU`` (status ``bound``; argued below).  A
    two-class linear-classifier's clipped cross-entropy is the logistic
    rule's on its margin (weights w1 - w0, bias b1 - b0), and takes this
    route as that rule; any other smooth loss of a linear-classifier is
    refused.

Each route is a primal knapsack: the budget n * rho buys the samples'
concave pieces best gain per unit cost first (``concave``), and gamma_star
is the marginal slope at the budget.  A whole radius vector is answered
with one fill call.  The flip and grid routes are exact.

Why the score-line route is sound.  A logistic rule's clipped losses see a
sample only through its score u = w.x + b.  The cheapest point with score u
is x_i + (u - s_i) w / |w|^2, at distance |u - s_i| / |w| from x_i, and a move
orthogonal to w costs transport and changes no loss; so the worst case lies
on the line of those points, and each sample's cost c_i(u) grows with
|u - s_i| under either transport cost.  On the line:

  * each loss l_y(u) is quasiconvex in u: cross-entropy with y in {0, 1} is
    monotone, and (y - sigmoid(u))^2 falls, then rises (clipping at 1 keeps
    both quasiconvex);
  * so between two neighbouring nodes the loss peaks at an end, and the
    cost is lowest at the end nearer s_i;
  * nodes sit at s_i and, on each side where the loss rises, where l_y
    reaches l_y(s_i) + k tau, up to the side's ceiling: 1 at the clip, or the
    squared loss's asymptote y^2 or (1 - y)^2.  The clip point is a node too;
  * the upper set (the staircase) has one candidate per interval, with the
    cost of its nearer end and the larger of its two end losses, plus a tail
    candidate at the last level node's cost carrying the ceiling.  Every
    point on the line is dominated by one candidate, so the fractional
    knapsack over them (the transport LP, since mass may split) is at least
    the supremum.  ``query`` returns it;
  * the lower set is the nodes themselves, which are feasible points;
    ``phi`` takes its maximum, so it never exceeds the true penalized
    supremum;
  * each upper candidate exceeds the lower node at the same cost by at most
    tau, so the answer exceeds the supremum by at most tau.

With zero weights the rule is constant, and the answer is the empirical
risk.

Label changes carry infinite transport cost throughout: adversaries move
features, never labels.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .concave import _HULL_BLOCK, GreedyFill, hull_pieces
from .losses import (
    CROSS_ENTROPY,
    LINEAR,
    LOGISTIC,
    LOOKUP,
    ZERO_ONE,
    Hypothesis,
    LossFn,
    Sample,
    loss_values,
    score_loss_values,
)
from .metasim import _BLOCK_BYTES, LocalDataset

__all__ = [
    "TransportCost",
    "QueryValue",
    "BudgetExceededError",
    "Client",
    "query_empirical",
    "empirical_risk",
    "empirical_risks",
    "empirical_risk_values",
    "adversarial_risk",
    "phi_gamma",
]

HALF_SQ = "half-squared-l2"
PLAIN_L2 = "l2"

# the score-line route's answers exceed the worst case by at most this
SCORE_LINE_TAU = 1e-3


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
        """Cost from each row of X to each row of G.  The squared coordinate
        differences are summed one coordinate at a time, in order, as
        ``np.linalg.norm`` sums up to seven of them, and no (n, G, d)
        temporary is made."""
        sq = np.zeros((len(X), len(G)))
        for k in range(X.shape[1]):
            diff = np.subtract.outer(X[:, k], G[:, k])
            sq += diff * diff
        return self.of_distance(np.sqrt(sq))

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
    return empirical_risks(h, [dataset], loss_fn)[0]


def empirical_risks(h: Hypothesis, datasets, loss_fn: LossFn) -> list[QueryValue]:
    """The empirical risk of each dataset, in order: ``empirical_risk_values``
    on the datasets of each sample count, stacked a block of about
    ``_BLOCK_BYTES`` of features at a time."""
    datasets = list(datasets)
    of_size: dict[int, list[int]] = {}
    for i, ds in enumerate(datasets):
        of_size.setdefault(len(ds), []).append(i)
    values = [0.0] * len(datasets)
    for n, same in of_size.items():
        step = _block_rows(n, h)
        for start in range(0, len(same), step):
            rows = same[start:start + step]
            risks = empirical_risk_values(h, np.stack([datasets[i].features for i in rows]),
                                          np.stack([datasets[i].labels for i in rows]), loss_fn)
            for i, v in zip(rows, risks.tolist()):
                values[i] = v
    return [QueryValue(value=v, rho=0.0, gamma_star=0.0, inner_iterations=0, status="exact")
            for v in values]


def _block_rows(n: int, h: Hypothesis) -> int:
    """Datasets of n samples in a block of about ``_BLOCK_BYTES`` of features."""
    return max(1, _BLOCK_BYTES // (8 * max(n, 1) * h.n_features))


def empirical_risk_values(h: Hypothesis, features: np.ndarray, labels: np.ndarray,
                          loss_fn: LossFn) -> np.ndarray:
    """The empirical risk of each of K datasets of n samples, stacked as
    ``features`` (K, n, d) and ``labels`` (K, n): a float array (K,).

    The datasets run in blocks of about ``_BLOCK_BYTES`` of features: one
    model product per dataset (``h.stacked_scores``), so each dataset's
    scores round as they would alone, then one loss pass over the block's
    scores and one row-wise mean, which equals each row's own ``np.mean`` to
    the last bit.
    """
    K, n = labels.shape
    risks = np.empty(K)
    step = _block_rows(n, h)
    for start in range(0, K, step):
        block = slice(start, min(start + step, K))
        scores = h.stacked_scores(features[block])
        losses = score_loss_values(loss_fn, h, scores, labels[block].reshape(-1))
        risks[block] = np.mean(losses.reshape(-1, n), axis=1)
    return risks


# ---------------------------------------------------------------------------
# inner suprema  sup_{x'} loss(x') - gamma * c(x', x)
# ---------------------------------------------------------------------------

class _FillInner:
    """Primal answer: ``_n`` samples of total loss ``_base`` spend n * rho on
    ``_fill``; exact unless ``_status`` says otherwise."""

    _status = "exact"

    def query_profile(self, rhos) -> list[QueryValue]:
        """The answer at each radius, from one fill call."""
        rhos = np.asarray(rhos, dtype=float)
        gain, slope = self._fill(self._n * rhos)
        values = np.clip((self._base + gain) / self._n, 0.0, 1.0)
        return [QueryValue(value=v, rho=r, gamma_star=g, inner_iterations=1,
                           status=self._status)
                for v, r, g in zip(values.tolist(), rhos.tolist(), slope.tolist())]


class _GridInner(_FillInner):
    """Exhaustive search over a declared finite feature grid.

    Each sample's own point joins its candidates at cost 0, so the ball always
    contains the empirical distribution even when the data lie off the grid.
    A lookup table has losses only at its grid points: a robust query of
    lookup data off the table is refused, and ``phi`` searches the grid alone.
    Only the fill is kept: ``phi`` recomputes the candidates.
    """

    def __init__(self, h, X, y, grid, cost, loss_fn):
        self._args = (h, np.atleast_2d(X), np.asarray(y),
                      np.atleast_2d(np.asarray(grid, dtype=float)), cost, loss_fn)
        C, losses, which, own = _grid_candidates(*self._args)
        self._n = len(C)
        if own is None:
            self._fill = _off_table
        else:
            self._base, self._fill = _hull_fill([_grid_staircases(C, losses, which, own)])

    def phi(self, gamma: float) -> np.ndarray:
        C, losses, which, own = _grid_candidates(*self._args)
        best = np.max(losses[which] - gamma * C, axis=1)
        return best if own is None else np.maximum(own, best)


def _off_table(budget):
    """The fill of lookup data off its table, which has no robust answer."""
    raise ValueError("lookup-table data must lie on the table's grid")


def _grid_candidates(h, X, labels, grid, cost, loss_fn):
    """(C, losses, which, own): each sample's cost to every grid point; the
    grid's losses under each distinct label, and which of them is each
    sample's; and each sample's loss at its own point, or None for lookup
    data off the table."""
    values, which = np.unique(labels, return_inverse=True)
    losses = np.array([loss_values(loss_fn, h, grid, np.full(len(grid), lab))
                       for lab in values])
    C = cost.pairwise(X, grid)
    try:
        own = loss_values(loss_fn, h, X, labels)
    except ValueError:
        if h.kind != LOOKUP:
            raise
        own = None
    return C, losses, which, own


def _grid_staircases(C, losses, which, own):
    """Each sample's rising staircase over its candidates, as (C, L, counts)
    rows in sample order (``_hull_fill``): the grid points, and its own
    point at cost 0.

    A point is on it when it has more loss than every point that sorts
    before it by cost, then by loss, most first.  So the staircase starts at
    the most loss among the points at cost 0, and then takes each distinct
    grid loss above that, at its cheapest grid point, when that point is
    cheaper than every point with more loss.  The samples of one label
    share a grid-loss vector, so one sort of it serves them all.
    """
    rows, xs, ys = [], [], []
    for label, loss in enumerate(losses):
        mine = np.flatnonzero(which == label)
        Cm = C[mine]
        base = np.maximum(own[mine], np.max(np.where(Cm == 0.0, loss, -np.inf), axis=1))
        order = np.argsort(-loss, kind="stable")
        first = np.flatnonzero(np.r_[True, np.diff(loss[order]) != 0.0])
        level = loss[order][first]                   # the distinct losses, most first
        cheapest = np.minimum.reduceat(Cm[:, order], first, axis=1)
        step = level > base[:, None]
        step[:, 1:] &= cheapest[:, 1:] < np.minimum.accumulate(cheapest, axis=1)[:, :-1]
        # each row from cost 0 outwards
        on = np.column_stack([np.ones(len(mine), dtype=bool), step[:, ::-1]])
        xs.append(np.column_stack([np.zeros(len(mine)), cheapest[:, ::-1]])[on])
        ys.append(np.column_stack([base, np.broadcast_to(level[::-1], step.shape)])[on])
        rows.append(np.repeat(mine, np.count_nonzero(on, axis=1)))
    rows = np.concatenate(rows)
    order = np.argsort(rows, kind="stable")
    return (np.concatenate(xs)[order], np.concatenate(ys)[order],
            np.bincount(rows, minlength=len(C)))


def _hull_fill(blocks) -> tuple[float, GreedyFill]:
    """Total loss at cost 0, and the fill over the segments of each row's
    upper hull.  ``blocks`` yields (C, L, counts): rows of ``counts`` points
    each, laid end to end, each a rising staircase from its cost-0 point,
    its costs and losses strictly rising.  Each block's rows are hulled
    together (``concave.hull_pieces``)."""
    base, width, rise = [], [], []
    for C, L, counts in blocks:
        base.append(L[np.cumsum(counts) - counts])
        w, r = hull_pieces(C, L, counts)
        width.append(w)
        rise.append(r)
    return float(np.sum(np.concatenate(base))), GreedyFill(np.concatenate(width),
                                                           np.concatenate(rise))


class _FlipInner(_FillInner):
    """Zero-one loss with a binary linear rule on continuous features.

    A perturbation either leaves the prediction alone (payoff = current loss)
    or pays the cost of reaching the decision surface for payoff 1; the
    cheapest flip crosses the class boundary orthogonally, so the supremum
    is available in closed form.

    The pieces are the finite flips of the correctly classified samples,
    each of gain 1.
    """

    def __init__(self, h, X, y, cost):
        scores = h.scores(X)   # the build's one model pass
        y = np.asarray(y).astype(int)
        self._wrong = (h.labels_from_scores(scores) != y)
        self._flip_cost = cost.of_distance(_distance_to_flip(h, scores))
        finite = self._flip_cost[~self._wrong & np.isfinite(self._flip_cost)]
        self._n, self._base = len(scores), int(np.count_nonzero(self._wrong))
        self._fill = GreedyFill(finite, np.ones(len(finite)))

    def phi(self, gamma: float) -> np.ndarray:
        # an infinite flip cost means no boundary to reach, even at gamma = 0
        out = np.zeros(len(self._flip_cost))
        flip = np.isfinite(self._flip_cost)
        out[flip] = np.maximum(0.0, 1.0 - gamma * self._flip_cost[flip])
        out[self._wrong] = 1.0
        return out


def _distance_to_flip(h: Hypothesis, scores: np.ndarray) -> np.ndarray:
    """Distance from each point, given by its scores, to the boundary where
    the binary prediction changes, |s1 - s0| / |w1 - w0| (a logistic score
    is s1 - s0 itself); inf when the rule is constant (w1 = w0)."""
    margin = scores if h.kind == LOGISTIC else scores[:, 1] - scores[:, 0]
    norm = float(np.linalg.norm(h.margin_direction()))
    if norm == 0.0:
        return np.full(len(scores), np.inf)
    return np.abs(margin) / norm


class _ScoreLineInner(_FillInner):
    """Clipped cross-entropy or squared loss with a logistic rule: the
    knapsack over the staircase candidates on each sample's score line, an
    upper bound within ``SCORE_LINE_TAU`` of the worst case (module
    docstring).  ``phi`` is the maximum over the nodes, which are feasible.

    The build makes one model pass, for the scores; the nodes' losses come
    from their scores alone (``score_loss_values``).  Each sample's line is
    laid out on its own; the staircases are then sorted and hulled in blocks
    of about ``_HULL_BLOCK`` candidates, many samples per array pass.  Only
    the fill is kept: ``phi`` rebuilds the lines.
    """

    _status = "bound"

    def __init__(self, h, X, y, cost, loss_fn):
        y = np.asarray(y, dtype=float)
        if loss_fn.kind == CROSS_ENTROPY and not np.all((y == 0.0) | (y == 1.0)):
            raise ValueError("clipped cross-entropy with a logistic rule needs labels 0 and 1")
        s = h.scores(X)
        self._h, self._loss, self._cost = h, loss_fn, cost
        self._w = float(np.linalg.norm(h.weights))
        self._samples = list(zip(s.tolist(), y.tolist(),
                                 score_loss_values(loss_fn, h, s, y).tolist()))
        self._n = len(s)
        self._base, self._fill = _hull_fill(self._staircases())

    def _staircases(self):
        """The samples' staircases (``_hull_fill``), a block of samples at a
        time: each sample's upper candidates sorted by cost, most loss first
        at equal cost, keeping those with more loss than every one before."""
        C, L, size = [], [], 0
        for sample in self._samples:
            c, l = self._staircase(sample)
            C.append(c)
            L.append(l)
            size += len(c)
            if size >= _HULL_BLOCK:
                yield _rising(C, L)
                C, L, size = [], [], 0
        if C:
            yield _rising(C, L)

    def _staircase(self, sample) -> tuple[np.ndarray, np.ndarray]:
        """The sample's upper candidates as (costs, losses): its own point,
        then on each rising side one per interval between neighbouring
        nodes, at the nearer end's cost with the larger end loss, and the
        tail from the last node, carrying the side's ceiling."""
        s, y, l0 = sample
        C, L = [[0.0]], [[l0]]
        for c, l, top, _, _ in self._line_sides(s, y, l0):
            C.append(np.concatenate([[0.0], c]))
            L.append(np.concatenate([np.maximum(np.concatenate([[l0], l[:-1]]), l), [top]]))
        return np.concatenate(C), np.concatenate(L)

    def phi(self, gamma: float) -> np.ndarray:
        out = np.empty(self._n)
        for i, (s, y, l0) in enumerate(self._samples):
            out[i] = l0
            for c, l, _, clip_c, clip_l in self._line_sides(s, y, l0):
                c, l = np.concatenate([c, clip_c]), np.concatenate([l, clip_l])
                out[i] = max(out[i], float(np.max(l - gamma * c, initial=-np.inf)))
        return out

    def _line_sides(self, s, y, l0):
        """Yields, for each side of one sample's score line on which the loss
        rises above l0: its level nodes' costs and losses, outwards; its
        ceiling; and its clip node's cost and loss (empty where the side stays
        below the clip).  A constant rule (w = 0) has none."""
        h, loss_fn, cost, w = self._h, self._loss, self._cost, self._w
        if w == 0.0:
            return
        if loss_fn.kind == CROSS_ENTROPY:
            # label 1 rises to the clip as the score falls, label 0 as it grows
            asymptotes = (np.inf, 0.0) if y == 1.0 else (0.0, np.inf)
        else:
            asymptotes = (y * y, (1.0 - y) ** 2)
        for side, asym in zip((-1.0, 1.0), asymptotes):
            top = min(asym, 1.0)
            if top <= l0:
                continue
            level = l0 + SCORE_LINE_TAU * np.arange(1, np.ceil((top - l0) / SCORE_LINE_TAU))
            u = _rising_score(loss_fn, level, y, side)
            u = u[(level < top) & np.isfinite(u)]
            clip = np.array([_rising_score(loss_fn, 1.0, y, side)] if asym > 1.0 else [])
            # the cost of each node grows with its score distance from s
            yield (cost.of_distance(np.abs(u - s) / w), score_loss_values(loss_fn, h, u, y), top,
                   cost.of_distance(np.abs(clip - s) / w),
                   score_loss_values(loss_fn, h, clip, y))


def _rising_score(loss_fn, level, y, side):
    """The score at which label y's loss reaches ``level`` while rising
    towards ``side``: -+log(expm1(level)) for cross-entropy (its rising
    side), logit(y -+ sqrt(level)) for the squared loss; not finite where
    that point does not exist."""
    if loss_fn.kind == CROSS_ENTROPY:
        return side * np.log(np.expm1(level))
    p = y + side * np.sqrt(level)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.log(p / (1.0 - p))


def _rising(C, L) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rising staircases of candidate rows C[r], L[r], as (C, L, counts):
    each row sorted by cost, most loss first at equal cost (then as given),
    keeping each candidate with more loss than every one before it."""
    counts = np.array([len(c) for c in C])
    row = np.repeat(np.arange(len(C)), counts)
    C, L = np.concatenate(C), np.concatenate(L)
    order = np.lexsort((-L, C, row))
    C, L, row = C[order], L[order], row[order]
    # compare losses through their ranks, kept apart row by row
    rank = np.unique(L, return_inverse=True)[1] + row * len(L)
    rising = np.r_[True, rank[1:] > np.maximum.accumulate(rank)[:-1]]
    return C[rising], L[rising], np.bincount(row[rising], minlength=len(counts))


def _make_inner(h, X, y, cost, loss_fn, grid):
    if h.kind == LOOKUP or grid is not None:
        return _GridInner(h, X, y, h.grid if grid is None else grid, cost, loss_fn)
    if loss_fn.kind == ZERO_ONE:
        if h.kind == LOGISTIC or (h.kind == LINEAR and h.n_classes == 2):
            return _FlipInner(h, X, y, cost)
        raise ValueError("zero-one adversarial queries need a binary linear rule "
                         "or a declared perturbation grid")
    if h.kind == LINEAR:
        if h.n_classes != 2 or loss_fn.kind != CROSS_ENTROPY:
            raise ValueError("smooth-loss adversarial queries need a logistic rule, or "
                             "clipped cross-entropy with a two-class linear-classifier")
        h = Hypothesis(kind=LOGISTIC, weights=h.margin_direction(),
                       bias=float(h.bias[1] - h.bias[0]))
    return _ScoreLineInner(h, X, y, cost, loss_fn)


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
    if not rho >= 0:
        raise ValueError("rho must be nonnegative")
    if rho == 0.0:
        return empirical_risk(h, dataset, loss_fn)
    inner = _make_inner(h, dataset.features, dataset.labels, cost, loss_fn, grid)
    return inner.query_profile([rho])[0]


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
        self._inner_cache: tuple[str, _FillInner] | None = None

    @property
    def queries_used(self) -> int:
        return self._used

    @property
    def n_samples(self) -> int:
        return len(self._dataset)

    def query(self, h: Hypothesis, rho: float = 0.0, *,
              _answer: QueryValue | None = None) -> QueryValue:
        """Answer one loss query; raises ValueError for a negative or NaN rho
        and BudgetExceededError past the cap.  The query is charged and
        logged once answered, so a query the inner solver refuses uses no
        budget.  ``query_profile`` passes in the answers it computed, so
        every answer that leaves the client is charged and logged here."""
        if not rho >= 0.0:
            raise ValueError("rho must be nonnegative")
        if self.max_queries is not None and self._used >= self.max_queries:
            raise BudgetExceededError(self.client_id, self.max_queries)
        if _answer is not None:
            qv = _answer
        elif rho == 0.0:
            qv = empirical_risk(h, self._dataset, self._loss_fn)
        else:
            qv = self._inner(h).query_profile([rho])[0]
        self._used += 1
        self.audit_log.append({"client": self.client_id, **qv.to_json_dict()})
        return qv

    def query_profile(self, h: Hypothesis, rhos) -> list[QueryValue]:
        """Answer one loss query per radius, in order: the answers come from
        one hypothesis key, one inner solver and one fill call, and each
        then goes through ``query``, which charges and logs it.  So the
        budget and the audit log end as a loop of ``query`` calls leaves
        them: when the budget runs out partway, the radii that fit are
        answered and logged before BudgetExceededError is raised.  A
        negative or NaN radius, or a vector the inner solver refuses, is
        refused whole, before anything is charged."""
        rhos = [float(r) for r in rhos]
        for r in rhos:
            if not r >= 0.0:
                raise ValueError("rho must be nonnegative")
        fit = len(rhos)
        if self.max_queries is not None:
            fit = max(0, min(fit, self.max_queries - self._used))
        # past the budget there is no answer, and query raises before answering
        answers = self._answers(h, rhos[:fit]) + [None] * (len(rhos) - fit)
        return [self.query(h, r, _answer=qv) for r, qv in zip(rhos, answers)]

    def _answers(self, h: Hypothesis, rhos: list[float]) -> list[QueryValue]:
        robust = [r for r in rhos if r != 0.0]
        empirical = (empirical_risk(h, self._dataset, self._loss_fn)
                     if len(robust) < len(rhos) else None)
        if not robust:
            return [empirical] * len(rhos)
        answered = iter(self._inner(h).query_profile(robust))
        return [next(answered) if r != 0.0 else empirical for r in rhos]

    def _inner(self, h: Hypothesis) -> _FillInner:
        # the inner solver's precomputations depend only on h, reuse across radii
        key = h.cache_key()
        if self._inner_cache is None or self._inner_cache[0] != key:
            inner = _make_inner(
                h, self._dataset.features, self._dataset.labels,
                self._cost, self._loss_fn, self._grid,
            )
            self._inner_cache = (key, inner)
        return self._inner_cache[1]


def query_empirical(clients: list[Client], h: Hypothesis) -> list[QueryValue]:
    """Each client's zero-radius query, in order: the answers come from one
    ``empirical_risks`` call per loss, and each then goes through
    ``Client.query``, which charges and logs it.  So budgets and audit logs
    end as a loop of ``c.query(h, 0.0)`` leaves them: the clients before the
    first one whose budget is spent are answered and logged, and that one
    raises BudgetExceededError.  Datasets the loss refuses are refused
    whole, before anything is charged."""
    fit = next((i for i, c in enumerate(clients)
                if c.max_queries is not None and c.queries_used >= c.max_queries),
               len(clients))
    answers: list[QueryValue | None] = [None] * len(clients)
    by_loss: dict[LossFn, list[int]] = {}
    for i, c in enumerate(clients[:fit]):
        by_loss.setdefault(c._loss_fn, []).append(i)
    for loss_fn, idx in by_loss.items():
        risks = empirical_risks(h, [clients[i]._dataset for i in idx], loss_fn)
        for i, qv in zip(idx, risks):
            answers[i] = qv
    # past the budget there is no answer, and query raises before answering
    return [c.query(h, 0.0, _answer=qv) for c, qv in zip(clients, answers)]
