"""Client-side loss queries.

The server learns about a client only through ``Client.query(h, rho)``, which
returns a single scalar summary (plus solver metadata), and
``Client.query_profile(h, rhos)``, which answers a radius vector in one call
and passes each answer through ``query``: one scalar answer, one audit entry
and one unit of the query budget per radius.  ``query_profiles`` answers
many clients' radius vectors as one (K, G) table of values and slopes, and
passes each answer through ``query`` in the same way; a radius vector may
hold 0 and repeat a radius, and each entry is answered and charged on its
own.  So ``certify`` asks each client one table: radius 0, then every
``wass-mean`` grid.

One function answers every query: ``answer_table``, for B clients stacked as
(B, n, d) features and (B, n) labels.  ``_profiles`` serves ``query`` and
``query_profiles`` from it, and the coverage trials call it on each block of
their drawn samples.  Its zero radii come from one batched loss pass
(``empirical_risk_values``), and the others from the route's inner solver.
The datasets of a drawn world are row views of its columns, and a block of
consecutive rows of one draw is read in place (``_stacked``).  A query is
charged once answered.  At rho = 0 the answer is the plain empirical risk;
at rho > 0 it is the worst-case risk over all data distributions within
transport cost rho of the client's empirical sample,

    sup_{Q in ball(rho)}  E_Q[loss]
        =  min_{gamma >= 0}  gamma * rho + mean_i sup_{z'} [loss(z') - gamma c(z', z_i)]

with the minimizing gamma known to lie in [0, 1/rho] for losses in [0, 1].
A negative or NaN radius is refused.  One function, ``_route``, picks the
route of a rule, loss and declared grid, and refuses what no route answers.
``_make_inner`` builds that route's solver for B clients stacked as (B, n, d)
features, once per ``answer_table`` call, and the solver answers a radius
vector as a table (``table(rhos)``).  ``_profiles`` stacks the clients of one
budget fit, sample count, cost, loss and grid array, and calls
``answer_table`` once per block of a stack; a score-line client is a block
of its own.  The routes:

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
concave pieces best gain per unit cost first, and gamma_star is the
marginal slope at the budget.  Every route fills its pieces through one
kernel, ``concave.RowFill``: each client's pieces in greedy order make one
row, their running costs and gains are summed once, and one search answers
every client and radius of a block.  The flip route's pieces all gain 1, so
one sort of each row's flip costs orders them (``_by_key``); the grid and
score-line routes order the segments of their samples' upper hulls by
``RowFill.greedy``'s stable sort on -gain/cost.  The flip and grid routes
are exact.

Why the score-line route is sound.  A logistic rule's clipped losses see a
sample only through its score u = w.x + b.  The cheapest point with score u
is x_i + (u - s_i) w / |w|^2, at distance |u - s_i| / |w| from x_i, and a move
orthogonal to w costs transport and changes no loss; so the worst case lies
on the line of those points, and each sample's cost c_i(u) grows with
|u - s_i| under either transport cost.  On the line:

  * each loss l_y(u) is quasiconvex in u: cross-entropy with y in {0, 1} is
    monotone, and (y - sigmoid(u))^2 falls, then rises (clipping at 1 keeps
    both quasiconvex).  So on each side of its minimum the loss rises
    outwards, towards the side's ceiling: 1 at the clip, or the squared
    loss's asymptote y^2 or (1 - y)^2;
  * nodes sit on each side where l_y reaches the levels k tau below the
    ceiling, the same for every sample of label y; the clip point is a node
    too.  Node j has loss L[j], and the points of a side with loss in
    (L[j-1], L[j]] lie between nodes j-1 and j;
  * the upper set (the staircase) is the sample's own point, then on each
    side one candidate per node j, with loss max(L[j-1], L[j]) (L[0] for the
    first node), and a tail carrying the ceiling past the last level node.
    When L[j-1] exceeds the sample's own loss, the sample lies neither
    between nodes j-1 and j nor beyond them, so node j-1 is the nearer end,
    and the candidate takes its cost; otherwise, and for the first node,
    cost 0 is a lower bound.  The tail is costed in the same way from the
    last node.  Every point on the line is dominated by one candidate, so
    the fractional knapsack over them (the transport LP, since mass may
    split) is at least the supremum.  ``query`` returns it;
  * the lower set is the nodes themselves, which are feasible points;
    ``phi`` takes its maximum, so it never exceeds the true penalized
    supremum;
  * each upper candidate is at most tau above a feasible point that costs
    no more: node j-1, or the sample's own point, whose loss is at least
    L[j-1], or at least the side's least loss, which the first node
    exceeds by at most tau.  So the answer exceeds the supremum by at most
    tau.

With zero weights the rule is constant, and the answer is the empirical
risk.

Label changes carry infinite transport cost throughout: adversaries move
features, never labels.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .concave import _HULL_BLOCK, RowFill, hull_pieces
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
    "query_profiles",
    "answer_table",
    "empirical_risk",
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

    def of_sq_distance(self, sq: np.ndarray) -> np.ndarray:
        """The cost at squared distance ``sq``, ``of_distance(sqrt(sq))``:
        it never falls as ``sq`` grows, so the cost of the nearest of many
        points is this map of their least squared distance."""
        return self.of_distance(np.sqrt(sq))

    def pairwise(self, X: np.ndarray, G: np.ndarray) -> np.ndarray:
        """Cost from each row of X to each row of G."""
        return self.of_sq_distance(sq_distances(X, G))


def sq_distances(X: np.ndarray, G: np.ndarray) -> np.ndarray:
    """Squared distance from each row of X to each row of G.  The squared
    coordinate differences are summed one coordinate at a time, in order, as
    ``np.linalg.norm`` sums up to seven of them, and no (n, G, d) temporary
    is made."""
    sq, diff = np.zeros((len(X), len(G))), np.empty((len(X), len(G)))
    for k in range(X.shape[1]):
        np.subtract.outer(X[:, k], G[:, k], out=diff)
        sq += np.multiply(diff, diff, out=diff)
    return sq


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

    @classmethod
    def _read(cls, value: float, rho: float, slope: float, status: str) -> "QueryValue":
        """The answer at ``rho`` read off a table whose values were checked
        to lie in [0, 1] as one array: made without repeating the check.  A
        zero radius's answer is the empirical risk's."""
        if rho == 0.0:
            rho, slope, iterations, status = 0.0, 0.0, 0, "exact"
        else:
            iterations = 1
        qv = object.__new__(cls)
        fields = vars(qv)   # set in declaration order, as __init__ sets them
        fields["value"], fields["rho"], fields["gamma_star"] = value, rho, slope
        fields["inner_iterations"], fields["status"] = iterations, status
        return qv

    def to_json_dict(self) -> dict:
        return {
            "value": self.value,
            "rho": self.rho,
            "gamma_star": self.gamma_star,
            "inner_iterations": self.inner_iterations,
            "status": self.status,
        }


def empirical_risk(h: Hypothesis, dataset: LocalDataset, loss_fn: LossFn) -> QueryValue:
    """The empirical risk of ``dataset``: a fresh client's answer at radius
    0 (``adversarial_risk``)."""
    return adversarial_risk(h, dataset, 0.0, loss_fn=loss_fn)


def _stacked(datasets: list[LocalDataset]) -> tuple[np.ndarray, np.ndarray]:
    """The features (B, n, d) and labels (B, n) of B datasets of n samples
    each: a slice of the drawn columns when the datasets are consecutive
    row views of one draw (``LocalDataset.row_view``), else a stack."""
    columns, first = datasets[0]._columns, datasets[0].client_id
    if columns is not None and all(ds._columns is columns and ds.client_id == first + b
                                   for b, ds in enumerate(datasets)):
        rows = slice(first, first + len(datasets))
        return columns[0][rows], columns[1][rows]
    return np.stack([ds.features for ds in datasets]), np.stack([ds.labels for ds in datasets])


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
    """Primal answers of B clients of ``_n`` samples each: client b's
    samples, of total loss ``_base[b]``, spend n * rho on row b of
    ``_fill``; exact unless ``_status`` says otherwise."""

    _status = "exact"

    def table(self, rhos) -> tuple[np.ndarray, np.ndarray]:
        """(values, slopes) of each client at each radius, (B, G): one
        ``RowFill`` call for every client and radius."""
        gain, slope = self._fill(self._n * np.asarray(rhos, dtype=float))
        return np.clip((self._base[:, None] + gain) / self._n, 0.0, 1.0), slope


# a stacked grid build spans about this many bytes of squared distances, taken
# a label at a time: past about 200 KB a matrix costs more per row
_GRID_BLOCK_BYTES = 1 << 19


class _GridInner(_FillInner):
    """Exhaustive search over a declared finite feature grid, for B clients
    of n samples each, stacked as features (B, n, d) and labels (B, n); one
    client is B = 1.

    Each sample's own point joins its candidates at cost 0, so the ball always
    contains the empirical distribution even when the data lie off the grid.
    A lookup table has losses only at its grid points: a robust query of
    lookup data off the table is refused, and ``phi`` searches the grid alone.
    The build takes the grid's losses once per label of the block, and each
    sample's squared distance to every grid point, whose least per loss
    level alone is mapped to a cost (``_grid_staircases``).  Only the fill
    is kept: ``phi`` recomputes the candidates, at their costs.
    """

    def __init__(self, h, X, y, grid, cost, loss_fn):
        B, n = np.shape(y)
        self._args = (h, np.reshape(X, (B * n, -1)), np.reshape(y, -1),
                      np.atleast_2d(np.asarray(grid, dtype=float)), loss_fn)
        losses, which, own = _grid_candidates(*self._args)
        self._n, self._cost = n, cost
        if own is None:
            self._fill = _off_table
        else:
            X, grid = self._args[1], self._args[3]

            def sq(label, mine, order):
                return sq_distances(X[mine], grid[order])
            self._base, self._fill = _hull_fill(
                [_grid_staircases(sq, losses, which, own, cost.of_sq_distance)], B)

    def phi(self, gamma: float) -> np.ndarray:
        losses, which, own = _grid_candidates(*self._args)
        C = self._cost.pairwise(self._args[1], self._args[3])
        best = np.max(losses[which] - gamma * C, axis=1)
        return best if own is None else np.maximum(own, best)


def _off_table(budget):
    """The fill of lookup data off its table, which has no robust answer."""
    raise ValueError("lookup-table data must lie on the table's grid")


def _grid_candidates(h, X, labels, grid, loss_fn):
    """(losses, which, own): the grid's losses under each distinct label,
    and which of them is each sample's; and each sample's loss at its own
    point, or None for lookup data off the table."""
    values, which = np.unique(labels, return_inverse=True)
    losses = np.array([loss_values(loss_fn, h, grid, np.full(len(grid), lab))
                       for lab in values])
    try:
        own = loss_values(loss_fn, h, X, labels)
    except ValueError:
        if h.kind != LOOKUP:
            raise
        own = None
    return losses, which, own


def _grid_staircases(key_of, losses, which, own, to_cost):
    """Each sample's rising staircase over its candidates, as (C, L, counts)
    rows in sample order (``_hull_fill``): the candidates its label shares,
    grid points or score-line candidates, and its own point at cost 0.
    ``key_of(label, mine, order)`` gives the keys of the samples ``mine``
    to the label's candidates taken in ``order``, (len(mine), len(order)).
    A key ranks a sample's candidates by cost: ``to_cost`` maps keys to
    costs and never falls as a key grows, so the cheapest candidate of a
    loss level costs ``to_cost`` of its least key, and only those minima
    are mapped.

    A point is on it when it has more loss than every point that sorts
    before it by cost, then by loss, most first.  So the staircase starts at
    the most loss among the points at cost 0, and then takes each distinct
    candidate loss above that, at its cheapest candidate, when that one is
    cheaper than every point with more loss.  The samples of one label
    share a loss vector, so one sort of it serves them all.
    """
    rows, xs, ys = [], [], []
    for label, loss in enumerate(losses):
        mine = np.flatnonzero(which == label)
        order = np.argsort(-loss, kind="stable")
        first = np.flatnonzero(np.r_[True, np.diff(loss[order]) != 0.0])
        level = loss[order][first]                   # the distinct losses, most first
        cheapest = to_cost(np.minimum.reduceat(key_of(label, mine, order), first, axis=1))
        base = np.maximum(own[mine], np.max(np.where(cheapest == 0.0, level, -np.inf), axis=1))
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
            np.bincount(rows, minlength=len(which)))


def _hull_fill(blocks, B: int) -> tuple[np.ndarray, RowFill]:
    """Each of B clients' total loss at cost 0, and the fill over the
    segments of its samples' upper hulls.  ``blocks`` yields (C, L,
    counts): rows of ``counts`` points each, one per sample, laid end to
    end, each a rising staircase from its cost-0 point, its costs and
    losses strictly rising; the blocks' rows are the B clients' samples in
    order, the same number each.  Each block's rows are hulled together
    (``concave.hull_pieces``), and each client's pieces, laid out as one
    row, are put in greedy order (``RowFill.greedy``)."""
    base, pieces = [], []
    for C, L, counts in blocks:
        base.append(L[np.cumsum(counts) - counts])
        pieces.append(hull_pieces(C, L, counts))
    width, rise, per_row = zip(*pieces)
    m = np.sum(np.concatenate(per_row).reshape(B, -1), axis=1)
    # each client's pieces, in order, at the front of its row
    piece = np.arange(m.max()) < m[:, None]
    cost, gain = np.zeros(piece.shape), np.zeros(piece.shape)
    cost[piece], gain[piece] = np.concatenate(width), np.concatenate(rise)
    return np.sum(np.concatenate(base).reshape(B, -1), axis=1), RowFill.greedy(cost, gain, m)


class _FlipInner(_FillInner):
    """Zero-one loss with a binary linear rule on continuous features, for B
    clients of n samples each, stacked as features (B, n, d) and labels
    (B, n); one client is B = 1.

    A perturbation either leaves the prediction alone (payoff = current loss)
    or pays the cost of reaching the decision surface for payoff 1; the
    cheapest flip crosses the class boundary orthogonally, so the supremum
    is available in closed form.

    A client's pieces are the finite flips of its correctly classified
    samples, each of gain 1, so one sort of each row's costs puts them in
    greedy order (``_by_key``) for the ``RowFill``.  The whole
    table takes one model pass, one sort and one search.
    """

    def __init__(self, h, X, y, cost):
        B, n = np.shape(y)
        scores = h.stacked_scores(X)   # the build's one model pass
        y = np.asarray(y).astype(int).reshape(-1)
        self._wrong = (h.labels_from_scores(scores) != y).reshape(B, n)
        self._flip_cost = cost.of_distance(_distance_to_flip(h, scores)).reshape(B, n)
        piece = ~self._wrong & np.isfinite(self._flip_cost)
        self._n, self._base = n, np.count_nonzero(self._wrong, axis=1)
        # each row's pieces best first, then inf, which no budget covers
        self._fill = RowFill(_by_key(np.where(piece, self._flip_cost, np.inf)),
                              np.ones((B, n)), np.count_nonzero(piece, axis=1))

    def phi(self, gamma: float) -> np.ndarray:
        # an infinite flip cost means no boundary to reach, even at gamma = 0
        out = np.zeros(self._flip_cost.shape)
        flip = np.isfinite(self._flip_cost)
        out[flip] = np.maximum(0.0, 1.0 - gamma * self._flip_cost[flip])
        out[self._wrong] = 1.0
        return out.reshape(-1)


def _by_key(cost: np.ndarray) -> np.ndarray:
    """Each row of piece costs (inf past its pieces) in greedy order for
    unit gains: ``RowFill.greedy``'s stable sort by -(1/cost).  That key
    never falls as the cost grows, so a plain sort of the costs orders the
    keys too, and it gives the stable sort's costs unless two different
    costs share a key; only then is the stable sort run."""
    out = np.sort(cost, axis=1)
    with np.errstate(divide="ignore"):
        key = -(1.0 / out)
    if np.any((key[:, 1:] == key[:, :-1]) & (out[:, 1:] != out[:, :-1])):
        with np.errstate(divide="ignore"):
            order = np.argsort(-(1.0 / cost), axis=1, kind="stable")
        out = np.take_along_axis(cost, order, axis=1)
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
    docstring), for B clients of n samples each, stacked as features
    (B, n, d) and labels (B, n).  ``phi`` is the maximum over the nodes,
    which are feasible.

    The build makes one model pass, for the scores; the nodes' losses come
    from their scores alone (``score_loss_values``).  The samples of one
    label share its nodes and candidate losses, built once per label, and
    differ only in their costs: the grid route's input.  So
    ``_grid_staircases`` builds the staircases, a block of about
    ``_HULL_BLOCK`` candidates at a time in sample order, and each block is
    hulled as it is built.  Only the fill is kept: ``phi`` recomputes the
    nodes' costs.
    """

    _status = "bound"

    def __init__(self, h, X, y, cost, loss_fn):
        B, n = np.shape(y)
        y = np.asarray(y, dtype=float).reshape(-1)
        if loss_fn.kind == CROSS_ENTROPY and not np.all((y == 0.0) | (y == 1.0)):
            raise ValueError("clipped cross-entropy with a logistic rule needs labels 0 and 1")
        self._s = h.stacked_scores(X)   # the build's one model pass
        self._own = score_loss_values(loss_fn, h, self._s, y)
        # a constant rule (w = 0) has only padding, whose costs never count
        self._cost, self._w = cost, float(np.linalg.norm(h.weights)) or 1.0
        labels, self._which = np.unique(y, return_inverse=True)
        tables = zip(*(_line_tables(h, loss_fn, lab) for lab in labels))
        self._loss, self._via_u, self._via_l, self._node_u, self._node_l = map(_padded, tables)
        self._n = n
        self._base, self._fill = _hull_fill(self._staircases_by_block(), B)

    def _costs(self, u, s):
        """The cost of moving samples of scores s to the points of scores u."""
        return self._cost.of_distance(np.abs(u - s) / self._w)

    def _staircases_by_block(self):
        """The samples' staircases (``_grid_staircases``), a block of samples
        at a time: each candidate at the cost of the node it goes via, or at
        cost 0 where that node has no more loss than the sample's own point.
        The keys are the distances |u - s| / |w|, zeroed there, and
        ``of_distance`` maps them to costs."""
        step = max(1, _HULL_BLOCK // self._loss.shape[1])
        for start in range(0, len(self._s), step):
            block = slice(start, start + step)
            present, which = np.unique(self._which[block], return_inverse=True)
            s, own = self._s[block, None], self._own[block]

            def keys(label, mine, order):
                row = present[label]
                via_l, via_u = self._via_l[row, order], self._via_u[row, order]
                return np.where(via_l > own[mine, None], np.abs(via_u - s[mine]) / self._w, 0.0)
            yield _grid_staircases(keys, self._loss[present], which, own,
                                   self._cost.of_distance)

    def phi(self, gamma: float) -> np.ndarray:
        C = self._costs(self._node_u[self._which], self._s[:, None])
        best = np.max(self._node_l[self._which] - gamma * C, axis=1, initial=-np.inf)
        return np.maximum(self._own, best)


# the score line's node levels k tau, k = 1..J; the last is exactly 1, the clip
_J = round(1 / SCORE_LINE_TAU)
_LEVELS = np.arange(1, _J + 1) / _J


def _line_tables(h, loss_fn, y):
    """Label y's upper candidates and nodes, as five arrays: each
    candidate's loss, and the score and loss of the node it goes via; then
    the nodes' scores and losses.

    On each side, outwards, the nodes sit where the loss reaches each level
    k tau up to the side's ceiling: 1 at the clip, or the squared loss's
    asymptote y^2 or (1 - y)^2 (a level with no such point has no node).
    Node j gives the candidate of the interval from node j - 1, with the
    larger of their two losses, via node j - 1; the first node's goes via a
    point of loss 0, never more than a sample's own, and the tail carries
    the ceiling via the last node below it.  The clip node is in the lower
    set only.  A constant rule (w = 0) has no nodes.
    """
    if not np.any(h.weights):
        asymptotes = ()
    elif loss_fn.kind == CROSS_ENTROPY:
        # label 1 rises to the clip as the score falls, label 0 as it grows
        asymptotes = (np.inf, 0.0) if y == 1.0 else (0.0, np.inf)
    else:
        asymptotes = (y * y, (1.0 - y) ** 2)
    parts = [(np.empty(0),) * 5]
    for side, asym in zip((-1.0, 1.0), asymptotes):
        top = min(asym, 1.0)
        level = _LEVELS[_LEVELS <= top]
        u = _rising_score(loss_fn, level, y, side)
        level, u = level[np.isfinite(u)], u[np.isfinite(u)]
        l = score_loss_values(loss_fn, h, u, y)
        ub, lb = u[level < top], l[level < top]
        parts.append((np.r_[lb[:1], np.maximum(lb[:-1], lb[1:]), top],
                      np.r_[0.0, ub], np.r_[0.0, lb], u, l))
    return [np.concatenate(p) for p in zip(*parts)]


def _padded(rows) -> np.ndarray:
    """1-D arrays as the rows of one matrix of at least one column, each
    padded with zeros on the right: a padding candidate or node has loss 0
    and score 0, and never has more loss than a sample's own point at cost
    0."""
    out = np.zeros((len(rows), max(1, *map(len, rows))))
    for o, r in zip(out, rows):
        o[:len(r)] = r
    return out


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


def _route(h: Hypothesis, loss_fn: LossFn, grid) -> tuple[str, object]:
    """The route of robust queries of rule ``h`` under ``loss_fn`` with the
    declared perturbation ``grid`` (None for none), and what it searches:
    ("grid", the declared grid, or a lookup table's own), ("flip", None), or
    ("line", the logistic rule on the score line: ``h``, or a two-class
    linear-classifier's rule on its margin).  A triple no route answers is
    refused with ValueError."""
    if h.kind == LOOKUP or grid is not None:
        return "grid", h.grid if grid is None else grid
    if loss_fn.kind == ZERO_ONE:
        if h.kind == LOGISTIC or (h.kind == LINEAR and h.n_classes == 2):
            return "flip", None
        raise ValueError("zero-one adversarial queries need a binary linear rule "
                         "or a declared perturbation grid")
    if h.kind == LINEAR:
        if h.n_classes != 2 or loss_fn.kind != CROSS_ENTROPY:
            raise ValueError("smooth-loss adversarial queries need a logistic rule, or "
                             "clipped cross-entropy with a two-class linear-classifier")
        h = Hypothesis(kind=LOGISTIC, weights=h.margin_direction(),
                       bias=float(h.bias[1] - h.bias[0]))
    return "line", h


def _make_inner(h, X, y, cost, loss_fn, grid) -> _FillInner:
    """The inner solver of B clients of n samples each, stacked as features
    X (B, n, d) and labels y (B, n), on the route ``_route`` picks."""
    route, searched = _route(h, loss_fn, grid)
    if route == "grid":
        return _GridInner(h, X, y, searched, cost, loss_fn)
    if route == "flip":
        return _FlipInner(h, X, y, cost)
    return _ScoreLineInner(searched, X, y, cost, loss_fn)


def answer_table(
    h: Hypothesis,
    X: np.ndarray,
    y: np.ndarray,
    rhos,
    cost: TransportCost = TransportCost(),
    loss_fn: LossFn = LossFn(ZERO_ONE),
    grid: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, str]:
    """(values, slopes, status) of B clients of n samples each, stacked as
    features X (B, n, d) and labels y (B, n), at the radii ``rhos``: values
    and slopes (B, G), and the route's status.  The radii above 0 come from
    one inner solver (``_make_inner``), built first, so that a route's
    refusal is its own; a zero radius takes the empirical risk
    (``empirical_risk_values``) and slope 0.  When every radius is 0, no
    route is picked and no solver built, and the status is ``exact``."""
    rhos = np.asarray(rhos, dtype=float)
    robust = rhos != 0.0
    values, slopes = np.zeros((len(y), len(rhos))), np.zeros((len(y), len(rhos)))
    status = "exact"
    if robust.any():
        inner = _make_inner(h, X, y, cost, loss_fn, grid)
        values[:, robust], slopes[:, robust] = inner.table(rhos[robust])
        status = inner._status
    if not robust.all():
        values[:, ~robust] = empirical_risk_values(h, X, y, loss_fn)[:, None]
    return values, slopes, status


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
    inner = _make_inner(h, z.features[None, None, :], np.array([[z.label]]), cost, loss_fn,
                        grid)
    return float(inner.phi(gamma)[0])


def adversarial_risk(
    h: Hypothesis,
    dataset: LocalDataset,
    rho: float,
    cost: TransportCost = TransportCost(),
    loss_fn: LossFn = LossFn(ZERO_ONE),
    grid: np.ndarray | None = None,
) -> QueryValue:
    """Worst-case mean loss over the transport ball of radius rho: the
    answer of a fresh client holding ``dataset``."""
    return Client(dataset.client_id, dataset, loss_fn, cost, grid=grid).query(h, rho)


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

    @property
    def queries_used(self) -> int:
        return self._used

    @property
    def n_samples(self) -> int:
        return len(self._dataset)

    def query(self, h: Hypothesis, rho: float = 0.0, *,
              _answer: QueryValue | None = None) -> QueryValue:
        """Answer one loss query; raises ValueError for a negative or NaN rho
        and BudgetExceededError past the cap.  The answer is this client's
        one-radius table (``_profiles``).  The query is charged and logged
        once answered, so a query the inner solver refuses uses no budget.
        ``_charge`` passes in the answers a table holds, so every answer
        that leaves the client is charged and logged here."""
        if not rho >= 0.0:
            raise ValueError("rho must be nonnegative")
        if self.max_queries is not None and self._used >= self.max_queries:
            raise BudgetExceededError(self.client_id, self.max_queries)
        if _answer is None:
            rho = float(rho)
            values, slopes, _, status = _profiles([self], h, [rho])
            _answer = QueryValue._read(float(values[0, 0]), rho, float(slopes[0, 0]), status[0])
        self._used += 1
        self.audit_log.append({"client": self.client_id, **_answer.to_json_dict()})
        return _answer

    def query_profile(self, h: Hypothesis, rhos) -> list[QueryValue]:
        """Answer one loss query per radius, in order: ``query_profiles`` for
        this one client.  So the budget and the audit log end as a loop of
        ``query`` calls leaves them: when the budget runs out partway, the
        radii that fit are answered and logged before BudgetExceededError is
        raised.  A negative or NaN radius, or a vector the inner solver
        refuses, is refused whole, before anything is charged."""
        rhos = _radii(rhos)
        return [column[0] for column in _charge([self], h, rhos, *_profiles([self], h, rhos))]


def _charge(clients: list[Client], h: Hypothesis, rhos: list[float], values, slopes,
            fits: list[int], status: list[str]) -> list[list[QueryValue]]:
    """Pass the answers of the table (``_profiles``) through
    ``Client.query``, which charges and logs each, one radius at a time:
    each client answers the first of its ``fits`` radii, and the answers to
    each radius come back as one list.  ``_profiles`` answers no client
    past the first whose budget runs out, so only the last client can lack
    budget for a radius; it then asks that radius with no answer, so that
    ``query`` raises BudgetExceededError.  So budgets and audit logs end as
    a loop of ``query`` calls, client by client, leaves them."""
    answered = [[c.query(h, r, _answer=QueryValue._read(v, r, g, st))
                 for c, v, g, st, fit in zip(clients, column, slope, status, fits) if j < fit]
                for j, (r, column, slope)
                in enumerate(zip(rhos, values.T.tolist(), slopes.T.tolist()))]
    if fits and fits[-1] < len(rhos):
        # past the budget: raises before answering
        clients[len(fits) - 1].query(h, rhos[fits[-1]])
    return answered


def _radii(rhos) -> list[float]:
    """A radius vector as floats; a negative or NaN radius is refused."""
    rhos = [float(r) for r in rhos]
    for r in rhos:
        if not r >= 0.0:
            raise ValueError("rho must be nonnegative")
    return rhos


def query_profiles(clients: list[Client], h: Hypothesis, rhos) -> tuple[np.ndarray, np.ndarray]:
    """Each client's answers to the radius vector ``rhos``, in order, as
    (values, slopes), each (K, G): ``QueryValue.value`` and ``gamma_star``.

    Every answer then goes through ``Client.query``, which charges and logs
    it (``_charge``).  So budgets and audit logs end as a loop of
    ``c.query_profile(h, rhos)`` leaves them: the first client whose
    budget runs out partway answers the radii that fit and raises
    BudgetExceededError.  A negative or NaN radius, or a dataset its route
    refuses, is refused whole, before anything is charged."""
    rhos = _radii(rhos)
    values, slopes, fits, status = _profiles(clients, h, rhos)
    _charge(clients, h, rhos, values, slopes, fits, status)
    return values, slopes


def _profiles(clients: list[Client], h: Hypothesis, rhos: list[float]):
    """The answers ``query_profiles`` and ``Client.query`` charge: (values,
    slopes, fits, status) for the clients up to the first whose budget runs
    out within ``rhos``, where ``fits`` counts the radii each has budget for
    and ``status`` is each client's route status.  Only those clients are
    answered, each on the radii it has budget for.

    One loop groups the clients: each with a radius to answer joins the
    stack of its fit, feature shape, cost, loss and grid array.  Each stack
    with a radius above 0 picks its route (``_route``) before any solver is
    built, so a refused one is refused before any work.  A stack answers
    through one ``answer_table`` call per block: about ``_GRID_BLOCK_BYTES``
    of squared distances for the grid route, one client for the score
    line, and about ``_BLOCK_BYTES`` of features otherwise (as
    ``empirical_risk_values`` blocks them); a block of consecutive rows of
    one draw is read in place (``_stacked``)."""
    G, fits, stacks = len(rhos), [], {}
    for i, c in enumerate(clients):
        fit = G if c.max_queries is None else max(0, min(G, c.max_queries - c._used))
        fits.append(fit)
        if fit:
            stacks.setdefault((fit, c._dataset.features.shape, c._cost.kind, c._loss_fn.kind,
                               id(c._grid)), []).append(i)
        if fit < G:
            break
    blocks = []
    for (fit, (n, _), *_), idx in stacks.items():
        c = clients[idx[0]]
        route, searched = _route(h, c._loss_fn, c._grid) if any(rhos[:fit]) else (None, None)
        step = (max(1, _GRID_BLOCK_BYTES // (8 * n * len(searched))) if route == "grid"
                else 1 if route == "line" else _block_rows(n, h))
        blocks += [(fit, c, idx[start:start + step]) for start in range(0, len(idx), step)]
    values, slopes = np.zeros((len(fits), G)), np.zeros((len(fits), G))
    status = ["exact"] * len(fits)
    for fit, c, rows in blocks:
        X, y = _stacked([clients[i]._dataset for i in rows])
        values[rows, :fit], slopes[rows, :fit], st = answer_table(
            h, X, y, rhos[:fit], c._cost, c._loss_fn, c._grid)
        for i in rows:
            status[i] = st
    if not np.all((values >= 0.0) & (values <= 1.0)):
        raise ValueError("query values live in [0, 1]")
    return values, slopes, fits, status
