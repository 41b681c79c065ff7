"""Hypotheses and [0,1]-bounded losses.

Everything downstream (clients, certificates, verification oracles) talks to a
model only through ``loss`` / ``loss_values`` and ``score_loss_values``, so no
other module needs to know what kind of predictor is being certified.  All losses are clipped to
[0, 1]; the certificate formulas rely on that range and nothing else.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

__all__ = [
    "LINEAR",
    "LOGISTIC",
    "LOOKUP",
    "ZERO_ONE",
    "CROSS_ENTROPY",
    "SQUARED",
    "LOSS_KINDS",
    "Sample",
    "Hypothesis",
    "LossFn",
    "DimensionMismatchError",
    "FieldError",
    "loss",
    "loss_values",
    "score_loss_values",
]

LINEAR = "linear-classifier"
LOGISTIC = "logistic"
LOOKUP = "lookup-table"
HYPOTHESIS_KINDS = (LINEAR, LOGISTIC, LOOKUP)

ZERO_ONE = "zero-one"
CROSS_ENTROPY = "clipped-cross-entropy"
SQUARED = "clipped-squared"
LOSS_KINDS = (ZERO_ONE, CROSS_ENTROPY, SQUARED)

# floor for probabilities inside log(); keeps cross-entropy finite before the clip
_P_FLOOR = 1e-12


class DimensionMismatchError(ValueError):
    """Feature vector does not match the hypothesis' declared input width."""


class FieldError(ValueError):
    """A config field out of its range, shape or type: of a ``Hypothesis``
    (``kind``, ``weights``, ``bias``, ``grid``) or of a world
    (``metasim.MetaConfig``).  ``field`` names it within its section."""

    def __init__(self, field: str, problem: str):
        super().__init__(f"{field} {problem}")
        self.field, self.problem = field, problem


@dataclass(frozen=True)
class Sample:
    """One labelled observation: real feature vector plus a label.

    Labels are integer class ids for classification losses and may be real
    values for the squared loss on score-valued hypotheses.
    """

    features: np.ndarray
    label: float

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=float)
        if feats.ndim != 1:
            raise ValueError("sample features must be a 1-D vector")
        if not np.all(np.isfinite(feats)) or not np.isfinite(self.label):
            raise ValueError("sample contains non-finite entries")
        object.__setattr__(self, "features", feats)


@dataclass
class Hypothesis:
    """A fixed predictor under evaluation.

    kind:
      * ``linear-classifier`` -- weights (C, d), bias (C,); predicts argmax score.
      * ``logistic``          -- weights (d,), scalar bias; predicts P(label=1).
      * ``lookup-table``      -- ``grid`` (G, d) support points with one
        prediction per point; covers the whole declared discrete space.
    """

    kind: str
    weights: np.ndarray
    bias: np.ndarray | float = 0.0
    grid: np.ndarray | None = None
    name: str = ""

    def __post_init__(self):
        if self.kind not in HYPOTHESIS_KINDS:
            raise FieldError("kind", f"{self.kind!r} is not one of {HYPOTHESIS_KINDS}")
        self.weights = _float_array("weights", self.weights)
        if not np.all(np.isfinite(self.weights)):
            raise FieldError("weights", "must be finite")
        if self.kind == LINEAR:
            if self.weights.ndim != 2:
                raise FieldError("weights", "of a linear-classifier must be (C, d)")
            bias, C = _float_array("bias", self.bias), len(self.weights)
            if bias.ndim > 1 or bias.size not in (1, C):
                raise FieldError("bias", "of a linear-classifier needs one entry per class")
            self.bias = np.broadcast_to(bias, (C,)).copy()
        else:
            if self.kind == LOGISTIC and self.weights.ndim != 1:
                raise FieldError("weights", "of a logistic rule must be a vector")
            bias = _float_array("bias", self.bias)
            if bias.size != 1:
                raise FieldError("bias", f"of a {self.kind} rule must be one number")
            self.bias = float(bias.reshape(-1)[0])
        if not np.all(np.isfinite(self.bias)):
            raise FieldError("bias", "must be finite")
        if self.grid is not None:
            self.grid = _float_array("grid", self.grid)
        if self.kind == LOOKUP:
            if self.grid is None:
                raise FieldError("grid", "is needed by a lookup-table")
            if self.grid.ndim == 1:
                self.grid = self.grid[:, None]
            if self.weights.ndim != 1 or len(self.weights) != len(self.grid):
                raise FieldError("weights", "of a lookup-table needs one prediction "
                                 "per grid point")

    @property
    def n_features(self) -> int:
        if self.kind == LINEAR:
            return self.weights.shape[1]
        if self.kind == LOGISTIC:
            return self.weights.shape[0]
        return self.grid.shape[1]

    @property
    def n_classes(self) -> int:
        if self.kind == LINEAR:
            return self.weights.shape[0]
        return 2

    def scores(self, X: np.ndarray) -> np.ndarray:
        """Raw decision scores: (n, C) for linear, (n,) log-odds otherwise."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape[1] != self.n_features:
            raise DimensionMismatchError(
                f"expected {self.n_features} features, got {X.shape[1]}"
            )
        if self.kind == LINEAR:
            return X @ self.weights.T + self.bias
        if self.kind == LOGISTIC:
            return X @ self.weights + self.bias
        return self._table_rows(X).astype(float)

    def stacked_scores(self, X: np.ndarray) -> np.ndarray:
        """``scores`` of B stacked datasets X (B, n, d), laid end to end as
        (B * n, ...): one ``np.matmul`` over the block, whose loop makes the
        product of each dataset as ``x @ w`` makes it alone, so each
        dataset's scores round as they would alone (one (B * n, d) product
        may not)."""
        X = np.asarray(X, dtype=float)
        if X.ndim != 3 or X.shape[2] != self.n_features:
            raise DimensionMismatchError(
                f"expected stacked datasets of {self.n_features} features, got shape {X.shape}"
            )
        if self.kind == LOOKUP:
            return self._table_rows(X.reshape(-1, X.shape[2])).astype(float)
        w = self.weights.T if self.kind == LINEAR else self.weights
        scores = np.matmul(X, w)
        return scores.reshape(-1, *scores.shape[2:]) + self.bias

    def labels_from_scores(self, scores: np.ndarray) -> np.ndarray:
        """Hard labels from the rule's ``scores``: argmax for linear,
        threshold at 1/2 for the rest."""
        if self.kind == LINEAR:
            return np.argmax(scores, axis=1)
        if self.kind == LOOKUP:
            return (self.value_from_scores(scores) >= 0.5).astype(int)
        return (scores >= 0.0).astype(int)

    def value_from_scores(self, scores: np.ndarray) -> np.ndarray:
        """Real-valued output from the rule's ``scores``: probability of
        class 1, or the table entry."""
        if self.kind == LOGISTIC:
            return _sigmoid(scores)
        if self.kind == LOOKUP:
            return self.weights[scores.astype(int)]
        raise ValueError("linear-classifier has no scalar predicted value")

    def _table_rows(self, X: np.ndarray) -> np.ndarray:
        # every queried point must be a declared grid point, by contract
        d = np.linalg.norm(X[:, None, :] - self.grid[None, :, :], axis=2)
        rows = np.argmin(d, axis=1)
        if np.any(d[np.arange(len(X)), rows] > 1e-9):
            raise ValueError("lookup-table queried off its declared grid")
        return rows

    # binary margin direction: moving features along -u lowers the class-1 score
    def margin_direction(self) -> np.ndarray:
        if self.kind == LOGISTIC:
            return self.weights
        if self.kind == LINEAR and self.n_classes == 2:
            return self.weights[1] - self.weights[0]
        raise ValueError("margin direction defined for binary linear rules only")

    def to_json_dict(self) -> dict:
        out = {"kind": self.kind, "weights": self.weights.tolist(), "name": self.name}
        out["bias"] = self.bias.tolist() if isinstance(self.bias, np.ndarray) else self.bias
        if self.grid is not None:
            out["grid"] = self.grid.tolist()
        return out

    @classmethod
    def from_json_dict(cls, d: dict) -> "Hypothesis":
        """The rule of a JSON object; FieldError names the field refused."""
        return cls(kind=d["kind"], weights=d["weights"], bias=d.get("bias", 0.0),
                   grid=d.get("grid"), name=d.get("name", ""))


@dataclass(frozen=True)
class LossFn:
    """A named [0,1]-bounded loss; ``kind`` is one of LOSS_KINDS."""

    kind: str

    def __post_init__(self):
        if self.kind not in LOSS_KINDS:
            raise ValueError(f"unknown loss kind {self.kind!r}")


def _float_array(field: str, value) -> np.ndarray:
    """``value`` as a float array, or FieldError naming ``field``."""
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise FieldError(field, f"is not an array of numbers: {exc}") from exc


def _sigmoid(s: np.ndarray) -> np.ndarray:
    out = np.empty_like(s, dtype=float)
    pos = s >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-s[pos]))
    es = np.exp(s[~pos])
    out[~pos] = es / (1.0 + es)
    return out


def loss_values(loss_fn: LossFn, h: Hypothesis, X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Vectorized per-sample losses, always inside [0, 1]."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if len(np.atleast_1d(y)) != len(X):
        raise DimensionMismatchError("feature/label counts differ")
    return score_loss_values(loss_fn, h, h.scores(X), y)


def score_loss_values(loss_fn: LossFn, h: Hypothesis, scores: np.ndarray,
                      y: np.ndarray) -> np.ndarray:
    """Per-sample losses of ``h`` at points with these ``scores`` (rows of
    ``h.scores``), without a model pass; ``loss_values`` is this after
    ``h.scores``."""
    s = np.asarray(scores, dtype=float)
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if loss_fn.kind == ZERO_ONE:
        return (h.labels_from_scores(s) != y.astype(int)).astype(float)
    if h.kind != LINEAR:
        return _output_losses(loss_fn, h.value_from_scores(s), y)
    if loss_fn.kind == CROSS_ENTROPY:
        s = s - s.max(axis=1, keepdims=True)
        logp = s - np.log(np.exp(s).sum(axis=1, keepdims=True))
        return np.clip(-logp[np.arange(len(s)), y.astype(int)], 0.0, 1.0)
    raise ValueError("clipped-squared needs a score-valued hypothesis "
                     "(logistic or lookup-table)")


def _output_losses(loss_fn: LossFn, p: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Clipped smooth losses of a scalar model output ``p`` in [0, 1]:
    cross-entropy as a probability of label 1, or squared error."""
    if loss_fn.kind == CROSS_ENTROPY:
        p = np.clip(p, _P_FLOOR, 1.0 - _P_FLOOR)
        raw = -(y * np.log(p) + (1.0 - y) * np.log(1.0 - p))
    else:
        raw = (y - p) ** 2
    return np.clip(raw, 0.0, 1.0)


def loss(loss_fn: LossFn, h: Hypothesis, z: Sample) -> float:
    return float(loss_values(loss_fn, h, z.features[None, :], np.array([z.label]))[0])
