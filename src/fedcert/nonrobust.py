"""Certificates for an unshifted client population.

Both bounds hold simultaneously over their whole input with probability at
least 1 - delta over the draw of clients and local samples, provided the
query values are plain empirical risks of a [0,1] loss:

  mean bound    mean_k qv_k  +  sqrt(ln((K+1)/delta) / (2K))
                             +  (1/K) sum_k sqrt(ln((K+1)/delta) / (2 n_k))

  survival bound at lambda (fraction of clients with true risk >= lambda)
                (1/K) sum_k 1[ qv_k >= lambda - sqrt(ln((K+1)/delta)/(2 n_k)) ]
                             +  sqrt(ln(2(K+1)/delta) / (2K))

The K-level terms pay for seeing only K clients from the population, the
n_k-level terms for seeing only n_k samples per client; the union is split
across K+1 events (one meta, one per client).

Each bound is written once, as a row kernel over a (T, K) matrix of T
independent problems (``mean_rows``, ``cdf_rows``), so that many problems of
one size are certified in one call; ``mean_bound`` and ``cdf_bound`` are
its one-row case, made by ``Rows.bound`` and ``Rows.curve``.  A row's result
does not depend on the other rows.  Every one returns a certificate, slack
included; the program it pads is read from the query values themselves:
mean_k qv_k, or the share of qv_k at or above lambda.
"""
from __future__ import annotations

import numpy as np

from .certificates import CdfCurve, CertifiedBound, Rows

__all__ = ["mean_rows", "cdf_rows", "mean_bound", "cdf_bound"]


def _validate(qv, n, delta):
    """A (T, K) matrix of query values and sample counts, each row checked
    as one client population."""
    qv = np.asarray(qv, dtype=float)
    n = np.asarray(n, dtype=int)
    if qv.ndim != 2 or qv.size == 0:
        raise ValueError("qv must be a nonempty (rows, clients) matrix")
    if n.shape != qv.shape:
        raise ValueError("one sample count per client required")
    if np.any(qv < 0) or np.any(qv > 1):
        raise ValueError("query values must lie in [0, 1]")
    if np.any(n <= 0):
        raise ValueError("sample counts must be positive")
    if not (0 < delta < 1):
        raise ValueError("delta must lie in (0, 1)")
    return qv, n


def _one_row(qv, n) -> tuple[np.ndarray, np.ndarray]:
    """A one-row certificate's vector input as the kernels' (1, K) matrix."""
    qv = np.asarray(qv, dtype=float)
    if qv.ndim != 1:
        raise ValueError("qv must be a vector")
    return qv[None], np.asarray(n)[None]


def _slack_terms(n: np.ndarray, delta: float) -> tuple[np.ndarray, float]:
    """The mean bound's K+1 events: each client's term s_k (its true risk is
    at most qv_k + s_k) and the meta term t (one-sided DKW on the true
    risks).  ``n`` holds K clients along its last axis."""
    K = n.shape[-1]
    return (np.sqrt(np.log((K + 1) / delta) / (2 * n)),
            float(np.sqrt(np.log((K + 1) / delta) / (2 * K))))


def _survival_counts(breakpoints: np.ndarray, lams: np.ndarray) -> np.ndarray:
    """Per row of ``breakpoints``, the number at or above each of the sorted
    thresholds ``lams``.  Each breakpoint is placed among the thresholds by
    one searchsorted and each row's places are counted from the top, so no
    (K, L) comparison is built.  The rows are sorted first: searchsorted
    walks sorted keys several times faster."""
    T, L = len(breakpoints), len(lams)
    # the number of thresholds at or below each breakpoint
    places = np.searchsorted(lams, np.sort(breakpoints, axis=1), side="right")
    hist = np.bincount((np.arange(T)[:, None] * (L + 1) + places).ravel(),
                       minlength=T * (L + 1)).reshape(T, L + 1)
    return np.cumsum(hist[:, :0:-1], axis=1)[:, ::-1]


def _curve_thresholds(qv, n, delta, lambda_grid):
    """A one-row curve's (1, K) input and its thresholds: the grid plus the
    K breakpoints qv_k + s_k where the indicator sum changes (sorted,
    unique), so the step curve on them is exact between neighbours."""
    qv, n = _validate(*_one_row(qv, n), delta)
    lambda_grid = np.asarray(lambda_grid, dtype=float)
    if lambda_grid.ndim != 1 or len(lambda_grid) == 0:
        raise ValueError("lambda_grid must be a nonempty vector")
    shifts, _ = _slack_terms(n, delta)
    return qv, n, np.unique(np.concatenate([lambda_grid, qv[0] + shifts[0]]))


def mean_rows(qv, n, delta: float) -> Rows:
    """``mean_bound`` of each row of a (T, K) query matrix ``qv`` with
    sample counts ``n`` of the same shape."""
    qv, n = _validate(qv, n, delta)
    shifts, meta = _slack_terms(n, delta)
    per_client = np.mean(shifts, axis=1)
    raw = np.mean(qv, axis=1) + meta + per_client
    return Rows(np.minimum(raw, 1.0), raw,
                {"meta": np.full(len(raw), meta), "per_client": per_client}, {})


def cdf_rows(qv, n, delta: float, lambdas) -> Rows:
    """The survival band of each row of a (T, K) query matrix at the sorted
    thresholds ``lambdas``, shared by every row: ``value`` and ``raw`` are
    (T, L), ``slack["meta"]`` the K-level term."""
    qv, n = _validate(qv, n, delta)
    lambdas = np.asarray(lambdas, dtype=float)
    if lambdas.ndim != 1 or len(lambdas) == 0 or np.any(np.diff(lambdas) < 0):
        raise ValueError("thresholds must be a nonempty sorted vector")
    T, K = qv.shape
    shifts, _ = _slack_terms(n, delta)
    meta = float(np.sqrt(np.log(2 * (K + 1) / delta) / (2 * K)))
    raw = _survival_counts(qv + shifts, lambdas) / K + meta
    return Rows(np.minimum(raw, 1.0), raw, {"meta": np.full(T, meta)}, {})


def mean_bound(qv, n, delta: float) -> CertifiedBound:
    """Certified upper bound on the population-average true risk: the one
    row of ``mean_rows``."""
    qv, n = _one_row(qv, n)
    return mean_rows(qv, n, delta).bound("mean", K=qv.shape[1], delta=delta)


def cdf_bound(qv, n, delta: float, lambda_grid) -> CdfCurve:
    """Certified upper bounds on the survival function of client risks,
    valid simultaneously at every threshold: the one row of ``cdf_rows``.

    Evaluated on the user grid plus the K breakpoints qv_k + shift_k where
    the indicator sum actually changes, so the returned step curve is exact
    between consecutive thresholds.
    """
    qv, n, lams = _curve_thresholds(qv, n, delta, lambda_grid)
    return cdf_rows(qv, n, delta, lams).curve("cdf", lams, K=qv.shape[1], delta=delta)
