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
"""
from __future__ import annotations

import numpy as np

from .certificates import CdfCurve, CertifiedBound

__all__ = ["mean_bound", "cdf_bound"]


def _validate(qv, n, delta):
    qv = np.asarray(qv, dtype=float)
    n = np.asarray(n, dtype=int)
    if qv.ndim != 1 or len(qv) == 0:
        raise ValueError("qv must be a nonempty vector")
    if n.shape != qv.shape:
        raise ValueError("one sample count per client required")
    if np.any(qv < 0) or np.any(qv > 1):
        raise ValueError("query values must lie in [0, 1]")
    if np.any(n <= 0):
        raise ValueError("sample counts must be positive")
    if not (0 < delta < 1):
        raise ValueError("delta must lie in (0, 1)")
    return qv, n


def _survival_counts(breakpoints: np.ndarray, lambda_grid) -> tuple[np.ndarray, np.ndarray]:
    """The thresholds, the grid plus the breakpoints (sorted, unique), and at
    each the number of breakpoints at or above it."""
    lambda_grid = np.asarray(lambda_grid, dtype=float)
    if lambda_grid.ndim != 1 or len(lambda_grid) == 0:
        raise ValueError("lambda_grid must be a nonempty vector")
    lams = np.unique(np.concatenate([lambda_grid, breakpoints]))
    counts = len(breakpoints) - np.searchsorted(np.sort(breakpoints), lams, side="left")
    return lams, counts


def mean_bound(qv, n, delta: float, *, include_slack: bool = True) -> CertifiedBound:
    """Certified upper bound on the population-average true risk."""
    qv, n = _validate(qv, n, delta)
    K = len(qv)
    if include_slack:
        meta = float(np.sqrt(np.log((K + 1) / delta) / (2 * K)))
        per_client = float(np.mean(np.sqrt(np.log((K + 1) / delta) / (2 * n))))
    else:
        meta = per_client = 0.0
    raw = float(np.mean(qv)) + meta + per_client
    return CertifiedBound(
        kind="mean",
        value=float(min(raw, 1.0)),
        raw_value=raw,
        slack={"meta": meta, "per_client": per_client},
        params={"K": K, "delta": delta, "include_slack": include_slack},
    )


def cdf_bound(qv, n, delta: float, lambda_grid, *, include_slack: bool = True) -> CdfCurve:
    """Certified upper bounds on the survival function of client risks,
    valid simultaneously at every threshold.

    Evaluated on the user grid plus the K breakpoints qv_k + shift_k where
    the indicator sum actually changes, so the returned step curve is exact
    between consecutive thresholds.
    """
    qv, n = _validate(qv, n, delta)
    K = len(qv)

    if include_slack:
        shifts = np.sqrt(np.log((K + 1) / delta) / (2 * n))
        meta = float(np.sqrt(np.log(2 * (K + 1) / delta) / (2 * K)))
    else:
        shifts = np.zeros(K)
        meta = 0.0
    lams, counts = _survival_counts(qv + shifts, lambda_grid)
    raw = counts / K + meta
    return CdfCurve(
        lambdas=lams,
        bounds=np.minimum(raw, 1.0),
        raw=raw,
        params={
            "kind": "cdf",
            "K": K,
            "delta": delta,
            "meta_slack": meta,
            "include_slack": include_slack,
        },
    )
