"""Shared certificate containers.

A CertifiedBound is a scalar guarantee plus enough metadata to audit it:
the raw (pre-clip) value, the individual slack terms, and the parameters the
guarantee was issued under.  A CdfCurve is the survival-function analogue,
one bound per threshold.
"""
from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = ["CertifiedBound", "CdfCurve"]


@dataclass
class CertifiedBound:
    kind: str
    value: float              # final certificate, clipped to [0, 1]
    raw_value: float          # before the clip
    slack: dict               # named additive slack terms
    params: dict              # delta, epsilon, K, ... as issued
    status: str = "optimal"
    extra: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "value": self.value,
            "raw_value": self.raw_value,
            "slack": self.slack,
            "params": self.params,
            "status": self.status,
            "extra": self.extra,
        }

    def write_json(self, path: str | Path):
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, sort_keys=True, indent=1)
            fh.write("\n")


@dataclass
class CdfCurve:
    """Upper bounds on the survival function lambda -> P(client risk >= lambda).

    ``bounds`` is the certificate; ``raw`` (when present) is the value it was
    built from, kept for diagnostics and plots: the non-robust band before
    its clip to 1, which ``fdiv-cdf`` passes through the divergence ball.
    """

    lambdas: np.ndarray
    bounds: np.ndarray
    raw: np.ndarray | None = None
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        self.lambdas = np.asarray(self.lambdas, dtype=float)
        self.bounds = np.asarray(self.bounds, dtype=float)
        if self.lambdas.shape != self.bounds.shape:
            raise ValueError("one bound per threshold required")
        if np.any(np.diff(self.lambdas) < 0):
            raise ValueError("thresholds must be sorted")
        if self.raw is not None:
            self.raw = np.asarray(self.raw, dtype=float)

    def at(self, lam: float) -> float:
        """Bound at an arbitrary threshold: step interpolation from the right
        (the curve is nonincreasing, so this is the safe direction)."""
        idx = np.searchsorted(self.lambdas, lam, side="right") - 1
        if idx < 0:
            return 1.0
        return float(self.bounds[idx])

    def to_json_dict(self) -> dict:
        out = {
            "lambdas": self.lambdas.tolist(),
            "bounds": self.bounds.tolist(),
            "params": self.params,
        }
        if self.raw is not None:
            out["raw"] = self.raw.tolist()
        return out

    def write_csv(self, path: str | Path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            header = ["lambda", "bound"] + (["raw"] if self.raw is not None else [])
            writer.writerow(header)
            for i in range(len(self.lambdas)):
                row = [f"{self.lambdas[i]:.17g}", f"{self.bounds[i]:.17g}"]
                if self.raw is not None:
                    row.append(f"{self.raw[i]:.17g}")
                writer.writerow(row)

    def write_json(self, path: str | Path):
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, sort_keys=True, indent=1)
            fh.write("\n")
