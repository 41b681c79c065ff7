"""Synthetic federated worlds.

A world is a meta-distribution over clients: drawing a client yields a local
data distribution (Gaussian class-conditional mixture, optionally perturbed by
a per-client affine feature shift and a Dirichlet label-proportion draw), and
each client then draws its own finite sample.

Worlds built from a finite set of *archetypes* (mixture components at the
meta level) additionally support exact, closed-form shifted targets: tilting
the archetype weights gives a target with known f-divergence from the source,
and translating archetype class means gives a target with known average
transport cost.  Those are the ground truths the verification oracles test
certificates against.

Determinism: all draws run through the counter-based Philox generator with
per-client derived seed streams, so a (config, K, n_k) triple reproduces the
same world byte-for-byte on any platform.
"""
from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .losses import Sample

__all__ = [
    "Archetype",
    "MetaConfig",
    "ClientSpec",
    "LocalDataset",
    "sample_clients",
    "generate_dataset",
    "shift_meta_fdiv",
    "tilt_divergence_limit",
    "tilt_for_divergence",
    "shift_meta_wass",
    "export_world",
    "load_world",
    "load_client_pool",
]

SHIFT_MODES = ("none", "feature", "label", "both")

# substream tags so client parameters and client data never share a stream
_SPEC_STREAM = 0
_DATA_STREAM = 1


@dataclass
class Archetype:
    """One meta-level mixture component: a complete client recipe."""

    class_means: np.ndarray          # (C, d)
    class_props: np.ndarray | None = None   # (C,), uniform when omitted
    score: float = 0.0               # exponential-tilt coordinate

    def __post_init__(self):
        self.class_means = np.atleast_2d(np.asarray(self.class_means, dtype=float))
        C = self.class_means.shape[0]
        if self.class_props is None:
            self.class_props = np.full(C, 1.0 / C)
        self.class_props = np.asarray(self.class_props, dtype=float)
        if len(self.class_props) != C or abs(self.class_props.sum() - 1.0) > 1e-9:
            raise ValueError("class proportions must sum to 1")
        if np.any(self.class_props < 0):
            raise ValueError("class proportions must be nonnegative")

    def to_json_dict(self) -> dict:
        return {
            "class_means": self.class_means.tolist(),
            "class_props": self.class_props.tolist(),
            "score": self.score,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "Archetype":
        return cls(
            class_means=np.asarray(d["class_means"], dtype=float),
            class_props=np.asarray(d["class_props"], dtype=float),
            score=float(d.get("score", 0.0)),
        )


@dataclass
class MetaConfig:
    """Full description of a meta-distribution over clients."""

    dim: int
    n_classes: int
    class_means: np.ndarray                  # (C, d) base means
    cov_scale: float = 1.0                   # isotropic class-conditional stddev
    sigma_affine: float = 0.05               # stddev of per-client affine entries
    sigma_shift: float = 0.1                 # stddev of per-client translation entries
    alpha_dir: float = 0.4                   # Dirichlet concentration for label shift
    shift_mode: str = "none"
    seed: int = 0
    archetypes: list[Archetype] | None = None
    archetype_weights: np.ndarray | None = None

    def __post_init__(self):
        if self.shift_mode not in SHIFT_MODES:
            raise ValueError(f"shift_mode must be one of {SHIFT_MODES}")
        self.class_means = np.atleast_2d(np.asarray(self.class_means, dtype=float))
        if self.class_means.shape != (self.n_classes, self.dim):
            raise ValueError("class_means must be (n_classes, dim)")
        if self.cov_scale <= 0:
            raise ValueError("cov_scale must be positive")
        if self.archetypes is not None:
            if self.archetype_weights is None:
                self.archetype_weights = np.full(
                    len(self.archetypes), 1.0 / len(self.archetypes)
                )
            self.archetype_weights = np.asarray(self.archetype_weights, dtype=float)
            if len(self.archetype_weights) != len(self.archetypes):
                raise ValueError("one weight per archetype required")
            if np.any(self.archetype_weights < 0):
                raise ValueError("archetype weights must be nonnegative")
            total = self.archetype_weights.sum()
            if abs(total - 1.0) > 1e-12:
                self.archetype_weights = self.archetype_weights / total
            for a in self.archetypes:
                if a.class_means.shape != (self.n_classes, self.dim):
                    raise ValueError("archetype means must match (n_classes, dim)")

    def to_json_dict(self) -> dict:
        out = {
            "dim": self.dim,
            "n_classes": self.n_classes,
            "class_means": self.class_means.tolist(),
            "cov_scale": self.cov_scale,
            "sigma_affine": self.sigma_affine,
            "sigma_shift": self.sigma_shift,
            "alpha_dir": self.alpha_dir,
            "shift_mode": self.shift_mode,
            "seed": self.seed,
        }
        if self.archetypes is not None:
            out["archetypes"] = [a.to_json_dict() for a in self.archetypes]
            out["archetype_weights"] = self.archetype_weights.tolist()
        return out

    @classmethod
    def from_json_dict(cls, d: dict) -> "MetaConfig":
        arche = None
        if "archetypes" in d:
            arche = [Archetype.from_json_dict(a) for a in d["archetypes"]]
        return cls(
            dim=int(d["dim"]),
            n_classes=int(d["n_classes"]),
            class_means=np.asarray(d["class_means"], dtype=float),
            cov_scale=float(d.get("cov_scale", 1.0)),
            sigma_affine=float(d.get("sigma_affine", 0.05)),
            sigma_shift=float(d.get("sigma_shift", 0.1)),
            alpha_dir=float(d.get("alpha_dir", 0.4)),
            shift_mode=d.get("shift_mode", "none"),
            seed=int(d.get("seed", 0)),
            archetypes=arche,
            archetype_weights=np.asarray(d["archetype_weights"], dtype=float)
            if "archetype_weights" in d
            else None,
        )

    def digest(self) -> str:
        return hashlib.sha1(
            json.dumps(self.to_json_dict(), sort_keys=True).encode()
        ).hexdigest()


@dataclass
class ClientSpec:
    """Resolved parameters of one sampled client distribution."""

    client_id: int
    affine: np.ndarray        # (d, d) additive part; features map x -> (I+A)x + b
    shift: np.ndarray         # (d,)
    class_props: np.ndarray   # (C,)
    class_means: np.ndarray   # (C, d)
    archetype: int = -1
    seed_entropy: int = 0     # root seed this spec was derived from

    def __post_init__(self):
        if np.any(np.asarray(self.class_props) < 0):
            raise ValueError("class proportions must be nonnegative")

    def to_json_dict(self) -> dict:
        return {
            "client_id": self.client_id,
            "affine": self.affine.tolist(),
            "shift": self.shift.tolist(),
            "class_props": self.class_props.tolist(),
            "class_means": self.class_means.tolist(),
            "archetype": self.archetype,
            "seed_entropy": self.seed_entropy,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "ClientSpec":
        return cls(
            client_id=int(d["client_id"]),
            affine=np.asarray(d["affine"], dtype=float),
            shift=np.asarray(d["shift"], dtype=float),
            class_props=np.asarray(d["class_props"], dtype=float),
            class_means=np.asarray(d["class_means"], dtype=float),
            archetype=int(d.get("archetype", -1)),
            seed_entropy=int(d.get("seed_entropy", 0)),
        )


@dataclass
class LocalDataset:
    """A client's private sample; stays on the client side of the API."""

    client_id: int
    features: np.ndarray   # (n, d)
    labels: np.ndarray     # (n,)

    def __post_init__(self):
        self.features = np.atleast_2d(np.asarray(self.features, dtype=float))
        self.labels = np.asarray(self.labels)
        if len(self.labels) != len(self.features):
            raise ValueError("feature/label counts differ")
        if len(self.features) == 0:
            raise ValueError("empty dataset")

    def __len__(self) -> int:
        return len(self.features)

    def __iter__(self):
        for x, y in zip(self.features, self.labels):
            yield Sample(features=x, label=float(y))


def _categorical(rng: np.random.Generator, p: np.ndarray, size=None):
    """Draws of ``rng.choice(len(p), size, p=p)`` and the same stream state
    after them (one uniform per draw through the normalized cumulative sum),
    without ``choice``'s checks of ``p``; the callers' probabilities are
    validated where they are made."""
    cdf = np.cumsum(p)
    cdf /= cdf[-1]
    return cdf.searchsorted(rng.random(size), side="right")


def _client_rng(seed: int, client_id: int, stream: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence([int(seed), int(client_id), stream]))
    )


def sample_clients(cfg: MetaConfig, K: int, seed: int | None = None) -> list[ClientSpec]:
    """Draw K independent clients from the meta-distribution.

    Per-client seed streams are derived from (seed, client_id), so the k-th
    client is identical no matter how many others are drawn alongside it.
    """
    if K <= 0:
        raise ValueError("K must be positive")
    root = cfg.seed if seed is None else int(seed)
    d, C = cfg.dim, cfg.n_classes
    specs = []
    for k in range(K):
        rng = _client_rng(root, k, _SPEC_STREAM)
        if cfg.archetypes is not None:
            arche_idx = int(_categorical(rng, cfg.archetype_weights))
            means = cfg.archetypes[arche_idx].class_means
            base_props = cfg.archetypes[arche_idx].class_props
        else:
            arche_idx = -1
            means = cfg.class_means
            base_props = np.full(C, 1.0 / C)
        if cfg.shift_mode in ("feature", "both"):
            affine = rng.normal(0.0, cfg.sigma_affine, size=(d, d))
            shift = rng.normal(0.0, cfg.sigma_shift, size=d)
        else:
            affine = np.zeros((d, d))
            shift = np.zeros(d)
        if cfg.shift_mode in ("label", "both"):
            props = rng.dirichlet(cfg.alpha_dir * C * base_props)
        else:
            props = base_props.copy()
        specs.append(
            ClientSpec(
                client_id=k,
                affine=affine,
                shift=shift,
                class_props=props,
                class_means=means.copy(),
                archetype=arche_idx,
                seed_entropy=root,
            )
        )
    return specs


def generate_dataset(spec: ClientSpec, n_k: int, cfg: MetaConfig) -> LocalDataset:
    """Draw the client's local sample: y ~ props, x ~ N(mean_y, scale^2 I),
    then the client's affine feature map (I + A)x + b."""
    if n_k <= 0:
        raise ValueError("n_k must be positive")
    rng = _client_rng(spec.seed_entropy, spec.client_id, _DATA_STREAM)
    labels = _categorical(rng, spec.class_props, n_k)
    X = spec.class_means[labels] + cfg.cov_scale * rng.standard_normal((n_k, cfg.dim))
    X = X @ (np.eye(cfg.dim) + spec.affine).T + spec.shift
    return LocalDataset(client_id=spec.client_id, features=X, labels=labels)


# ---------------------------------------------------------------------------
# shifted targets with known ground truth
# ---------------------------------------------------------------------------

def _require_archetypes(cfg: MetaConfig, what: str):
    if cfg.archetypes is None:
        raise ValueError(f"{what} needs a config built from archetypes")


def archetype_divergences(cfg: MetaConfig, shifted: MetaConfig) -> dict:
    """Exact f-divergences between two archetype mixtures that differ only in
    their weights: D_f(target || source) = sum_m w_m f(w'_m / w_m)."""
    _require_archetypes(cfg, "divergence computation")
    w = cfg.archetype_weights
    wp = shifted.archetype_weights
    if np.any((w == 0) & (wp > 0)):
        raise ValueError("target puts weight on an archetype the source excludes")
    pos = wp > 0
    kl = float(np.sum(wp[pos] * np.log(wp[pos] / w[pos])))
    chi2 = float(np.sum(w * (np.divide(wp, w, out=np.zeros_like(wp), where=w > 0) - 1.0) ** 2))
    return {"kl": kl, "chi-square": chi2}


def shift_meta_fdiv(cfg: MetaConfig, tilt: float) -> tuple[MetaConfig, dict]:
    """Exponentially tilt the archetype weights: w'_m prop. to w_m e^{tilt s_m}.

    Returns the shifted config plus the achieved KL and chi-square divergence
    of target from source, both exact.
    """
    _require_archetypes(cfg, "shift_meta_fdiv")
    w = cfg.archetype_weights
    s = np.array([a.score for a in cfg.archetypes], dtype=float)
    logits = np.log(np.clip(w, 1e-300, None)) + tilt * s
    logits -= logits.max()
    wp = np.exp(logits)
    wp /= wp.sum()
    if tilt == 0.0:
        wp = w.copy()  # exact identity, no float wiggle
    shifted = MetaConfig.from_json_dict(cfg.to_json_dict())
    shifted.archetype_weights = wp
    return shifted, archetype_divergences(cfg, shifted)


def tilt_divergence_limit(cfg: MetaConfig, name: str) -> float:
    """Supremum of the ``name`` divergence over nonnegative tilts, approached
    but never reached.

    As the tilt grows, all mass piles onto the top-score archetypes (of
    positive weight), of total source weight w_top, so the divergence rises
    to -log w_top for KL and 1/w_top - 1 for chi-square; 0 when every
    archetype shares one score.
    """
    _require_archetypes(cfg, "tilt_divergence_limit")
    w = cfg.archetype_weights
    scores = np.array([a.score for a in cfg.archetypes], dtype=float)
    pos = w > 0
    w_top = float(np.sum(w[pos & (scores == scores[pos].max())]))
    if name == "kl":
        return -float(np.log(w_top))
    if name == "chi-square":
        return 1.0 / w_top - 1.0
    raise ValueError("name must be 'kl' or 'chi-square'")


def tilt_for_divergence(cfg: MetaConfig, name: str, epsilon: float) -> float:
    """Find the tilt whose achieved divergence equals ``epsilon`` (bisection;
    the divergence grows monotonically with nonnegative tilt).  A budget at or
    above ``tilt_divergence_limit`` is rejected."""
    if name not in ("kl", "chi-square"):
        raise ValueError("name must be 'kl' or 'chi-square'")
    if epsilon < 0:
        raise ValueError("epsilon must be nonnegative")
    if epsilon == 0:
        return 0.0
    limit = tilt_divergence_limit(cfg, name)
    if epsilon >= limit:
        raise ValueError(f"{name} budget {epsilon:g} unreachable by tilting: the "
                         f"divergence of every tilt stays below {limit:.6g}")

    def achieved(t):
        return shift_meta_fdiv(cfg, t)[1][name]

    hi = 1.0
    for _ in range(200):
        if achieved(hi) >= epsilon:
            break
        hi *= 2.0
    else:
        raise ValueError("divergence budget unreachable by tilting")
    lo = 0.0
    while hi - lo > 1e-12 * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if achieved(mid) >= epsilon:
            hi = mid
        else:
            lo = mid
    return hi


def shift_meta_wass(
    cfg: MetaConfig,
    budget: float,
    directions: np.ndarray | None = None,
    cost_kind: str = "half-squared-l2",
    radii: np.ndarray | None = None,
) -> tuple[MetaConfig, float]:
    """Translate class means so the weighted average per-client transport
    cost stays within ``budget``.

    Archetype m's class means move by L2 norm r_m along per-archetype
    per-class unit ``directions`` of shape (M, C, d) (default: first axis).
    ``radii`` sets the per-archetype norms explicitly; when omitted a single
    shared norm is solved from cost(r) = budget, spending the budget exactly.
    Pairing each client with its translated self moves every sample by
    exactly r_m, so the reported weighted cost sum_m w_m cost(r_m) is an
    upper bound on the true transport distance between the two
    meta-distributions.
    """
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    if cost_kind == "half-squared-l2":
        def cost_of(r):
            return 0.5 * r * r
    elif cost_kind == "l2":
        def cost_of(r):
            return r
    else:
        raise ValueError(f"unknown cost kind {cost_kind!r}")

    shifted = MetaConfig.from_json_dict(cfg.to_json_dict())
    if cfg.archetypes is None:
        groups = [(1.0, shifted.class_means)]
        M = 1
    else:
        groups = [
            (float(w), a.class_means)
            for w, a in zip(shifted.archetype_weights, shifted.archetypes)
        ]
        M = len(groups)
    C, d = cfg.n_classes, cfg.dim

    if radii is None:
        r = np.sqrt(2.0 * budget) if cost_kind == "half-squared-l2" else budget
        radii = np.full(M, float(r))
    else:
        radii = np.asarray(radii, dtype=float)
        if radii.shape != (M,):
            raise ValueError(f"radii must have shape ({M},)")
        if np.any(radii < 0):
            raise ValueError("radii must be nonnegative")
        total = sum(w * cost_of(r) for (w, _), r in zip(groups, radii))
        if total > budget + 1e-12:
            raise ValueError("requested radii exceed the transport budget")

    if directions is None:
        directions = np.zeros((M, C, d))
        directions[:, :, 0] = 1.0
    directions = np.asarray(directions, dtype=float)
    if directions.shape != (M, C, d):
        raise ValueError(f"directions must have shape {(M, C, d)}")
    norms = np.linalg.norm(directions, axis=2)
    if np.any(np.abs(norms - 1.0) > 1e-9):
        raise ValueError("directions must be unit vectors")

    achieved = 0.0
    for (w, means), dirs, r in zip(groups, directions, radii):
        means += r * dirs
        achieved += w * cost_of(r)
    return shifted, float(achieved)


# ---------------------------------------------------------------------------
# worlds on disk
# ---------------------------------------------------------------------------

_FORMAT_VERSION = 1


def export_world(path: str | Path, cfg: MetaConfig, specs: list[ClientSpec],
                 datasets: list[LocalDataset]) -> Path:
    """Write one CSV per client plus a manifest tying the world together."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    entries = []
    for spec, ds in zip(specs, datasets):
        fname = f"client_{spec.client_id:04d}.csv"
        with open(path / fname, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([f"f{j}" for j in range(cfg.dim)] + ["label"])
            for x, y in zip(ds.features, ds.labels):
                writer.writerow([f"{v:.17g}" for v in x] + [f"{y:.17g}" if isinstance(y, float) else int(y)])
        entries.append({"file": fname, "n": len(ds), "spec": spec.to_json_dict()})
    manifest = {
        "format_version": _FORMAT_VERSION,
        "config": cfg.to_json_dict(),
        "config_digest": cfg.digest(),
        "K": len(specs),
        "clients": entries,
    }
    with open(path / "manifest.json", "w") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=1)
        fh.write("\n")
    return path / "manifest.json"


def load_world(path: str | Path) -> tuple[MetaConfig, list[ClientSpec], list[LocalDataset]]:
    path = Path(path)
    with open(path / "manifest.json") as fh:
        manifest = json.load(fh)
    if manifest.get("format_version") != _FORMAT_VERSION:
        raise ValueError("unrecognized world format version")
    cfg = MetaConfig.from_json_dict(manifest["config"])
    specs, datasets = [], []
    for entry in manifest["clients"]:
        spec = ClientSpec.from_json_dict(entry["spec"])
        specs.append(spec)
        datasets.append(_read_client_csv(path / entry["file"], spec.client_id, cfg.dim))
    return cfg, specs, datasets


def _read_client_csv(fpath: Path, client_id: int, dim: int) -> LocalDataset:
    rows = np.genfromtxt(fpath, delimiter=",", skip_header=1, ndmin=2)
    if rows.shape[1] != dim + 1:
        raise ValueError(f"{fpath}: expected {dim} feature columns plus a label")
    return LocalDataset(client_id=client_id, features=rows[:, :dim], labels=rows[:, dim])


def load_client_pool(csv_paths: list[str | Path], dim: int) -> list[LocalDataset]:
    """Ingest external per-client CSVs (f0..fD,label header) as a fixed pool."""
    return [
        _read_client_csv(Path(p), k, dim) for k, p in enumerate(csv_paths)
    ]
