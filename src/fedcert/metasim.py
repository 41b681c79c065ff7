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
same world byte-for-byte on any platform.  Client k of root seed s draws its
parameters from Philox(SeedSequence([s, k, 0])) and its data from
Philox(SeedSequence([s, k, 1])).  The keys of both streams are derived for
all clients in one array pass that replays SeedSequence's hash-mix
(``_philox_keys``), and one Philox per call is reset onto each key in turn,
so no SeedSequence or Generator is built per client.

The draw is columnar: ``draw_world`` writes every client's parameters and
samples straight into arrays (a ``DrawnWorld``), and builds no per-client
object.  Each loop over clients keeps only the Philox reset and the raw
draws; the archetype is a ``bisect`` on the weights' cumulative sums, and
the Dirichlet proportions are built from scalar ``standard_gamma`` draws
exactly as ``Generator.dirichlet``'s gamma branch builds them (a row whose
largest alpha is below 0.1 still calls ``dirichlet``, which breaks sticks
there).  The labels and the feature arithmetic then run a block of clients
at a time (``_draw_samples``).  ``draw_sample_rows`` is the same draw for
many roots, one key pass over all of them, handing out the sample blocks
without keeping them; ``draw_world`` is its one-root case, written into
columns.  ``sample_clients``, ``generate_datasets`` and
``generate_dataset`` are object views of the same draw.  The tests pin the
keys to SeedSequence, the Dirichlet rows to ``Generator.dirichlet`` and the
drawn worlds to a per-client reference, value for value.
"""
from __future__ import annotations

import csv
import functools
import hashlib
import json
import numbers
from bisect import bisect_right
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .certificates import write_json
from .losses import FieldError, _float_array

__all__ = [
    "Archetype",
    "MetaConfig",
    "WorldFieldError",
    "ClientSpec",
    "LocalDataset",
    "DrawnWorld",
    "draw_world",
    "draw_sample_rows",
    "sample_clients",
    "generate_dataset",
    "generate_datasets",
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
        self.class_means = np.atleast_2d(_float_array("class_means", self.class_means))
        C = self.class_means.shape[0]
        if self.class_props is None:
            self.class_props = np.full(C, 1.0 / C)
        self.class_props = _float_array("class_props", self.class_props)
        if self.class_props.shape != (C,) or not abs(self.class_props.sum() - 1.0) <= 1e-9:
            raise FieldError("class_props", "must sum to 1, one entry per class")
        if np.any(self.class_props < 0):
            raise FieldError("class_props", "must be nonnegative")
        try:
            self.score = float(self.score)
        except (TypeError, ValueError) as exc:
            raise FieldError("score", f"must be one number: {exc}") from exc
        if not np.isfinite(self.score):
            raise FieldError("score", "must be finite")

    def to_json_dict(self) -> dict:
        return {
            "class_means": self.class_means.tolist(),
            "class_props": self.class_props.tolist(),
            "score": self.score,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "Archetype":
        if "class_means" not in d:
            raise FieldError("class_means", "is required")
        return cls(class_means=d["class_means"], class_props=d.get("class_props"),
                   score=d.get("score", 0.0))


# the name ``MetaConfig``'s field errors were first exported under
WorldFieldError = FieldError


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
            raise FieldError("class_means", "must be (n_classes, dim)")
        # numpy draws no Dirichlet at alpha 0 and no normal at a negative
        # scale; an infinite one fills the world with NaN
        if not 0 < self.cov_scale < np.inf:
            raise FieldError("cov_scale", "must be positive and finite")
        if not 0 < self.alpha_dir < np.inf:
            raise FieldError("alpha_dir", "must be positive and finite")
        for name in ("sigma_affine", "sigma_shift"):
            if not 0 <= getattr(self, name) < np.inf:
                raise FieldError(name, "must be nonnegative and finite")
        if self.archetypes is not None:
            if self.archetype_weights is None:
                self.archetype_weights = np.full(
                    len(self.archetypes), 1.0 / len(self.archetypes)
                )
            self.archetype_weights = np.asarray(self.archetype_weights, dtype=float)
            if len(self.archetype_weights) != len(self.archetypes):
                raise FieldError("archetype_weights", "needs one weight per archetype")
            if np.any(self.archetype_weights < 0):
                raise FieldError("archetype_weights", "must be nonnegative")
            total = self.archetype_weights.sum()
            if not 0 < total < np.inf:
                raise FieldError("archetype_weights", "must have a positive, finite sum")
            if abs(total - 1.0) > 1e-12:
                self.archetype_weights = self.archetype_weights / total
            for i, a in enumerate(self.archetypes):
                if a.class_means.shape != (self.n_classes, self.dim):
                    raise FieldError(f"archetypes[{i}].class_means",
                                     "must match (n_classes, dim)")

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
            arche = []
            for i, a in enumerate(d["archetypes"]):
                try:
                    arche.append(Archetype.from_json_dict(a))
                except FieldError as exc:
                    raise FieldError(f"archetypes[{i}].{exc.field}", exc.problem) from exc
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
        if (np.asarray(self.class_props) < 0).any():
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
    """A client's private sample; stays on the client side of the API.

    A dataset of a ``DrawnWorld`` is a row view (``row_view``): its features
    and labels are row ``client_id`` of the world's drawn columns
    ``_columns``, which blocks of consecutive rows read in place."""

    client_id: int
    features: np.ndarray   # (n, d)
    labels: np.ndarray     # (n,)

    # the (features (K, n, d), labels (K, n)) columns a row view reads; None
    # for a standalone dataset
    _columns = None

    @classmethod
    def row_view(cls, columns: tuple[np.ndarray, np.ndarray], row: int) -> "LocalDataset":
        """Row ``row`` of the drawn ``columns``, as client ``row``.  The
        columns were checked when they were drawn, so the view skips
        ``__post_init__``."""
        ds = cls.__new__(cls)
        ds.client_id, ds.features, ds.labels = row, columns[0][row], columns[1][row]
        ds._columns = columns
        return ds

    def __post_init__(self):
        self.features = np.atleast_2d(np.asarray(self.features, dtype=float))
        self.labels = np.asarray(self.labels)
        if len(self.labels) != len(self.features):
            raise ValueError("feature/label counts differ")
        if len(self.features) == 0:
            raise ValueError("empty dataset")

    def __len__(self) -> int:
        return len(self.features)


def _choice_cdf(p: np.ndarray) -> np.ndarray:
    """The normalized cumulative sums of the rows of ``p`` that
    ``Generator.choice`` draws its categories through."""
    cdf = np.cumsum(p, axis=-1)
    return cdf / cdf[..., -1:]


def _categorical(cdf: np.ndarray, u) -> np.ndarray:
    """The categories ``rng.choice(len(p), size, p=p)`` draws from the
    uniforms ``u = rng.random(size)`` it takes, one per draw: the count of
    ``cdf = _choice_cdf(p)`` entries at or below each uniform, which is
    ``cdf.searchsorted(u, side="right")``.  ``cdf`` broadcasts against
    ``u[..., None]``, so one call serves a block of clients; the count runs
    one comparison per category.  The last entry is 1 exactly and every
    uniform lies below it, so it is never counted.  Unlike ``choice`` it
    does not check ``p``; the callers' probabilities are validated where
    they are made."""
    u = np.asarray(u)
    picks = np.zeros(np.broadcast_shapes(u.shape, cdf.shape[:-1]), dtype=np.intp)
    for c in range(cdf.shape[-1] - 1):
        picks += u >= cdf[..., c]
    return picks


# numpy's SeedSequence hash-mix (numpy/random/bit_generator.pyx), kept on
# uint32 words: its pool size and constants
_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _uint32_words(n: int) -> list[int]:
    """``n`` as SeedSequence reads an entropy integer: little-endian uint32
    words, one word for 0."""
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _philox_keys(roots, client_ids, stream) -> np.ndarray:
    """The Philox key of ``Philox(SeedSequence([root, k, stream]))`` for every
    client id ``k``, shape (len(client_ids), 2) uint64, in one array pass.
    ``roots`` is one root for every id or a sequence of roots aligned with
    the ids, as Python ints: a numpy array of roots on both sides of 2**63
    would turn to float64.  ``stream`` is one tag for every id, or an array
    of tags aligned with the ids, so one pass can derive several streams'
    keys.

    This replays SeedSequence on the entropy words [root..., k, stream]:
    hash each word into a pool of four (hashing zeros when the entropy is
    shorter), mix every pool word into every other, mix in the entropy past
    the pool (a root of three or more words), then hash the pool into the four
    uint32 words of ``generate_state(2, np.uint64)``.  The hash constants
    evolve the same way for every entropy of one length, so the rows whose
    roots take the same number of uint32 words ride along as one array.
    Ids and stream tags must each fit one uint32 word."""
    ids, streams = np.broadcast_arrays(np.asarray(client_ids, dtype=np.int64),
                                       np.asarray(stream, dtype=np.int64))
    if np.any(ids < 0) or np.any(ids > _MASK32):
        raise ValueError("client ids must lie in [0, 2**32)")
    if np.any(streams < 0) or np.any(streams > _MASK32):
        raise ValueError("stream tags must lie in [0, 2**32)")
    tail = [ids.astype(np.uint32), streams.astype(np.uint32)]
    if isinstance(roots, numbers.Integral):
        words = _uint32_words(int(roots))
        return _seed_sequence_keys([np.full_like(tail[0], w) for w in words] + tail)
    roots = list(roots)
    if len(roots) != len(ids):
        raise ValueError("roots must be one root or one per client id")
    words = {r: _uint32_words(int(r)) for r in dict.fromkeys(roots)}
    by_width = {}
    for i, r in enumerate(roots):
        by_width.setdefault(len(words[r]), []).append(i)
    keys = np.empty((len(ids), 2), dtype=np.uint64)
    for rows in by_width.values():
        columns = np.array([words[roots[i]] for i in rows], dtype=np.uint32)
        keys[rows] = _seed_sequence_keys(list(columns.T) + [t[rows] for t in tail])
    return keys


def _seed_sequence_keys(entropy: list[np.ndarray]) -> np.ndarray:
    """``generate_state(2, np.uint64)`` of a SeedSequence on each row of the
    uint32 entropy columns ``entropy``: ``_philox_keys``' hash-mix."""
    def hasher(hash_const, mult):
        def hashmix(value):
            nonlocal hash_const
            value = value ^ np.uint32(hash_const)
            hash_const = (hash_const * mult) & _MASK32
            value = value * np.uint32(hash_const)
            return value ^ (value >> np.uint32(16))
        return hashmix

    def mix(x, y):
        result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return result ^ (result >> np.uint32(16))

    hashmix = hasher(_INIT_A, _MULT_A)
    pool = [hashmix(entropy[i] if i < len(entropy) else np.zeros_like(entropy[0]))
            for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for extra in entropy[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(extra))
    state = [w.astype(np.uint64) for w in map(hasher(_INIT_B, _MULT_B), pool)]
    return np.stack([state[0] | state[1] << np.uint64(32),
                     state[2] | state[3] << np.uint64(32)], axis=-1)


def _client_streams(keys: np.ndarray):
    """Yield a generator in the state of ``Generator(Philox(key=key))`` for
    each key in turn: one Philox, reset onto each key (counter 0, empty
    buffer).  Each yielded generator is the same object, valid until the next
    is requested, so draw a client's numbers before moving on.  It is local
    to the call: trials on other threads draw through their own."""
    bit_gen = np.random.Philox(0)
    rng = np.random.Generator(bit_gen)
    # the setter copies the values in, so one dict serves every key
    fresh = {"bit_generator": "Philox",
             "state": {"counter": np.zeros(4, dtype=np.uint64), "key": None},
             "buffer": np.zeros(4, dtype=np.uint64),
             "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    for key in keys:
        fresh["state"]["key"] = key
        bit_gen.state = fresh
        yield rng


def _dirichlet(rng: np.random.Generator, alphas: list[float]) -> list[float]:
    """``rng.dirichlet(alphas)``, value for value, for alphas whose largest is
    at least 0.1: numpy's gamma branch, one ``standard_gamma`` per alpha,
    summed in order and scaled by the reciprocal of the sum.  Scalar calls
    cost about a third of the ``dirichlet`` call, which checks and allocates.
    Below 0.1 numpy breaks sticks with beta draws instead, so those rows
    still call ``rng.dirichlet``."""
    gammas = [rng.standard_gamma(a) for a in alphas]
    acc = 0.0
    for g in gammas:   # not sum(), which compensates on Python 3.12+
        acc += g
    inv = 1.0 / acc
    return [g * inv for g in gammas]


@dataclass
class DrawnWorld:
    """K clients drawn from a world, as columns: row k of every array is
    client k, drawn under the root seed ``seed_entropy``."""

    seed_entropy: int
    affine: np.ndarray        # (K, d, d) additive parts of the feature maps
    shift: np.ndarray         # (K, d)
    class_props: np.ndarray   # (K, C)
    class_means: np.ndarray   # (K, C, d)
    archetype: np.ndarray     # (K,), -1 for a world without archetypes
    features: np.ndarray      # (K, n_k, d)
    labels: np.ndarray        # (K, n_k)

    def specs(self) -> list[ClientSpec]:
        return [ClientSpec(client_id=k, affine=a, shift=s, class_props=p, class_means=m,
                           archetype=arche, seed_entropy=self.seed_entropy)
                for k, (a, s, p, m, arche) in enumerate(zip(
                    self.affine, self.shift, self.class_props, self.class_means,
                    self.archetype.tolist()))]

    def datasets(self) -> list[LocalDataset]:
        """Client k's sample as row view k of the columns (n_k >= 1)."""
        if self.features.shape[1] == 0:
            raise ValueError("empty dataset")
        columns = (self.features, self.labels)
        return [LocalDataset.row_view(columns, k) for k in range(len(self.labels))]


def draw_world(cfg: MetaConfig, K: int, n_k: int, seed: int | None = None) -> DrawnWorld:
    """Draw K independent clients from the meta-distribution, and n_k samples
    for each (none at n_k = 0), straight into columns.

    Client k draws its parameters from Philox(SeedSequence([seed, k, 0])),
    so the k-th client is identical no matter how many others are drawn
    alongside it.  In that stream it takes, in order: one uniform for the
    archetype, the normals of its affine map and translation, then its
    Dirichlet label proportions.  Its sample comes from
    Philox(SeedSequence([seed, k, 1])), as ``generate_datasets`` draws it.
    This is the one-root case of ``draw_sample_rows``: the same key pass,
    parameter loop and sample blocks, with the blocks written into the
    world's arrays.
    """
    if K <= 0:
        raise ValueError("K must be positive")
    if n_k < 0:
        raise ValueError("n_k must be nonnegative")
    root = cfg.seed if seed is None else int(seed)
    (affine, shift, props, means, arche), data_keys = _client_rows(cfg, [root], K, n_k)
    X, labels = _sample_into(data_keys, props, means, affine, shift, n_k, cfg)
    return DrawnWorld(seed_entropy=root, affine=affine, shift=shift, class_props=props,
                      class_means=means, archetype=arche, features=X, labels=labels)


# clients whose parameters one pass of ``draw_sample_rows`` holds at once
_PASS_CLIENTS = 512


def draw_sample_rows(cfg: MetaConfig, roots: list[int], K: int, n_k: int):
    """Yield ``(rows, features, labels)`` blocks of the samples of K clients
    drawn under each root in ``roots`` (Python ints): the samples of
    ``draw_world(cfg, K, n_k, root)`` for every root, value for value.  Row
    r of the pass is client r % K of root ``roots[r // K]``; ``rows`` is the
    slice of rows a block holds, ``features`` (B, n_k, d) and ``labels``
    (B, n_k) its samples.

    The parameters are drawn for about ``_PASS_CLIENTS`` rows at a time
    (whole roots, at least one), with one key pass each, and the blocks of a
    pass reuse one buffer: a block is valid until the next is requested, and
    memory does not grow with the number of roots."""
    if K <= 0 or n_k <= 0:
        raise ValueError("K and n_k must be positive")
    roots = [int(r) for r in roots]
    per_pass = max(1, _PASS_CLIENTS // K)
    for first in range(0, len(roots), per_pass):
        (affine, shift, props, means, _), data_keys = _client_rows(
            cfg, roots[first:first + per_pass], K, n_k)
        offset = first * K
        for rows, X, labels in _draw_samples(data_keys, props, means, affine, shift, n_k, cfg):
            yield slice(offset + rows.start, offset + rows.stop), X, labels


def _client_rows(cfg: MetaConfig, roots: list[int], K: int, n_k: int):
    """The parameters (``_draw_params``) of K clients under each root,
    stacked root by root, and the keys of their data streams (none at
    n_k = 0), from one ``_philox_keys`` pass over both streams."""
    streams = [_SPEC_STREAM] + ([_DATA_STREAM] if n_k else [])
    rows = K * len(roots)
    if len(roots) > 1:
        roots = [r for r in roots for _ in range(K)] * len(streams)
    keys = _philox_keys(roots[0] if len(roots) == 1 else roots,
                        np.tile(np.arange(K), rows // K * len(streams)),
                        np.repeat(streams, rows))
    return _draw_params(cfg, keys[:rows]), keys[rows:]


def _draw_params(cfg: MetaConfig, keys: np.ndarray):
    """Each client's affine map, translation, label proportions, class means
    and archetype, from its parameter stream's key."""
    K, d, C = len(keys), cfg.dim, cfg.n_classes
    feature = cfg.shift_mode in ("feature", "both")
    label = cfg.shift_mode in ("label", "both")
    if cfg.archetypes is not None:
        # bisect_right on the list is cdf.searchsorted(u, side="right")
        arche_cdf = _choice_cdf(cfg.archetype_weights).tolist()
        all_means = np.stack([a.class_means for a in cfg.archetypes])
        all_props = np.stack([a.class_props for a in cfg.archetypes])
    else:
        arche_cdf = None
        all_means = cfg.class_means[None]
        all_props = np.full((1, C), 1.0 / C)
    alphas = cfg.alpha_dir * C * all_props
    alpha_rows = alphas.tolist()
    sticks = [max(row) < 0.1 for row in alpha_rows]

    picks, rows = [], []
    z = np.zeros((K, d * d + d))
    for k, rng in enumerate(_client_streams(keys)):
        m = 0
        if arche_cdf is not None:
            m = bisect_right(arche_cdf, rng.random())
            picks.append(m)
        if feature:
            rng.standard_normal(out=z[k])
        if label:
            rows.append(rng.dirichlet(alphas[m]) if sticks[m]
                        else _dirichlet(rng, alpha_rows[m]))

    arche = np.array(picks) if arche_cdf is not None else np.full(K, -1)
    # Generator.normal(0, sigma) is 0 + sigma * (a standard normal)
    affine = (0.0 + cfg.sigma_affine * z[:, :d * d]).reshape(K, d, d)
    shift = 0.0 + cfg.sigma_shift * z[:, d * d:]
    means = all_means[np.maximum(arche, 0)]
    props = np.array(rows, dtype=float) if label else all_props[np.maximum(arche, 0)]
    return affine, shift, props, means, arche


# bytes of features a block of clients draws at once; bounds the temporaries
# of the block's arithmetic
_BLOCK_BYTES = 1 << 16


def _draw_samples(keys, props, means, affine, shift, n_k: int, cfg: MetaConfig, out=None):
    """Yield ``(rows, features, labels)`` per block of clients: the n_k
    samples of each client, from its data stream's key, as features (B, n_k,
    d) and labels (B, n_k).  A block is about ``_BLOCK_BYTES`` of features,
    written into the rows of ``out = (features, labels)`` when given, else
    into one buffer reused for every block (valid until the next block).

    Client by client, the stream's n_k uniforms go into a block buffer and
    its normals straight into the features; the labels and the feature
    arithmetic then run on the block, in place."""
    K, d = len(keys), cfg.dim
    C = means.shape[1]
    step = max(1, _BLOCK_BYTES // (8 * n_k * d))
    reuse = out is None
    if reuse:
        out = np.empty((min(step, K), n_k, d)), np.empty((min(step, K), n_k), dtype=np.intp)
    u = np.empty((min(step, K), n_k))
    streams = _client_streams(keys)
    eye = np.eye(d)
    for start in range(0, K, step):
        block = slice(start, min(start + step, K))
        B = block.stop - start
        Xb, lb = (o[:B] if reuse else o[block] for o in out)
        for b, rng in zip(range(B), streams):
            rng.random(out=u[b])
            rng.standard_normal(out=Xb[b])
        lb[...] = _categorical(_choice_cdf(props[block])[:, None, :], u[:B])
        # in place, to keep the block's temporaries few; a + b is b + a
        # exactly.  Client b's class means are rows b * C + label of the
        # block's means, taken as one flat ``take``
        Xb *= cfg.cov_scale
        Xb += np.take(means[block].reshape(B * C, d), lb + C * np.arange(B)[:, None], axis=0)
        Xb[...] = Xb @ (eye + affine[block]).transpose(0, 2, 1)
        Xb += shift[block][:, None, :]
        yield block, Xb, lb


def _sample_into(keys, props, means, affine, shift, n_k: int, cfg: MetaConfig):
    """Every client's samples, stacked: features (K, n_k, d) and labels
    (K, n_k), the blocks of ``_draw_samples`` written in place."""
    K = len(keys)
    X, labels = np.empty((K, n_k, cfg.dim)), np.empty((K, n_k), dtype=np.intp)
    if n_k:
        for _ in _draw_samples(keys, props, means, affine, shift, n_k, cfg, (X, labels)):
            pass
    return X, labels


def sample_clients(cfg: MetaConfig, K: int, seed: int | None = None) -> list[ClientSpec]:
    """Draw K independent clients from the meta-distribution: the parameters
    of ``draw_world``, as objects."""
    return draw_world(cfg, K, 0, seed).specs()


def generate_datasets(specs: list[ClientSpec], n_k: int, cfg: MetaConfig) -> list[LocalDataset]:
    """Draw each client's local sample: y ~ props, x ~ N(mean_y, scale^2 I),
    then the client's affine feature map (I + A)x + b.

    Client k draws from its own stream, Philox(SeedSequence([seed_entropy,
    k, 1])): n_k uniforms for its labels, then n_k x dim standard normals.
    This is ``draw_world``'s sample draw, for specs of any roots and ids.
    """
    if n_k <= 0:
        raise ValueError("n_k must be positive")
    keys = _philox_keys([s.seed_entropy for s in specs], [s.client_id for s in specs],
                        _DATA_STREAM)
    columns = [np.stack([getattr(s, key) for s in specs])
               for key in ("class_props", "class_means", "affine", "shift")]
    X, labels = _sample_into(keys, *columns, n_k, cfg)
    return [LocalDataset(client_id=s.client_id, features=x, labels=y)
            for s, x, y in zip(specs, X, labels)]


def generate_dataset(spec: ClientSpec, n_k: int, cfg: MetaConfig) -> LocalDataset:
    """One client's local sample; ``generate_datasets`` for a single spec."""
    return generate_datasets([spec], n_k, cfg)[0]


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
    return _divergences(cfg.archetype_weights, shifted.archetype_weights)


def _divergences(w: np.ndarray, wp: np.ndarray) -> dict:
    """KL and chi-square divergence of the weights ``wp`` from ``w``."""
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
    wp = _tilted_weights(w, _archetype_scores(cfg), tilt)
    shifted = MetaConfig.from_json_dict(cfg.to_json_dict())
    shifted.archetype_weights = wp
    return shifted, _divergences(w, wp)


def _archetype_scores(cfg: MetaConfig) -> np.ndarray:
    return np.array([a.score for a in cfg.archetypes], dtype=float)


def _tilted_weights(w: np.ndarray, scores: np.ndarray, tilt: float) -> np.ndarray:
    """The weights w_m e^{tilt s_m}, normalized; ``w`` itself at tilt 0.  An
    archetype of weight 0 keeps weight 0."""
    if tilt == 0.0:
        return w.copy()  # exact identity, no float wiggle
    logits = np.where(w > 0, np.log(np.clip(w, 1e-300, None)) + tilt * scores, -np.inf)
    logits -= logits.max()
    wp = np.exp(logits)
    return wp / wp.sum()


# the largest tilt tilt_for_divergence tries while it brackets a budget
_MAX_TILT = 2.0 ** 199


def tilt_divergence_limit(cfg: MetaConfig, name: str) -> float:
    """Supremum of the ``name`` divergence over nonnegative tilts, approached
    but never reached.

    As the tilt grows, all mass piles onto the top-score archetypes (of
    positive weight), of total source weight w_top, so the divergence rises
    to -log w_top for KL and 1/w_top - 1 for chi-square; 0 when every
    archetype shares one score.  Where no tilt that ``tilt_for_divergence``
    tries separates the top scores (they differ by a few ulps), it is the
    divergence at the largest such tilt.
    """
    _require_archetypes(cfg, "tilt_divergence_limit")
    w = cfg.archetype_weights
    scores = _archetype_scores(cfg)
    pos = w > 0
    w_top = float(np.sum(w[pos & (scores == scores[pos].max())]))
    if name == "kl":
        limit = -float(np.log(w_top))
    elif name == "chi-square":
        limit = 1.0 / w_top - 1.0
    else:
        raise ValueError("name must be 'kl' or 'chi-square'")
    return min(limit, _divergences(w, _tilted_weights(w, scores, _MAX_TILT))[name])


def tilt_for_divergence(cfg: MetaConfig, name: str, epsilon: float) -> float:
    """Find the tilt whose achieved divergence equals ``epsilon`` (bisection
    on the tilted weights alone; the divergence grows monotonically with
    nonnegative tilt).  A budget at or above ``tilt_divergence_limit`` is
    rejected.  The search depends only on the archetype weights and scores,
    ``name`` and ``epsilon``, and runs once for each distinct set of them
    (``_tilt_search``)."""
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
    return _tilt_search(tuple(cfg.archetype_weights.tolist()),
                        tuple(_archetype_scores(cfg).tolist()), name, float(epsilon))


@functools.lru_cache(maxsize=64)
def _tilt_search(weights: tuple, scores: tuple, name: str, epsilon: float) -> float:
    """The bisection of ``tilt_for_divergence`` on a reachable budget,
    memoized: a verify run asks the same tilt for several kinds and for its
    tightness probe."""
    w, scores = np.array(weights), np.array(scores)

    def achieved(t):
        return _divergences(w, _tilted_weights(w, scores, t))[name]

    hi = 1.0
    while hi <= _MAX_TILT:
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
) -> tuple[MetaConfig, float]:
    """Translate class means so the weighted average per-client transport
    cost stays within ``budget``.

    Every archetype's class means move by one L2 norm r along per-archetype
    per-class unit ``directions`` of shape (M, C, d) (default: first axis),
    where r solves cost(r) = budget, spending the budget exactly.  Pairing
    each client with its translated self moves every sample by exactly r,
    so the reported weighted cost sum_m w_m cost(r) is an upper bound on the
    true transport distance between the two meta-distributions.
    """
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    if cost_kind == "half-squared-l2":
        r = float(np.sqrt(2.0 * budget))
        cost = 0.5 * r * r
    elif cost_kind == "l2":
        r = cost = float(budget)
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
    for (w, means), dirs in zip(groups, directions):
        means += r * dirs
        achieved += w * cost
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
    write_json(path / "manifest.json", manifest)
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
