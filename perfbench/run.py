"""fedcert benchmark: one workload, end to end or traced per layer.

    python3 perfbench/run.py --workload certify-transport --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

It measures the ``src/`` of the checkout it sits in and refuses to run
(exit 2) when ``fedcert`` would resolve anywhere else.

With ``--trace 0`` a run times ``setup_s`` (fresh interpreters importing
``fedcert.cli``, half of them before the timed repeats and half after),
warms up on the tiny size, then repeats the workload's operation for
``--seconds`` (at least twice).  ``op_norm`` is the median over
repeats of the operation's wall time divided by the wall time of a fixed
reference computation timed around it; the raw seconds (``certify_s`` or
``verify_s``) are printed beside it.  Dividing by the reference cancels the
speed swings of a shared host, which move raw seconds by 20-40% between runs.
With ``--trace 1`` each untraced repeat is followed by a traced one; the
traced repeats give the per-layer metrics and the spans, written to
``.perfbench_out/trace-<workload>.json``.  Every repeat's outputs are checked.
The last line of stdout is the JSON result.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("certify-transport", "certify-reweight", "verify-coverage", "query-routes")
MIN_REPEATS = 2          # two runs of one config are needed for the rerun check
# fresh-interpreter imports timed for setup_s: half before the timed repeats
# and half after them, so the median spans the run and not one moment of it
SETUP_SAMPLES = {"full": 6, "tiny": 1}
IMPORT_PROBE = ("import sys; sys.path.insert(0, sys.argv[1]); import fedcert.cli; "
                "print(fedcert.cli.__file__)")

END_TO_END = {"setup_s": "s", "op_norm": "ratio", "peak_rss_mb": "MB"}
REFERENCE_ITERS = 40000   # about 0.4 s on a 2-vCPU KVM guest
# what one operation is on each workload
OP_NAMES = {
    "certify-transport": "certify_s",
    "certify-reweight": "certify_s",
    "verify-coverage": "verify_s",
    "query-routes": "certify_s",
}


class Refused(Exception):
    pass


def _import_fedcert():
    """Import fedcert from this checkout's src/ and nowhere else."""
    expected = SRC / "fedcert"
    if not (expected / "__init__.py").is_file():
        raise Refused(f"no fedcert package under {SRC}")
    sys.path.insert(0, str(SRC))
    import fedcert
    import fedcert.cli  # compiles its bytecode before setup_s is timed
    found = Path(fedcert.__file__).resolve().parent
    if found != expected.resolve():
        raise Refused(f"fedcert resolves to {found}, not {expected}")
    return fedcert


def _source_digest() -> str:
    h = hashlib.sha256()
    for f in sorted((SRC / "fedcert").glob("*.py")):
        h.update(f.name.encode() + b"\0" + f.read_bytes())
    return h.hexdigest()[:16]


def _git(*args) -> str | None:
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return None
    res = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)
    return res.stdout.strip() if res.returncode == 0 else None


def environment(fedcert, args) -> dict:
    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain")
    versions = {}
    for pkg in ("numpy", "scipy", "jsonschema"):
        versions[pkg] = importlib.metadata.version(pkg)
    return {
        "git_sha": sha,
        "git_dirty": None if status is None else bool(status),
        "src_digest": _source_digest(),
        "fedcert_file": fedcert.__file__,
        "python": platform.python_version(),
        **versions,
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "jobs": args.jobs,
        "seconds": args.seconds,
    }


def measure_setup(samples: int) -> list[float]:
    """Wall time of a fresh interpreter importing fedcert.cli from src/."""
    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        res = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                             capture_output=True, text=True)
        times.append(time.perf_counter() - t0)
        if res.returncode != 0:
            raise Refused(f"importing fedcert.cli failed: {res.stderr.strip()}")
        if Path(res.stdout.strip()).resolve().parent != (SRC / "fedcert").resolve():
            raise Refused(f"a fresh interpreter found fedcert at {res.stdout.strip()}")
    return times


def reference_seconds() -> float:
    """Time of a fixed computation that mixes interpreter work with small
    numpy calls, as fedcert's own work does.  It never calls fedcert."""
    a = np.arange(256.0)
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(REFERENCE_ITERS):
        acc += float(np.max(a * 0.5 - i)) + sum(range(64))
    return time.perf_counter() - t0


def measure(workload, warmup, seconds: float, trace: bool) -> dict:
    """Warm up, then repeat the operation for ``seconds`` (at least
    ``MIN_REPEATS`` operations).  A reference timing follows every call of
    the operation; when tracing, every untraced repeat is followed by a
    traced one."""
    import tracing

    out = warmup.run()
    warmup.check(out)
    warmup.discard(out)

    m = {"plain": [], "norm": [], "traced": [], "ranges": [], "bytes": [],
         "attempted": 0, "failures": [],
         "tracer": tracing.Tracer(workload.route_of) if trace else None}
    tracer = m["tracer"]
    ref = reference_seconds()
    start = time.perf_counter()
    while len(m["plain"]) + len(m["traced"]) < MIN_REPEATS \
            or time.perf_counter() - start < seconds:
        for with_trace in ((False, True) if trace else (False,)):
            first_span = len(tracer.spans) if with_trace else 0
            calls, result = workload.steps()
            dt = norm = 0.0
            for call in calls:
                t0 = time.perf_counter()
                with tracer if with_trace else contextlib.nullcontext():
                    call()
                step = time.perf_counter() - t0
                # each call is normalised by the reference timings around it
                ref_before, ref = ref, reference_seconds()
                dt += step
                norm += step / (0.5 * (ref_before + ref))
            out = result()
            if with_trace:
                m["traced"].append(dt)
                m["ranges"].append((first_span, len(tracer.spans)))
                m["bytes"].append(workload.bytes_written(out))
            outcome = workload.check(out)
            m["attempted"] += outcome.attempted
            m["failures"] += outcome.failures
            if not with_trace:
                m["plain"].append(dt)
                m["norm"].append(norm)
            workload.discard(out)
    return m


def layer_report(m: dict) -> dict:
    import tracing

    per_rep = [tracing.layer_metrics(m["tracer"].spans[a:b]) for a, b in m["ranges"]]
    out = {name: statistics.median(r[name] for r in per_rep)
           for name in tracing.LAYER_METRICS}
    out["cli.bytes_written"] = statistics.median(m["bytes"])
    out["trace.overhead_share"] = \
        statistics.median(m["traced"]) / statistics.median(m["plain"]) - 1.0
    return out


def run_all(args) -> int:
    """Each workload in its own process, so each reports its own peak RSS."""
    worst = 0
    for name in WORKLOADS:
        print(f"== {name}", flush=True)
        res = subprocess.run([sys.executable, __file__, "--workload", name,
                              "--seed", str(args.seed), "--seconds", str(args.seconds),
                              "--trace", str(args.trace), "--scale", args.scale,
                              "--jobs", str(args.jobs)])
        worst = max(worst, res.returncode)
    return worst


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                   help="'all' runs the four workloads one after another")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="input sizes; tiny is the smoke-test size")
    p.add_argument("--jobs", type=int, default=1,
                   help="verify --jobs for verify-coverage (default 1, as users run it)")
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    try:
        fedcert = _import_fedcert()
        setup_after = SETUP_SAMPLES[args.scale] // 2
        setup = measure_setup(SETUP_SAMPLES[args.scale] - setup_after)
    except Refused as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    env = environment(fedcert, args)
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    cls = {w.name: w for w in (workloads.CertifyTransport, workloads.CertifyReweight,
                               workloads.VerifyCoverage, workloads.QueryRoutes)}[args.workload]
    try:
        workload = cls(args.seed, args.scale, scratch / "timed", args.jobs)
        warmup = cls(args.seed, "tiny", scratch / "warmup", args.jobs)
        m = measure(workload, warmup, args.seconds, bool(args.trace))
        setup += measure_setup(setup_after)
    except Refused as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    plain, failures, attempted = m["plain"], m["failures"], m["attempted"]
    env["samples"] = {"setup_s": len(setup), "op": len(plain), "traced": len(m["traced"])}
    print("env " + json.dumps(env, sort_keys=True))
    for msg in failures:
        print(f"FAILED {msg}")
    print(f"failure_rate {len(failures) / attempted:.4g} ratio "
          f"({len(failures)} of {attempted} operations failed)")
    print(f"{OP_NAMES[args.workload]} {statistics.median(plain):.4f} s "
          f"(median of {len(plain)}: {' '.join(f'{t:.3f}' for t in plain)}; "
          f"normalised: {' '.join(f'{t:.2f}' for t in m['norm'])})")

    if args.trace:
        values = layer_report(m)
        units = tracing.LAYER_METRICS
        trace_path = OUT / f"trace-{args.workload}.json"
        m["tracer"].write(trace_path, env)
        print(f"spans {len(m['tracer'].spans)} written to {trace_path}")
    else:
        values = {
            "setup_s": statistics.median(setup),
            "op_norm": statistics.median(m["norm"]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
    for name, unit in units.items():
        print(f"{name} {values[name]:.6g} {unit}")

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
