"""Spans around calls into fedcert's layers, recorded from outside the program.

The tracer replaces a public name in the module that looks it up (for
example ``fedcert.cli.fdiv_cdf_bound`` and ``fedcert.oracle.fdiv_cdf_bound``)
with a wrapper that records one span per call, and puts the original back on
exit.  No program source is touched.  A name the program no longer has is
skipped, so its metrics read 0 instead of the benchmark failing.

A span is (id, name, start, end, parent, operation id, attrs).  Parents come
from a per-thread stack; a span opened on a worker thread with an empty stack
takes the span open on the tracing thread as its parent, so trials that run
in ``coverage_experiment``'s thread pool still nest under it.  Self time is a
span's duration minus the union of its children's intervals.
"""
from __future__ import annotations

import itertools
import json
import threading
import time
import weakref

import fedcert.certificates
import fedcert.cli
import fedcert.fdiv
import fedcert.oracle
import fedcert.query
import fedcert.wass
from fedcert.query import BudgetExceededError
from spans import self_times


def _profile_points(profiles):
    return {"profile_points": sum(len(p.rhos) for p in profiles)}


def _solution_status(sol):
    return {"tolerance": int(sol.status == "tolerance")}


def _report_trials(report):
    return {"trials": int(report.trials)}


def _empirical_query(qv):
    return {"route": "empirical", "status": qv.status,
            "inner_iterations": int(qv.inner_iterations)}


# (module, attribute, span name, hook on the return value); the same function
# is wrapped at every module that looks it up
_SITES = [
    (fedcert.cli, "cmd_certify", "cli.certify", None),
    (fedcert.cli, "cmd_verify", "cli.verify", None),
    (fedcert.certificates.CertifiedBound, "write_json", "certificates.write", None),
    (fedcert.certificates.CdfCurve, "write_json", "certificates.write", None),
    (fedcert.certificates.CdfCurve, "write_csv", "certificates.write", None),
    (fedcert.query, "loss_values", "losses.loss_values", None),
    (fedcert.query, "gradient_values", "losses.gradient_values", None),
    (fedcert.wass, "wass_mean_bound", "wass.wass_mean_bound", None),
    (fedcert.wass, "build_profiles", "wass.build_profiles", _profile_points),
    (fedcert.wass, "bisection_certificate", "wass.bisection_certificate", None),
    (fedcert.wass, "feasibility_check", "wass.feasibility_check", None),
    (fedcert.fdiv, "solve_reweight", "fdiv.solve_reweight", _solution_status),
    (fedcert.fdiv, "make_divergence", "fdiv.make_divergence", None),
]
for _mod in (fedcert.cli, fedcert.oracle):
    _SITES += [
        (_mod, "wass_mean_bound", "wass.wass_mean_bound", None),
        (_mod, "fdiv_mean_bound", "fdiv.fdiv_mean_bound", None),
        (_mod, "fdiv_cdf_bound", "fdiv.fdiv_cdf_bound", None),
        (_mod, "mean_bound", "nonrobust.mean_bound", None),
        (_mod, "cdf_bound", "nonrobust.cdf_bound", None),
        (_mod, "sample_clients", "metasim.sample_clients", None),
        (_mod, "generate_dataset", "metasim.generate_dataset", None),
        (_mod, "tilt_for_divergence", "metasim.tilt_for_divergence", None),
        (_mod, "sample_true_risks", "oracle.sample_true_risks", None),
    ]
_SITES += [
    # the oracle computes its trials' empirical risks without a Client
    (fedcert.oracle, "empirical_risk", "query.query", _empirical_query),
    (fedcert.cli, "coverage_experiment", "oracle.coverage_experiment", _report_trials),
    (fedcert.cli, "tightness_probe", "oracle.tightness_probe", None),
]

QUERY_ROUTES = ("empirical", "flip", "grid", "ascent")

# per-layer metrics: name -> unit, in the order they are printed
LAYER_METRICS: dict[str, str] = {}
for _r in QUERY_ROUTES:
    LAYER_METRICS.update({f"query.{_r}.calls": "count", f"query.{_r}.self_s": "s",
                          f"query.{_r}.inner_iterations": "count"})
LAYER_METRICS.update({
    "query.exact_share": "ratio",
    "query.budget_refusals": "count",
    "losses.loss_values.calls": "count",
    "losses.loss_values.self_s": "s",
    "losses.gradient_values.calls": "count",
    "losses.gradient_values.self_s": "s",
    "wass.build_profiles.self_s": "s",
    "wass.profile_points": "count",
    "wass.bisection_certificate.self_s": "s",
    "wass.feasibility_check.calls": "count",
    "fdiv.fdiv_cdf_bound.calls": "count",
    "fdiv.fdiv_cdf_bound.self_s": "s",
    "fdiv.solve_reweight.calls": "count",
    "fdiv.solve_reweight.self_s": "s",
    "fdiv.fdiv_mean_bound.self_s": "s",
    "fdiv.make_divergence.calls": "count",
    "fdiv.make_divergence.self_s": "s",
    "fdiv.tolerance_count": "count",
    "nonrobust.mean_bound.calls": "count",
    "nonrobust.mean_bound.self_s": "s",
    "nonrobust.cdf_bound.calls": "count",
    "nonrobust.cdf_bound.self_s": "s",
})
for _f in ("sample_clients", "generate_dataset", "tilt_for_divergence"):
    LAYER_METRICS.update({f"metasim.{_f}.calls": "count", f"metasim.{_f}.self_s": "s"})
LAYER_METRICS.update({
    "oracle.coverage_experiment.self_s": "s",
    "oracle.trials": "count",
    "oracle.sample_true_risks.calls": "count",
    "oracle.sample_true_risks.self_s": "s",
    "oracle.tightness_probe.self_s": "s",
    "certificates.write.calls": "count",
    "certificates.write.self_s": "s",
    "cli.certify.self_s": "s",
    "cli.verify.self_s": "s",
    "cli.bytes_written": "B",
    "trace.overhead_share": "ratio",
})


class Tracer:
    """Records spans while installed; use as a context manager.

    ``route_of(client)`` names the inner route a robust query of that client
    takes (``flip``, ``grid`` or ``ascent``); it comes from the workload's
    declared loss and grid, not from the program.
    """

    def __init__(self, route_of):
        self.route_of = route_of
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._home_stack: list[int] = []
        self._saved: list[tuple] = []
        self._op_of: dict[int, int] = {}
        self._last_iterations = weakref.WeakKeyDictionary()

    # -- installation -----------------------------------------------------

    def __enter__(self):
        self._local.stack = self._home_stack
        for owner, attr, name, hook in _SITES:
            if attr in vars(owner):
                original = vars(owner)[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name, hook))
        query = vars(fedcert.query.Client)["query"]
        self._saved.append((fedcert.query.Client, "query", query))
        fedcert.query.Client.query = self._wrap_query(query)
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif self._home_stack:
            parent = self._home_stack[-1]
        else:
            parent = None
        sid = next(self._ids)
        # an operation is one top-level call: a command or a library call
        self._op_of[sid] = sid if parent is None else self._op_of[parent]
        stack.append(sid)
        return stack, sid, parent

    def _record(self, sid, name, start, end, parent, attrs):
        self.spans.append((sid, name, start, end, parent, self._op_of[sid], attrs))

    def _wrap(self, fn, name, hook):
        def traced(*args, **kwargs):
            stack, sid, parent = self._open()
            start = time.perf_counter()
            result = attrs = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                if hook is not None and result is not None:
                    attrs = hook(result)
                self._record(sid, name, start, end, parent, attrs)
        return traced

    def _wrap_query(self, fn):
        def traced(client, *args, **kwargs):
            rho = kwargs.get("rho", args[1] if len(args) > 1 else 0.0)
            attrs = {"route": "empirical" if rho == 0.0 else self.route_of(client)}
            stack, sid, parent = self._open()
            start = time.perf_counter()
            try:
                qv = fn(client, *args, **kwargs)
            except BudgetExceededError:
                attrs["refused"] = 1
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                self._record(sid, "query.query", start, end, parent, attrs)
            attrs["status"] = qv.status
            attrs["inner_iterations"] = self._increment(client, attrs["route"], qv)
            return qv
        return traced

    def _increment(self, client, route, qv) -> int:
        # the ascent route's counter accumulates over the client's cached
        # inner solver; count only what this query added
        count = int(qv.inner_iterations)
        if route != "ascent":
            return count
        prev = self._last_iterations.get(client, 0)
        self._last_iterations[client] = count
        return count - prev if count >= prev else count

    # -- output -----------------------------------------------------------

    def write(self, path, env: dict):
        with open(path, "w") as fh:
            json.dump({
                "env": env,
                "fields": ["id", "name", "start", "end", "parent", "operation", "attrs"],
                "spans": self.spans,
            }, fh)


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer metrics of one traced operation (``trace.overhead_share``
    and ``cli.bytes_written`` are filled in by the caller)."""
    selfs = self_times(spans)
    m = {name: 0.0 for name in LAYER_METRICS}
    robust = exact = 0
    for sid, name, _, _, _, _, attrs in spans:
        attrs = attrs or {}
        if name == "query.query":
            route = attrs["route"]
            m[f"query.{route}.calls"] += 1
            m[f"query.{route}.self_s"] += selfs[sid]
            m[f"query.{route}.inner_iterations"] += attrs.get("inner_iterations", 0)
            m["query.budget_refusals"] += attrs.get("refused", 0)
            if route != "empirical" and "status" in attrs:
                robust += 1
                exact += attrs["status"] == "exact"
            continue
        for key in (f"{name}.calls", f"{name}.self_s"):
            if key in m:
                m[key] += 1 if key.endswith(".calls") else selfs[sid]
        m["wass.profile_points"] += attrs.get("profile_points", 0)
        m["fdiv.tolerance_count"] += attrs.get("tolerance", 0)
        m["oracle.trials"] += attrs.get("trials", 0)
    m["query.exact_share"] = exact / robust if robust else 0.0
    return m

