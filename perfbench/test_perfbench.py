"""The benchmark's own tests: a tiny-size smoke run of every workload, untraced
and traced, and negative tests showing the output checks are not vacuous.

    python3 -m pytest perfbench -q
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run._import_fedcert()

import tracing  # noqa: E402  (needs fedcert from src/ first)
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent


def _result(capsys, argv):
    assert run.main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-1]), lines


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_reports_every_metric_with_its_unit(capsys, workload, trace):
    result, lines = _result(capsys, ["--workload", workload, "--seed", "3", "--seconds", "0",
                                     "--trace", str(trace), "--scale", "tiny"])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert 0 <= result["failed"] <= result["attempted"]
    assert result["correct"] == (result["failed"] == 0)
    assert result["correct"], [line for line in lines if line.startswith("FAILED")]
    expected = tracing.LAYER_METRICS if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    assert any(line.startswith("failure_rate ") for line in lines)
    assert any(line.startswith(run.OP_NAMES[workload] + " ") for line in lines)


def test_benchmark_json_lists_what_the_runs_print():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == tracing.LAYER_METRICS


def test_traced_counts_repeat_exactly(capsys):
    argv = ["--workload", "certify-transport", "--seed", "5", "--seconds", "0",
            "--trace", "1", "--scale", "tiny"]
    first, _ = _result(capsys, argv)
    second, _ = _result(capsys, argv)
    for name, unit in tracing.LAYER_METRICS.items():
        if unit == "count" or name == "cli.bytes_written":
            assert first["metrics"][name] == second["metrics"][name], name
    assert first["metrics"]["query.flip.calls"]["value"] > 0


def _measure(workload, tmp_path):
    warmup = type(workload)(1, "tiny", tmp_path / "warmup")
    return run.measure(workload, warmup, seconds=0, trace=False)


def test_untampered_certify_passes_every_check(tmp_path):
    m = _measure(workloads.CertifyTransport(1, "tiny", tmp_path / "w"), tmp_path)
    assert m["attempted"] >= 2 and m["failures"] == []


def _after_each_operation(monkeypatch, workload, edit):
    """Make ``edit(out, n)`` run on the n-th operation's output before the
    benchmark checks it."""
    original = workload.steps
    count = []

    def steps():
        calls, result = original()

        def edited():
            out = result()
            count.append(1)
            edit(out, len(count))
            return out
        return calls, edited
    monkeypatch.setattr(workload, "steps", steps)


def test_certificate_lowered_below_its_target_fails(tmp_path, monkeypatch):
    w = workloads.CertifyTransport(1, "tiny", tmp_path / "w")

    def lower(out, n):
        path = out[0] / "00_mean.json"
        cert = json.loads(path.read_text())
        cert["value"] = 0.0
        path.write_text(json.dumps(cert))

    _after_each_operation(monkeypatch, w, lower)
    m = _measure(w, tmp_path)
    assert len(m["failures"]) / m["attempted"] > 0
    assert any("emit-plots exited 2" in f for f in m["failures"])


def test_rerun_differing_by_one_byte_fails(tmp_path, monkeypatch):
    w = workloads.CertifyTransport(1, "tiny", tmp_path / "w")

    def second_differs(out, n):
        if n == 2:
            with open(out[0] / "summary.json", "ab") as fh:
                fh.write(b" ")

    _after_each_operation(monkeypatch, w, second_differs)
    m = _measure(w, tmp_path)
    assert m["failures"] == ["certify: rerun tree differs from the first repeat"]


def test_refuses_without_the_program_source(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    res = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "certify-transport",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert res.returncode != 0
    assert res.stdout.strip() == ""
    assert "refused" in res.stderr
