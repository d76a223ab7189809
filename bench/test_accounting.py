"""Op accounting, output checks and exit status of the benchmark."""

import json
import os
import shutil
import subprocess
import sys

import pytest

import accounting
import layertrace
import run
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 0.5
        return self.now


def boom():
    raise ValueError("escaped")


def test_failing_op_is_attempted_and_failed():
    log = accounting.OpLog(clock=FakeClock())
    assert log.op("ok", lambda: 1) == (True, 1)
    ok, exc = log.op("bad", boom)
    assert not ok and isinstance(exc, ValueError)
    ok, _ = log.op("rejected", lambda: 0, accept=bool)
    assert not ok
    assert (log.attempted, log.failed) == (3, 2)
    assert log.failures == {"bad": 1, "rejected": 1}
    assert log.latencies == [0.5]
    assert log.timed_s == 1.5
    assert log.metrics()["ops_per_s"] == pytest.approx(1 / 1.5)


def test_op_stream_counts_items_not_the_final_draw():
    log = accounting.OpLog(clock=FakeClock())

    def items():
        yield 1
        yield 0
        yield 2
        raise RuntimeError("stream broke")

    out = list(log.op_stream("item", items(), lambda x: 10 // x))
    assert out == [(1, 10), (2, 5)]
    assert (log.attempted, log.failed) == (4, 2)
    assert list(accounting.OpLog().op_stream("none", [], str)) == []


def test_percentiles_on_a_known_sample():
    sample = list(range(100, 0, -1))
    assert accounting.percentile(sample, 50) == 50
    assert accounting.percentile(sample, 90) == 90
    assert accounting.percentile([7], 90) == 7
    assert accounting.percentile([1, 2, 3, 4], 50) == 2
    with pytest.raises(ValueError):
        accounting.percentile([], 50)


def test_layer_metrics_take_self_time_and_count_calls(monkeypatch):
    tracer = layertrace.Tracer()
    clock = iter(range(0, 10**9, 10**8))  # each reading is 0.1 s later
    monkeypatch.setattr(layertrace.time, "perf_counter_ns", lambda: next(clock))
    rref = tracer._wrap(lambda mat, ncols=None: len(mat), "linalg.elim", "function")
    envelope = tracer._wrap(lambda: rref([[1, 0], [0, 0]]), "representations.envelope", None)
    domdim = tracer._wrap(lambda: envelope() + envelope(), "homological.domdim", None)
    assert domdim() == 4
    monkeypatch.undo()
    metrics = tracer.layer_metrics(rounds=2)
    assert set(metrics) == set(layertrace.metric_units())
    assert metrics["homological.domdim_calls"] == 0.5
    assert metrics["homological.domdim_terms"] == 1.0
    assert metrics["representations.envelope_calls"] == 1.0
    assert metrics["linalg.elim_calls"] == 1.0
    assert metrics["linalg.elim_cells"] == 2 * 4 / 2
    assert metrics["linalg.elim_nonzero_share"] == 0.25
    # domdim spans 0.0-0.9 s around envelopes 0.1-0.4 and 0.5-0.8 s, each
    # around one 0.1 s elimination
    assert metrics["homological.domdim_s"] == pytest.approx(0.3 / 2)
    assert metrics["linalg.elim_s"] == pytest.approx(0.2 / 2)
    assert metrics["cli.self_s"] == 0


def test_malformed_query_acceptance():
    assert workloads.handled_error((1, "", "usage: x\nquivalg: error: bad\n"))
    assert not workloads.handled_error((0, ">=0\n", ""))
    assert not workloads.handled_error((1, "", "Traceback\n"))


def test_cli_round_fails_exactly_the_known_faults(tmp_path):
    workload = workloads.CliQueries(3, str(tmp_path))
    log, checks = accounting.OpLog(), accounting.CheckLog()
    workload.run_round(log, checks)
    assert checks.ok, checks.errors
    assert log.failed == 3
    assert log.failures == {"malformed-coresolve": 1, "malformed-endo": 1, "malformed-domdim": 1}
    assert log.attempted == len(workload.queries) >= 100


def test_wrong_program_output_fails_the_checks(tmp_path, monkeypatch):
    workload = workloads.CliQueries(3, str(tmp_path))
    monkeypatch.setattr(workloads.cli, "_cmd_check", lambda algebra: print("dimension: 0") or 0)
    checks = accounting.CheckLog()
    workload.run_round(accounting.OpLog(), checks)
    assert not checks.ok
    assert any("dimension" in message for message in checks.errors)


def worker_result(correct):
    return {"correct": correct, "attempted": 10, "failed": 0, "failures": {}, "checks": 5,
            "check_errors": [] if correct else ["dimension"], "rounds": 1, "wall_s": 1.0,
            "timed_s": 1.0, "setup_s": 0.1, "peak_rss_mb": 20.0,
            "metrics": {"ops_per_s": 10.0, "op_p50_ms": 1.0, "op_p90_ms": 2.0}}


@pytest.mark.parametrize("correct, status", [(True, 0), (False, 1)])
def test_failed_check_makes_the_run_exit_nonzero(monkeypatch, capsys, correct, status):
    monkeypatch.setattr(run, "run_worker", lambda args, k, setup_only, deadline: worker_result(correct))
    assert run.main(["--workload", "cli-queries", "--seed", "1", "--seconds", "1"]) == status
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is correct
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)


def test_without_the_program_the_run_fails_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "cli-queries",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
