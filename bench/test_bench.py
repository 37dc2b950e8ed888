"""Tests of the benchmark itself, at small sizes.

Run from the repository root with ``python3 -m pytest -q bench``.
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import peerlab  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from peerlab import cli  # noqa: E402
from tracer import VALIDATED_CLASSES, Tracer  # noqa: E402

SEED = 5


def _small(workload: str, workdir: Path, monkeypatch):
    monkeypatch.chdir(workdir)
    monkeypatch.delenv("PEERLAB_OUT_DIR", raising=False)
    workloads.write_inputs(workload, SEED, str(workdir), "small")
    return workloads.commands(workload, SEED, "small"), {}


def _peerlab_state() -> dict:
    """Every attribute of every peerlab module and validated class, by identity."""
    state = {}
    for name, module in sorted(sys.modules.items()):
        if name == "peerlab" or name.startswith("peerlab."):
            for attr, value in vars(module).items():
                state[(name, attr)] = value
                if type(value) is dict:
                    for key, item in value.items():
                        state[(name, attr, key)] = item
    for cls_name in VALIDATED_CLASSES:
        cls = getattr(peerlab.probability, cls_name)
        for attr, value in vars(cls).items():
            state[(cls_name, attr)] = value
    return state


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tracing_keeps_verdicts_and_output_bytes(workload, tmp_path, monkeypatch):
    cmds, outcomes = _small(workload, tmp_path, monkeypatch)
    run.run_pass(cmds, outcomes, cli.main)
    with run.make_tracer():
        run.run_pass(cmds, outcomes, cli.main)
    for cmd in cmds:
        outcome = outcomes[(cmd.label, 0)]
        assert outcome.runs == 2
        assert outcome.errors == []  # includes "output differs from the first run ..."
        assert len(outcome.digests) == 1
        assert workloads.check_output(cmd, outcome.first, str(tmp_path), SEED) == []


def test_tracer_restores_every_peerlab_attribute():
    before = _peerlab_state()
    original = peerlab.agents.report_joint
    with Tracer():
        assert peerlab.agents.report_joint is not original
        assert peerlab.mechanisms.report_joint is peerlab.agents.report_joint
        assert peerlab.report_joint is peerlab.agents.report_joint
        assert peerlab.verify.SUITES["dpi"] is peerlab.verify.suite_dpi
        assert peerlab.verify.SUITES["dpi"].__wrapped__ is before[("peerlab.verify", "suite_dpi")]
    after = _peerlab_state()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []


def _traced_counts(workload: str, workdir: Path, monkeypatch) -> tuple[dict, dict]:
    cmds, outcomes = _small(workload, workdir, monkeypatch)
    tracer = run.make_tracer()
    with tracer:
        run.run_pass(cmds, outcomes, cli.main)
    snap = tracer.snapshot()
    return {name: span["calls"] for name, span in snap["spans"].items()}, snap["counts"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_call_counts_repeat_exactly(workload, tmp_path, monkeypatch):
    runs = []
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        runs.append(_traced_counts(workload, tmp_path / name, monkeypatch))
    first, second = runs
    assert first == second
    calls, _ = first
    assert calls["cli.main"] == len(workloads.commands(workload, SEED))
    assert calls["probability.JointDistribution"] > 0


def test_pairs_paid_counts_every_ordered_pair(tmp_path, monkeypatch):
    _, counts = _traced_counts("payments-allpairs", tmp_path, monkeypatch)
    n = workloads.SIZES["small"]["mi_agents"]
    assert counts["pairs"] == 3 * n * (n - 1)  # fmi, bmi and mip pay all ordered pairs


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_listed_metric_is_computed(workload, tmp_path, monkeypatch):
    cmds, outcomes = _small(workload, tmp_path, monkeypatch)
    plain = [run.run_pass(cmds, outcomes, cli.main)]
    tracer = run.make_tracer()
    with tracer:
        traced = run.run_pass(cmds, outcomes, cli.main)
    traced.spans = tracer.snapshot()
    metrics = run.layer_metrics([traced], plain)
    spec = run.benchmark_spec()
    assert [m["name"] for m in spec["per_layer"] if m["name"] not in metrics] == []
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "wall_s", "peak_rss_mb"}


def test_calibrated_pass_restores_the_timer(tmp_path, monkeypatch):
    cmds, outcomes = _small("verify-exact", tmp_path, monkeypatch)
    handler = signal.getsignal(signal.SIGALRM)
    calibration = run.Calibration()
    done = run.run_pass(cmds, outcomes, cli.main, calibration)
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(calibration.samples) >= 2 * len(cmds)
    assert all(done.raw[cmd.label] > 0 and done.slowdown[cmd.label] > 0 for cmd in cmds)
    assert all(outcome.errors == [] for outcome in outcomes.values())


def test_setup_times_the_import_in_a_fresh_interpreter(tmp_path):
    raw, scaled = run.measure_setup("payments-allpairs", SEED, tmp_path, run.Calibration())
    assert len(raw) == len(scaled) == run.SETUP_REPEATS
    assert all(r > 0 and s > 0 for r, s in zip(raw, scaled))
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        [workloads.MI_SCENARIO, workloads.SUBSET_SCENARIO, workloads.BTS_PROFILE]
    )


def test_check_catches_a_wrong_payment(tmp_path, monkeypatch):
    cmds, outcomes = _small("payments-allpairs", tmp_path, monkeypatch)
    run.run_pass(cmds, outcomes, cli.main)
    fmi = next(cmd for cmd in cmds if cmd.label == "mechanism.fmi")
    doc = json.loads(outcomes[(fmi.label, 0)].first)
    doc["report"]["payments"] = [p + 1e-9 for p in doc["report"]["payments"]]
    problems = workloads.check_output(fmi, json.dumps(doc).encode(), str(tmp_path), SEED)
    assert problems and "recomputed" in problems[0]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "verify-exact", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
