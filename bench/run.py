"""peerlab benchmark: one closed-loop client driving the CLI in process.

Usage (from the repository root):

    python3 bench/run.py --workload verify-exact --seed 1 --seconds 35 --trace 0

A run sets up (imports peerlab in a fresh interpreter and writes the
workload's input files, ``SETUP_REPEATS`` times), then runs passes over the
workload's commands through ``peerlab.cli.main`` until ``--seconds`` is used
up, and finally checks every command's output.  The last line of standard
output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones in BENCHMARK.json;
with ``--trace 1`` untraced and traced passes alternate and the metrics are
the per-layer ones.  The line before it holds the environment, raw and
scaled per-command medians, output sha256 digests and the span table; the
same record is written to ``.bench_run/results/``.

Reported times are scaled to a reference machine speed; see
``calibration.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

import workloads
from calibration import Calibration
from tracer import Tracer, layer_targets

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"
SETUP_REPEATS = 7
MIN_PASSES = 2  # per kind of pass: untraced, and traced with --trace 1
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# Engines that pay every ordered agent pair the mutual information of their
# report joint; the pairs they are asked to pay are the base of the
# calls-per-pair ratios.
PAIR_ENGINES = (
    "mechanisms.mip_expected_payments",
    "mechanisms.sppm_expected_payments",
    "mechanisms.fmi_mechanism_payments",
    "mechanisms.bmi_mechanism_payments",
)
PER_PAIR_SPANS = ("probability.JointDistribution", "measures.mutual_information")


def _load_program() -> None:
    """Import peerlab from this checkout's ``src``; exit 2 if it is not there."""
    if not (SRC / "peerlab" / "__init__.py").is_file():
        print(f"bench: no peerlab sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import peerlab

    if Path(peerlab.__file__).resolve().parent != SRC / "peerlab":
        print(f"bench: imported peerlab from {peerlab.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


def _median(values) -> float:
    return float(statistics.median(values))


# ---------------------------------------------------------------------------
# Calibration and set-up
# ---------------------------------------------------------------------------


def measure_setup(workload: str, seed: int, workdir: Path, calibration: Calibration):
    """Raw and scaled seconds per set-up: import peerlab, timed inside a fresh
    interpreter, then generate and write the workload's input files."""
    raw, scaled = [], []
    child = [sys.executable, str(BENCH_DIR / "calibration.py"), str(SRC)]
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(child, cwd=ROOT, check=True, capture_output=True, text=True)
        import_s, import_slowdown = json.loads(done.stdout)
        _, write_s, write_slowdown = calibration.measure(
            lambda: workloads.write_inputs(workload, seed, str(workdir))
        )
        raw.append(import_s + write_s)
        scaled.append(import_s / import_slowdown + write_s / write_slowdown)
    return raw, scaled


# ---------------------------------------------------------------------------
# Timed passes
# ---------------------------------------------------------------------------


class Outcome:
    """Per command and variant: the first output's bytes and every run's
    failures."""

    def __init__(self):
        self.first: bytes | None = None
        self.digests: set[str] = set()
        self.runs = 0
        self.errors: list[str] = []
        self.failed_runs = 0


class Pass:
    """One pass over the commands: raw seconds and slowdown per command, and
    the tracer's aggregates when it was traced."""

    def __init__(self):
        self.raw: dict[str, float] = {}
        self.slowdown: dict[str, float] = {}
        self.spans: dict | None = None

    @property
    def raw_wall_s(self) -> float:
        return sum(self.raw.values())

    @property
    def scaled(self) -> dict[str, float]:
        return {label: t / self.slowdown[label] for label, t in self.raw.items()}

    @property
    def wall_s(self) -> float:
        return sum(self.scaled.values())


def _call(cli_main, argv: list[str]):
    """The command's exit code, or why it did not return one."""
    try:
        return cli_main(argv)
    except SystemExit as exc:  # argparse rejected the command line
        return exc.code
    except Exception as exc:  # a crash is one failed command, the loop goes on
        return f"{type(exc).__name__}: {exc}"


def run_pass(cmds, outcomes: dict, cli_main, calibration: Calibration | None = None,
             on_sample=None) -> Pass:
    """Run every command once; ``outcomes`` is keyed by (label, variant).

    With a calibration, each command is timed by ``Calibration.measure``,
    which passes ``on_sample`` on.
    """
    done = Pass()
    for cmd in cmds:
        if calibration is None:
            start = time.perf_counter()
            code = _call(cli_main, list(cmd.argv))
            done.raw[cmd.label] = time.perf_counter() - start
            done.slowdown[cmd.label] = 1.0
        else:
            code, done.raw[cmd.label], done.slowdown[cmd.label] = calibration.measure(
                lambda: _call(cli_main, list(cmd.argv)), on_sample
            )
        outcome = outcomes.setdefault((cmd.label, cmd.variant), Outcome())
        outcome.runs += 1
        if code != 0:
            outcome.failed_runs += 1
            outcome.errors.append(f"exit {code}")
            continue
        with open(cmd.out, "rb") as fh:
            data = fh.read()
        outcome.digests.add(hashlib.sha256(data).hexdigest())
        if outcome.first is None:
            outcome.first = data
        elif data != outcome.first:
            outcome.failed_runs += 1
            outcome.errors.append("output differs from the first run with this seed")
    return done


def run_passes(variants, seconds: float, calibration: Calibration, tracer=None):
    """Closed loop over passes until ``seconds`` is used up.

    ``variants`` holds one command list per variant; the n-th pass of each
    kind runs variant n modulo their number.  Without a tracer every pass is
    untraced.  With one, untraced and traced passes alternate.
    """
    from peerlab import cli

    outcomes = {}
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        enough = len(plain) >= MIN_PASSES and (tracer is None or len(traced) >= MIN_PASSES)
        if enough:
            expected = _median([p.raw_wall_s for p in plain + traced])
            if time.perf_counter() - start + expected > seconds:
                break
        if tracer is not None and len(traced) < len(plain):
            tracer.reset()
            with tracer:
                done = run_pass(variants[len(traced) % len(variants)], outcomes, cli.main,
                                calibration, on_sample=tracer.exclude)
            done.spans = tracer.snapshot()
            traced.append(done)
        else:
            cmds = variants[len(plain) % len(variants)]
            plain.append(run_pass(cmds, outcomes, cli.main, calibration))
    return outcomes, plain, traced


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def command_medians(passes, scaled: bool = True) -> dict[str, float]:
    values = [p.scaled if scaled else p.raw for p in passes]
    return {f"{label}_s": _median([v[label] for v in values]) for label in values[0]}


def layer_metrics(traced, plain) -> dict[str, float]:
    """Per-layer metrics from the traced passes: calls per pass (from the
    first traced pass), median scaled self seconds per pass, per-layer
    totals, calls-per-pair ratios, traced command times and the tracing
    overhead."""
    names = sorted(layer_targets())
    layers = sorted({name.split(".")[0] for name in names})
    first = traced[0].spans

    def self_s(p: Pass, members) -> float:
        spans = p.spans["spans"]
        raw = sum(spans[n]["self_s"] for n in members if n in spans)
        return raw / _median(p.slowdown.values())

    out: dict[str, float] = {}
    for name in names:
        out[f"{name}.calls"] = first["spans"].get(name, {}).get("calls", 0)
        out[f"{name}.self_s"] = _median([self_s(p, [name]) for p in traced])
    for layer in layers:
        members = [n for n in names if n.split(".")[0] == layer]
        out[f"{layer}.calls"] = sum(out[f"{n}.calls"] for n in members)
        out[f"{layer}.self_s"] = _median([self_s(p, members) for p in traced])
    pairs = first["counts"]["pairs"]
    out["mechanisms.pairs_paid"] = pairs
    for name in PER_PAIR_SPANS:
        out[f"{name}.calls_per_pair"] = out[f"{name}.calls"] / pairs if pairs else 0.0
    for workload in workloads.WORKLOADS:  # commands of other workloads read 0
        for cmd in workloads.commands(workload, 0):
            out[f"cmd.{cmd.label}_s"] = 0.0
    for label, value in command_medians(traced).items():
        out[f"cmd.{label}"] = value
    untraced = _median([p.wall_s for p in plain])
    out["trace_overhead_frac"] = _median([p.wall_s for p in traced]) / untraced - 1.0
    return out


def _pair_hook(fn):
    """Counts the ordered agent pairs one call of a pair engine pays."""
    from peerlab.mechanisms import ALL_PAIRS

    signature = inspect.signature(fn)

    def count(args, kwargs) -> int:
        bound = signature.bind(*args, **kwargs).arguments
        population = bound["scenario"] if "scenario" in bound else bound["reports"]
        n = population.n_agents
        return n * (n - 1) if bound.get("pairing", ALL_PAIRS) == ALL_PAIRS else n

    return count


def make_tracer():
    targets = layer_targets()
    return Tracer(hooks={name: ("pairs", _pair_hook(targets[name])) for name in PAIR_ENGINES})


# ---------------------------------------------------------------------------
# Environment and entry point
# ---------------------------------------------------------------------------


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return done.stdout.strip()


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "thread_vars": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the full record (result line under ``result``)."""
    os.environ.pop("PEERLAB_OUT_DIR", None)  # outputs must land in the work dir
    env = environment()
    # One CPU for the client, its set-up children and the calibration kernel,
    # so that the kernel measures the CPU the timed work runs on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    workdir = RUN_DIR / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    calibration = Calibration()
    setup_raw, setup_scaled = measure_setup(workload, seed, workdir, calibration)
    variants = [workloads.commands(workload, seed, variant=v) for v in range(workloads.VARIANTS)]
    tracer = make_tracer() if trace else None
    cwd = os.getcwd()
    os.chdir(workdir)  # commands name their files relative to the work dir
    try:
        outcomes, plain, traced = run_passes(variants, seconds, calibration, tracer)
    finally:
        os.chdir(cwd)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    failed = 0
    problems = {}
    by_key = {(cmd.label, cmd.variant): cmd for cmds in variants for cmd in cmds}
    for key, outcome in outcomes.items():
        cmd = by_key[key]
        check = []
        if outcome.first is not None:
            check = workloads.check_output(cmd, outcome.first, str(workdir), seed)
        # a wrong first output makes every run of the command wrong
        failed += outcome.runs if check else outcome.failed_runs
        if outcome.errors or check:
            problems[f"{cmd.label}#{cmd.variant}"] = outcome.errors + check
    shutil.rmtree(workdir, ignore_errors=True)

    values = {
        "setup_s": _median(setup_scaled),
        "wall_s": _median([p.wall_s for p in plain]),
        "peak_rss_mb": peak_rss_mb,
    }
    if trace:
        values.update(layer_metrics(traced, plain))
    spec = benchmark_spec()
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {
        "correct": failed == 0,
        "attempted": sum(o.runs for o in outcomes.values()),
        "failed": failed,
        "metrics": metrics,
    }
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "environment": env,
        "passes": {"untraced": len(plain), "traced": len(traced)},
        "values": values,
        "raw": {
            "setup_s": setup_raw,
            "passes": [{"seconds": p.raw, "slowdown": p.slowdown} for p in plain],
            "calibration_s": calibration.samples,
        },
        "commands_s": command_medians(plain),
        "commands_raw_s": command_medians(plain, scaled=False),
        "spans": traced[0].spans if traced else None,
        "sha256": {f"{label}#{v}": sorted(o.digests) for (label, v), o in outcomes.items()},
        "problems": problems,
        "result": result,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _load_program()
    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    results = RUN_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(results / name, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    info = {k: v for k, v in record.items() if k not in ("result", "spans", "raw")}
    print(json.dumps(info, sort_keys=True))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
