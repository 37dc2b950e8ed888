"""The benchmark's workloads: seeded input files, command lists, output checks.

Each workload is a fixed list of ``peerlab`` CLI commands that one client
runs one after another (a closed loop).  The program sees only what this
module generates from the workload seed: the suite and mechanism
``--seed`` and the scenario and profile files.

Passes cycle through ``VARIANTS`` program seeds derived from the workload
seed, so each pass of a run draws fresh suite instances and a run's median
covers many draws.  One draw of 25 ``scenario-equivalence`` instances varies
in work by up to 1.6x between seeds (agent count, prior mode and alphabet
are drawn per instance), which a single draw per run would carry straight
into the run-to-run spread.

Sizes are scaled down from the default suite instance counts and from the
(n, T) points in ROADMAP.md so that one pass over a workload takes a few
seconds and a run can report the median of several passes; the mix of work
inside each command is the same as at full size.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

WORKLOADS = ("verify-exact", "verify-kernels", "payments-allpairs")
# ``verify dpi`` is left out: on some seeds its ``divergence_strict`` claim
# fails (``verify dpi --instances 2500 --seed 129`` and ``--seed 14100072004``),
# because p and q are drawn so close that the strict decrease the witness
# promises lies below ``strictness_tol``.  That is a defect of the suite, and
# a workload must not fail on any seed.  ``verify accuracy-gain`` takes its
# place as the second one-table command.

SIZES = {
    # A quarter of each suite's default instance count, a tenth for
    # scenario-equivalence, whose per-instance work varies most, and the
    # default count for accuracy-gain, whose instances are cheap.  Agent
    # counts are half the ROADMAP points (fmi/bmi/mip n=100, md/ca n=10,
    # bts n=10^3).
    "full": {
        "effort": 250,
        "scenario-equivalence": 10,
        "accuracy-gain": 1000,
        "bregman-quasi": 2500,
        "mi_agents": 50,
        "mi_questions": 10_000,
        "subset_agents": 5,
        "subset_questions": 300,
        "subset_d": 2,
        "bts_agents": 500,
    },
    # For the benchmark's own tests.
    "small": {
        "effort": 3,
        "scenario-equivalence": 1,
        "accuracy-gain": 20,
        "bregman-quasi": 20,
        "mi_agents": 4,
        "mi_questions": 200,
        "subset_agents": 3,
        "subset_questions": 20,
        "subset_d": 2,
        "bts_agents": 12,
    },
}

MI_SCENARIO = "scenario_mi.json"
SUBSET_SCENARIO = "scenario_binary.json"
BTS_PROFILE = "profile_bts.json"
MI_ALPHABET = 4
BTS_ALPHABET = 4
BTS_ALPHA = 3.0
CHECKED_AGENTS = 3
VARIANTS = 16
PAYMENT_TOL = 1e-12


class Command:
    """One CLI invocation: a metric label, its variant, its argv and the file
    it writes."""

    def __init__(self, label: str, variant: int, argv: list[str], out: str):
        self.label = label
        self.variant = variant
        self.out = out
        self.argv = argv + ["--out", out]


def commands(workload: str, seed: int, size: str = "full", variant: int = 0) -> list[Command]:
    s = SIZES[size]
    program_seed = str(VARIANTS * seed + variant)
    if workload in ("verify-exact", "verify-kernels"):
        suites = (
            ("effort", "scenario-equivalence")
            if workload == "verify-exact"
            else ("accuracy-gain", "bregman-quasi")
        )
        return [
            Command(
                f"verify.{suite}",
                variant,
                ["verify", suite, "--instances", str(s[suite]), "--seed", program_seed],
                f"verdict_{suite}.json",
            )
            for suite in suites
        ]
    if workload != "payments-allpairs":
        raise ValueError(f"unknown workload {workload!r}")

    def mechanism(name: str, *extra: str) -> Command:
        argv = ["mechanism", "--mechanism", name, *extra, "--seed", program_seed]
        return Command(f"mechanism.{name}", variant, argv, f"payments_{name}.json")

    mi_t = str(s["mi_questions"])
    subset = ("--scenario", SUBSET_SCENARIO, "-T", str(s["subset_questions"]),
              "--d", str(s["subset_d"]))
    return [
        mechanism("fmi", "--measure", "kl", "--scenario", MI_SCENARIO, "-T", mi_t),
        mechanism("bmi", "--rule", "log", "--scenario", MI_SCENARIO, "-T", mi_t),
        mechanism("mip", "--measure", "tvd", "--scenario", MI_SCENARIO),
        mechanism("md", *subset),
        mechanism("ca", *subset),
        mechanism("bts", "--profile", BTS_PROFILE),
    ]


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def _dense(rng, m: int, floor: float = 0.1) -> list[float]:
    """A probability vector with every entry at least floor / m, so that no
    empirical cell or log score hits zero."""
    w = rng.dirichlet(np.ones(m))
    return ((1.0 - floor) * w + floor / m).tolist()


def _world_scenario(rng, n: int, m: int, states: int, efforts: bool) -> dict:
    doc = {
        "schema_version": 1,
        "prior": {
            "mode": "world_model",
            "state_probs": _dense(rng, states),
            "states": [_dense(rng, m) for _ in range(states)],
        },
        "strategies": [
            {"channel": [_dense(rng, m) for _ in range(m)], "label": "dense"} for _ in range(n)
        ],
        "efforts": None,
    }
    if efforts:
        doc["efforts"] = [
            {
                "full_effort_prob": float(rng.uniform(0.5, 1.0)),
                "cost": float(rng.uniform(0.0, 0.2)),
                "no_effort_report": None,
            }
            for _ in range(n)
        ]
    return doc


def _bts_profile(rng, n: int, m: int) -> dict:
    # Every signal is reported at least twice, so each agent's signal has a
    # non-zero peer frequency and unsmoothed scoring never divides by zero.
    signals = np.concatenate([np.repeat(np.arange(m), 2), rng.integers(0, m, n - 2 * m)])
    rng.shuffle(signals)
    return {
        "signals": signals.tolist(),
        "predictions": [_dense(rng, m) for _ in range(n)],
        "alpha": BTS_ALPHA,
    }


def write_inputs(workload: str, seed: int, workdir: str, size: str = "full") -> list[str]:
    """Write the workload's input files into ``workdir``; returns their names."""
    if workload != "payments-allpairs":
        return []
    s = SIZES[size]
    rng = np.random.default_rng([seed, 1605])
    docs = {
        MI_SCENARIO: _world_scenario(rng, s["mi_agents"], MI_ALPHABET, 3, efforts=True),
        SUBSET_SCENARIO: _world_scenario(rng, s["subset_agents"], 2, 2, efforts=False),
        BTS_PROFILE: _bts_profile(rng, s["bts_agents"], BTS_ALPHABET),
    }
    for name, doc in docs.items():
        with open(os.path.join(workdir, name), "w") as fh:
            json.dump(doc, fh, sort_keys=True)
            fh.write("\n")
    return sorted(docs)


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def _checked_agents(seed: int, n: int) -> list[int]:
    rng = np.random.default_rng([seed, 7])
    return sorted(rng.choice(n, size=min(CHECKED_AGENTS, n), replace=False).tolist())


def check_output(command: Command, data: bytes, workdir: str, seed: int) -> list[str]:
    """Problems found in one command's output; an empty list means correct.

    Verdicts must pass.  For mip, fmi and bmi the payments of a few sampled
    agents are recomputed pair by pair through the public peerlab API.  md,
    ca and bts payments must be finite, and bts payments must equal
    prediction + alpha * information.
    """
    # imported here: this module loads before the checkout's src is on sys.path
    from peerlab import (
        ConvexGenerator,
        ScoringRule,
        empirical_pair_joint,
        generate_reports,
        load_scenario,
        mutual_information,
        report_joint,
    )

    try:
        doc = json.loads(data)
    except ValueError as exc:
        return [f"{command.label}: output is not JSON: {exc}"]
    if command.label.startswith("verify."):
        return [] if doc.get("pass") is True else [f"{command.label}: verdict did not pass"]

    report = doc.get("report")
    if report is None:
        return [f"{command.label}: no payment report ({doc.get('error')})"]
    payments = report["payments"]
    problems = []
    if not all(math.isfinite(p) for p in payments):
        problems.append(f"{command.label}: non-finite payment")
    name = report["mechanism"]
    if name == "bts":
        alpha = report["metadata"]["alpha"]
        for i, (pay, pred, info) in enumerate(
            zip(payments, report["prediction_scores"], report["information_scores"])
        ):
            if abs(pay - (pred + alpha * info)) > PAYMENT_TOL * max(1.0, abs(pay)):
                problems.append(f"bts: agent {i} payment is not prediction + alpha * information")
                break
    if name not in ("mip", "fmi", "bmi"):
        return problems

    config = doc["config"]
    scenario = load_scenario(os.path.join(workdir, config["scenario"]))
    n = scenario.n_agents
    if len(payments) != n:
        return problems + [f"{name}: {len(payments)} payments for {n} agents"]
    measure = (
        ScoringRule(report["measure"]) if name == "bmi" else ConvexGenerator(report["measure"])
    )
    if name == "mip":
        def pair_joint(i, j):
            return report_joint(scenario.prior, i, j, scenario.strategies[i],
                                scenario.strategies[j], scenario.effort(i), scenario.effort(j))
    else:
        reports = generate_reports(scenario, config["T"], config["seed"])

        def pair_joint(i, j):
            return empirical_pair_joint(reports, i, j)

    for i in _checked_agents(seed, n):
        expected = float(
            np.mean([mutual_information(pair_joint(i, j), measure) for j in range(n) if j != i])
        )
        if not abs(payments[i] - expected) <= PAYMENT_TOL:
            problems.append(f"{name}: agent {i} paid {payments[i]!r}, recomputed {expected!r}")
    return problems
