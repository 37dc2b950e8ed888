"""Command-line entry point.

Four subcommands: ``measure`` (information quantities of joint/tensor files),
``mechanism`` (payment runs over scenario files), ``verify`` (theorem
suites), and ``sweep`` (convergence tables).

Contract: machine-readable output goes to files or stdout, human-readable
messages to stderr.  Exit codes: 0 success, 1 mechanism-level error or suite
violations, 2 parse/configuration errors.  Every output file embeds the run
config and a sha256 of each input file, taken of the very bytes parsed (each
input is read once); re-running an identical config reproduces the output
byte for byte (floats are serialized at full round-trip precision and nothing
clock-dependent is written).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import io
import json
import os
import sys

import numpy as np

from .agents import (
    PairwisePrior,
    WorldModelPrior,
    generate_reports,
    scenario_from_dict,
)
from .errors import PeerLabError
from .measures import (
    ConvexGenerator,
    ScoringRule,
    _mi_kernel,
    conditional_mi,
    mutual_information,
    shannon_mi,
)
from .mechanisms import (
    ALL_PAIRS,
    BtsReportProfile,
    _empirical_joints,
    _exact_inputs,
    _exact_joints,
    _peer_means,
    _predictive_table,
    bmi_mechanism_payments,
    bts_payments,
    bts_idealized_scores,
    ca_payments,
    fmi_mechanism_payments,
    md_payments,
    mip_expected_payments,
    payment_report_csv,
    payment_report_dict,
    sppm_expected_payments,
    sppm_payments,
)
from .probability import JointDistribution, rng_from_seed
from .verify import CANONICAL_WORLD, SUITES, _bts_population_gap, default_config, run_suite

SCHEMA_VERSION = 1

_GENERATORS = {g.value: g for g in ConvexGenerator}
_RULES = {r.value: r for r in ScoringRule}
_NATS = {"kl", "shannon", "log"}


class CliError(Exception):
    """Carries the exit code for configuration/parse failures."""

    def __init__(self, message: str, code: int = 2):
        super().__init__(message)
        self.code = code


def _resolve_out(path: str | None) -> str | None:
    if path is None:
        return None
    base = os.environ.get("PEERLAB_OUT_DIR")
    if base and not os.path.isabs(path):
        os.makedirs(base, exist_ok=True)
        return os.path.join(base, path)
    return path


def _emit(path: str | None, text: str) -> None:
    path = _resolve_out(path)
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


@contextlib.contextmanager
def _input_errors(path: str):
    """Report an unreadable, malformed or ill-typed input file as a CliError naming it."""
    try:
        yield
    except OSError as exc:
        raise CliError(f"{path}: {exc.strerror}") from exc
    except json.JSONDecodeError as exc:
        raise CliError(f"{path}: parse error at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    except (AttributeError, KeyError, PeerLabError, TypeError, ValueError) as exc:
        raise CliError(f"{path}: {exc}") from exc


def _load_json(path: str, inputs: dict) -> dict:
    """The JSON document of ``path``, read once: ``inputs[path]`` gets the sha256 of the bytes
    parsed, which are decoded as ``open(path)`` decodes them."""
    with _input_errors(path), open(path, "rb") as fh:
        data = fh.read()
        inputs[path] = hashlib.sha256(data).hexdigest()
        return json.load(io.TextIOWrapper(io.BytesIO(data)))


def _load_scenario(path: str, inputs: dict):
    with _input_errors(path):
        return scenario_from_dict(_load_json(path, inputs))


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _record(config: dict, inputs: dict, body: dict) -> dict:
    return {"schema_version": SCHEMA_VERSION, "config": config, "inputs": inputs, **body}


def _emit_error(path: str | None, config: dict, inputs: dict, exc: PeerLabError) -> int:
    """Write the error record of a mechanism-level failure; returns exit code 1."""
    _emit(path, _canonical(_record(config, inputs, {
        "error": {"type": type(exc).__name__, "message": str(exc)}})))
    return 1


# ---------------------------------------------------------------------------
# measure
# ---------------------------------------------------------------------------


def _load_table(path: str, inputs: dict) -> JointDistribution:
    doc = _load_json(path, inputs)
    with _input_errors(path):
        if "table" not in doc:
            raise CliError(f"{path}: missing 'table' field")
        return JointDistribution(np.array(doc["table"], dtype=np.float64))


def cmd_measure(args) -> int:
    config = {
        "command": "measure",
        "mi": args.mi,
        "bregman": args.bregman,
        "joint": args.joint,
        "tensor": args.tensor,
    }
    if (args.mi is None) == (args.bregman is None):
        raise CliError("choose exactly one of --mi / --bregman")
    if (args.joint is None) == (args.tensor is None):
        raise CliError("choose exactly one of --joint / --tensor")
    path, inputs = args.joint or args.tensor, {}
    table = _load_table(path, inputs)
    if args.joint and table.is_conditional:
        raise CliError(f"{path}: --joint expects a rank-2 table")
    if args.tensor and not table.is_conditional:
        raise CliError(f"{path}: --tensor expects a rank-3 table")
    if args.mi == "shannon":
        measure, name = ConvexGenerator.KL, "shannon"
    elif args.mi:
        measure = _GENERATORS[args.mi]
        name = f"mi-{measure.value}"
    else:
        measure = _RULES[args.bregman]
        name = f"bregman-{measure.value}"
    try:
        if table.is_conditional:
            value = conditional_mi(table, measure)
        else:  # Shannon MI keeps its own direct sum
            value = shannon_mi(table) if args.mi == "shannon" else mutual_information(table, measure)
    except PeerLabError as exc:
        return _emit_error(args.out, config, inputs, exc)
    units = "nats" if (args.mi in _NATS or args.bregman == "log") else "dimensionless"
    _emit(args.out, _canonical(_record(config, inputs, {
        "measure": name, "value": float(value), "units": units})))
    return 0


# ---------------------------------------------------------------------------
# mechanism
# ---------------------------------------------------------------------------


def cmd_mechanism(args) -> int:
    config = {
        "command": "mechanism",
        "mechanism": args.mechanism,
        "scenario": args.scenario,
        "profile": args.profile,
        "measure": args.measure,
        "rule": args.rule,
        "T": args.T,
        "seed": _at_least(args.seed, "--seed"),
        "exact": args.exact,
        "d": args.d,
        "alpha": args.alpha,
        "format": args.format,
    }
    inputs = {}
    try:
        if args.mechanism == "bts":
            if not args.profile:
                raise CliError("bts needs --profile FILE")
            doc = _load_json(args.profile, inputs)
            with _input_errors(args.profile):
                profile = BtsReportProfile(doc["signals"], doc["predictions"])
                alpha = args.alpha if args.alpha is not None else float(doc.get("alpha", 3.0))
            report = bts_payments(profile, alpha, seed=args.seed)
        else:
            if not args.scenario:
                raise CliError(f"{args.mechanism} needs --scenario FILE")
            scenario = _load_scenario(args.scenario, inputs)
            gen = _GENERATORS.get(args.measure or "tvd")
            rule = _RULES.get(args.rule or "log")
            if args.measure and gen is None:
                raise CliError(f"unknown --measure {args.measure!r}")
            if args.rule and rule is None:
                raise CliError(f"unknown --rule {args.rule!r}")
            if args.mechanism in ("mip", "fmi", "bmi"):
                measure = rule if args.mechanism == "bmi" else gen
                if args.mechanism == "mip" and args.rule and not args.measure:
                    measure = rule
                if args.exact or args.mechanism == "mip":
                    report = mip_expected_payments(scenario, measure)
                else:
                    reports = generate_reports(scenario, args.T, args.seed)
                    fn = fmi_mechanism_payments if args.mechanism == "fmi" else bmi_mechanism_payments
                    report = fn(reports, measure, seed=args.seed)
            elif args.mechanism in ("md", "ca"):
                reports = generate_reports(scenario, args.T, args.seed)
                fn = md_payments if args.mechanism == "md" else ca_payments
                report = fn(reports, args.d, args.seed)
            elif args.mechanism == "sppm":
                known = PairwisePrior(scenario.prior.pair_joint(0, 1), symmetric=False)
                if args.exact:
                    report = sppm_expected_payments(scenario, known, rule)
                else:
                    reports = generate_reports(scenario, 1, args.seed)
                    report = sppm_payments(reports.entries[:, 0], known, rule, seed=args.seed)
            else:  # bts-idealized
                if not isinstance(scenario.prior, WorldModelPrior):
                    raise CliError("bts-idealized needs a world-model prior")
                scores = bts_idealized_scores(scenario.prior, scenario.strategies)
                _emit(args.out, _canonical(_record(config, inputs, {
                    "information_score": scores.information_score,
                    "prediction_score": scores.prediction_score,
                })))
                return 0
    except PeerLabError as exc:
        return _emit_error(args.out, config, inputs, exc)
    if args.format == "csv":
        header = "# " + json.dumps(_record(config, inputs, {}), sort_keys=True)
        _emit(args.out, header + "\n" + payment_report_csv(report))
    else:
        _emit(args.out, _canonical(_record(config, inputs, {"report": payment_report_dict(report)})))
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def cmd_verify(args) -> int:
    if args.suite not in SUITES:
        raise CliError(f"unknown suite {args.suite!r}; known: {', '.join(sorted(SUITES))}")
    overrides = {"seed": args.seed}
    if args.instances is not None:
        overrides["instances"] = args.instances
    if args.equality_tol is not None:
        overrides["equality_tol"] = args.equality_tol
    if args.strictness_tol is not None:
        overrides["strictness_tol"] = args.strictness_tol
    try:
        config = default_config(args.suite, **overrides)
    except PeerLabError as exc:
        raise CliError(str(exc)) from exc
    verdict = run_suite(config)
    doc = verdict.to_dict()
    doc["schema_version"] = SCHEMA_VERSION
    _emit(args.out, json.dumps(doc, sort_keys=True, indent=2) + "\n")
    return 0 if verdict.passed else 1


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def _at_least(value: int, name: str, low: int = 0) -> int:
    if value < low:
        raise CliError(f"{name} must be >= {low}, got {value}")
    return value


def _parse_grid(text: str) -> list[int]:
    if not text.strip():
        return []
    try:
        return [_at_least(int(tok), "--grid point") for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise CliError(f"bad --grid {text!r}: {exc}") from exc


def _agent0_payment(blocks, measure) -> float:
    """The engine's ``payments[0]``, from the first block alone (blocks come in agent order)."""
    return float(_peer_means([next(blocks)], _mi_kernel(measure))[0])


def cmd_sweep(args) -> int:
    config = {
        "command": "sweep",
        "kind": args.kind,
        "scenario": args.scenario,
        "grid": args.grid,
        "seeds": _at_least(args.seeds, "--seeds", 1),
        "seed": _at_least(args.seed, "--seed"),
        "measure": args.measure,
    }
    grid = _parse_grid(args.grid)
    inputs = {}
    try:
        if args.kind == "fmi-gap":
            if not args.scenario:
                raise CliError("fmi-gap needs --scenario FILE")
            scenario = _load_scenario(args.scenario, inputs)
            gen = _GENERATORS.get(args.measure or "tvd")
            if gen is None:
                raise CliError(f"unknown --measure {args.measure!r}")
            exact = _agent0_payment((b[0] for b in _exact_joints(*_exact_inputs(scenario))), gen)

            def cell(g: int, seed: int) -> float:
                reports = generate_reports(scenario, g, seed)
                emp = _agent0_payment(_empirical_joints(reports, ALL_PAIRS, None), gen)
                return abs(emp - exact)

        else:  # bts-gap
            world = CANONICAL_WORLD
            if args.scenario:
                scenario = _load_scenario(args.scenario, inputs)
                if not isinstance(scenario.prior, WorldModelPrior):
                    raise CliError("bts-gap needs a world-model prior")
                world = scenario.prior
            ideal = bts_idealized_scores(world).information_score
            preds = _predictive_table(world)  # NaN rows, of zero-prior signals, are never drawn

            def cell(g: int, seed: int) -> float:
                return _bts_population_gap(world, g, preds, ideal, rng_from_seed(seed))

        rows = [f"{g},{s},{cell(g, args.seed * 1_000_003 + g * 101 + s)!r}"
                for g in grid for s in range(args.seeds)]
    except PeerLabError as exc:
        return _emit_error(args.out, config, inputs, exc)
    header = "# " + json.dumps(_record(config, inputs, {}), sort_keys=True)
    _emit(args.out, "\n".join([header, "grid,seed,value", *rows]) + "\n")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, shared by every call: parsing leaves it as it was."""
    parser = argparse.ArgumentParser(prog="peerlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("measure", help="information measures of joint/tensor files")
    p.add_argument("--mi", choices=sorted(_GENERATORS) + ["shannon"], default=None)
    p.add_argument("--bregman", choices=sorted(_RULES), default=None)
    p.add_argument("--joint", help="rank-2 table JSON file")
    p.add_argument("--tensor", help="rank-3 table JSON file")
    p.add_argument("--out", default=None)

    p = sub.add_parser("mechanism", help="payment run over a scenario file")
    p.add_argument("--mechanism", required=True,
                   choices=["mip", "fmi", "bmi", "md", "ca", "sppm", "bts", "bts-idealized"])
    p.add_argument("--scenario")
    p.add_argument("--profile", help="signal/prediction profile JSON (bts)")
    p.add_argument("--measure", default=None, help="f generator (fmi/mip)")
    p.add_argument("--rule", default=None, help="scoring rule (bmi/sppm)")
    p.add_argument("-T", type=int, default=1000, help="questions to sample (empirical modes)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--exact", action="store_true", help="exact expected payments")
    p.add_argument("--d", type=int, default=1, help="comparison-subset size (md/ca)")
    p.add_argument("--alpha", type=float, default=None, help="information-score weight (bts)")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--out", default=None)

    p = sub.add_parser("verify", help="run a theorem-verification suite")
    p.add_argument("suite", help="suite id, e.g. dpi")
    p.add_argument("--instances", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--equality-tol", type=float, default=None)
    p.add_argument("--strictness-tol", type=float, default=None)
    p.add_argument("--out", default=None)

    p = sub.add_parser("sweep", help="convergence tables (long-format CSV)")
    p.add_argument("--kind", required=True, choices=["fmi-gap", "bts-gap"])
    p.add_argument("--scenario")
    p.add_argument("--grid", default="", help="comma-separated grid, e.g. 1000,10000")
    p.add_argument("--seeds", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--measure", default=None)
    p.add_argument("--out", default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:  # the command is looked up per call, so a wrapper put on a cmd_* function runs
        return globals()[f"cmd_{args.command}"](args)
    except CliError as exc:
        print(f"peerlab: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
