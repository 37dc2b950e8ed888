"""Digest a fixed set of peerlab CLI outputs, to check two versions for byte identity.

Run it once per version, with PYTHONPATH pointing at that version's ``src``::

    PYTHONPATH=src python tests/digest_outputs.py --keep /tmp/new
    PYTHONPATH=../old/src python tests/digest_outputs.py --keep /tmp/old
    python tests/digest_outputs.py --diff /tmp/old /tmp/new

It prints one sha256 per output and a combined digest over all of them.  The
outputs are the nine ``verify`` suites at seeds 0 and 7 (fixed instance
counts), the two one-table suites (bregman-quasi, accuracy-gain) under
``--equality-tol 1e-300`` so that their violation payloads are digested too,
bregman-quasi at 1100 instances (over four of the 256-instance batches its
seeds are hashed in, and not a multiple of one), every ``mechanism`` over fixed
world-model, pairwise and full-joint scenario files with and without efforts
in json and csv, ``measure`` on a joint and a tensor file, both ``sweep``
kinds (``bts-gap`` on the built-in world and on two world-model scenario
files, one of them with three states), five error cases (two of them
``bts`` profiles with a zero prediction and a lone dissenter), and last the
three exact-payment suites (effort, dominant-truthfulness, truth-monotone) at
100 instances under ``--equality-tol 1e-300``, whose violations carry the grid
utilities, the mixture sides and both payments, then fmi and bmi on the
world-model scenario with efforts at T = 2500 questions (40 of the count
kernel's 64-question words, the last one partial), then exact mip and sppm on
a 200-agent, 4-signal world-model scenario with efforts, whose report tables
the exact engines build in five blocks of agents, then dpi at 300
instances under ``--equality-tol 1e-300 --strictness-tol 1``, whose violations
carry the joints, channels and divergence inputs of its sampled instances, and
last scenario-equivalence at 40 instances and seed 11, which draws three-agent
full-joint priors (each agent relabeled by its own map) with and without
efforts, then ``mechanism bts-idealized`` and ``sweep --kind bts-gap`` on a
9-agent, 6-signal world-model scenario with four states, then effort at 1100
instances and seed 11 under ``--equality-tol 1e-300`` (each (alphabet, peer
count) stack spanning over four 256-instance seed batches, with violation
payloads), then md-equivalence at 300 instances and seed 3 under
``--equality-tol 1e-300``, whose violations carry the rewards and half
total-variation informations of the truthful and the drawn report pairs, and
last accuracy-gain at 1100 instances and seed 11 under ``--equality-tol
1e-300``, whose violations carry the stacked accuracy gain of every tensor
shape's stack next to its conditional information, and last
truth-monotone at 985 instances and seed 14 and dominant-truthfulness at 514
instances and seed 255, whose last instances drop a payment strictly by less
than the strictness tolerance, as their proved pair bounds allow, and last exact
mip and sppm on a 5-agent, 3-signal full-joint scenario with efforts, whose pair
marginals each add 27 cells, so that a change in their summation order shows, and
last effort at its default 1000 instances and seed 5 under ``--equality-tol 1e-300``:
every (alphabet, peer count) stack of the check mixes all four generators, with violation payloads that carry each generator's costs, grid
utilities and mixture sides.  A
command that raises instead of writing an output is digested as its exception
type.
``--keep DIR`` also writes every output to DIR, and each command's exit status to
DIR/_status.json; ``--diff`` compares two such directories field by field and prints, per
changed field, the largest relative change of a float (|a - b| / max(1, |b|)) or the two
differing values.  A verdict's violations and findings are matched by (claim or kind,
instance), not by list position: it lists the entries that went or appeared, says when the
matched ones come in another order, and compares each matched pair field by field.  It ends with one summary line: the outputs compared, the outputs changed,
how many of those changed an exit status, their structure or a field that is not a float (an
integer such as a claim's violation count, a string, a null), and the largest relative float
change among the others.  It exits 1 when any output changed that way, else 0.

pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import hashlib
import io
import json
import math
import os
import sys
import tempfile

import numpy as np

SUITES = {
    "dpi": 300,
    "dominant-truthfulness": 100,
    "truth-monotone": 100,
    "effort": 40,
    "bregman-quasi": 300,
    "accuracy-gain": 200,
    "md-equivalence": 201,
    "bts": 40,
    "scenario-equivalence": 8,
}
SCENARIOS = ("world", "world-effort", "pairwise", "pairwise-effort", "full", "full-effort")
GENERATORS = ("kl", "tvd", "chi2", "hellinger")
RULES = ("log", "quadratic")


def _dist(rng, m: int, zero: bool = False) -> list[float]:
    w = np.round(rng.dirichlet(np.ones(m)), 6) + 1e-3
    if zero:
        w[0] = 0.0
    return (w / w.sum()).tolist()


def _scenario(rng, mode: str, efforts: bool, size: tuple[int, int] | None = None) -> dict:
    m, n = size or {"world": (3, 4), "pairwise": (3, 2), "full": (2, 3)}[mode]
    if mode == "world":
        prior = {"mode": "world_model", "state_probs": _dist(rng, 2),
                 "states": [_dist(rng, m) for _ in range(2)]}
    elif mode == "pairwise":
        prior = {"mode": "pairwise", "symmetric": False,
                 "table": np.reshape(_dist(rng, m * m), (m, m)).tolist()}
    else:
        prior = {"mode": "full_joint", "tensor": np.reshape(_dist(rng, m**n), (m,) * n).tolist()}
    doc = {"schema_version": 1, "prior": prior, "efforts": None,
           "strategies": [{"channel": [_dist(rng, m) for _ in range(m)], "label": "mixed"}
                          for _ in range(n)]}
    if efforts:
        doc["efforts"] = [{"full_effort_prob": float(np.round(rng.uniform(0.3, 1.0), 6)),
                           "cost": 0.05, "no_effort_report": None} for _ in range(n)]
    return doc


def write_inputs(workdir: str) -> dict[str, str]:
    rng = np.random.default_rng(20161605)
    docs = {}
    for mode in ("world", "pairwise", "full"):
        docs[mode] = _scenario(rng, mode, False)
        docs[f"{mode}-effort"] = _scenario(rng, mode, True)
    docs["pairwise-four"] = _scenario(rng, "pairwise", False)
    docs["pairwise-four"]["strategies"] *= 2
    joint = np.reshape(_dist(rng, 9), (3, 3))
    joint[0, 2] = joint[2, 0] = 0.0  # only-U and only-V cells
    tensor = np.reshape(_dist(rng, 12), (3, 2, 2))
    tensor[1] = 0.0  # a zero-mass slice
    tensor[2, 0, 1] = 0.0
    docs["joint"] = {"table": (joint / joint.sum()).tolist()}
    docs["tensor"] = {"table": (tensor / tensor.sum()).tolist()}
    docs["profile"] = {"signals": (list(range(3)) * 7)[:20],
                       "predictions": [_dist(rng, 3) for _ in range(20)], "alpha": 3.0}
    # drawn after every other input, so that adding it left their bytes as they were
    docs["world-three-states"] = _scenario(rng, "world", False)
    docs["world-three-states"]["prior"] = {"mode": "world_model", "state_probs": _dist(rng, 3),
                                           "states": [_dist(rng, 3) for _ in range(3)]}
    # agent 4 predicts zero on a reported signal; agent 0 is alone with signal 2
    docs["profile-zero-prediction"] = {"signals": [0, 1, 0, 1, 0, 1],
                                       "predictions": [[0.5, 0.3, 0.2]] * 4 + [[0.0, 0.6, 0.4]] * 2}
    docs["profile-lone-dissenter"] = {"signals": [2, 0, 1, 0, 1, 1],
                                      "predictions": [[0.4, 0.4, 0.2]] * 6}
    # 200 agents of 4 signals: the exact engines build its report tables in five blocks
    docs["world-effort-200"] = _scenario(rng, "world", True, (4, 200))
    # 9 agents of 6 signals over 4 world states, for the reported states and predictions
    docs["world-four-states"] = _scenario(rng, "world", False, (6, 9))
    docs["world-four-states"]["prior"] = {"mode": "world_model", "state_probs": _dist(rng, 4),
                                          "states": [_dist(rng, 6) for _ in range(4)]}
    # 5 agents of 3 signals on a full joint with efforts: each pair marginal sums 27 cells
    docs["full-effort-five"] = _scenario(rng, "full", True, (3, 5))
    paths = {}
    for name, doc in docs.items():
        paths[name] = os.path.join(workdir, f"{name}.json")
        with open(paths[name], "w") as fh:
            json.dump(doc, fh, sort_keys=True)
    return paths


def commands(paths: dict[str, str]) -> list[tuple[str, list[str]]]:
    out = []
    for suite, instances in SUITES.items():
        for seed in (0, 7):
            out.append((f"verify-{suite}-{seed}",
                        ["verify", suite, "--instances", str(instances), "--seed", str(seed)]))
    for suite in ("bregman-quasi", "accuracy-gain"):
        out.append((f"verify-{suite}-forced", ["verify", suite, "--instances", str(SUITES[suite]),
                                               "--seed", "3", "--equality-tol", "1e-300"]))
    out.append(("verify-bregman-quasi-1100",
                ["verify", "bregman-quasi", "--instances", "1100", "--seed", "11"]))
    runs = [("mip", ["--measure", g]) for g in GENERATORS] + [("mip", ["--rule", r]) for r in RULES]
    runs += [("fmi", ["--measure", g]) for g in GENERATORS] + [("bmi", ["--rule", r]) for r in RULES]
    runs += [("fmi", ["--exact", "--measure", "kl"]), ("bmi", ["--exact", "--rule", "quadratic"])]
    runs += [("sppm", ["--rule", r]) for r in RULES]
    runs += [("sppm", ["--exact", "--rule", r]) for r in RULES]
    runs += [(name, ["--d", d]) for name in ("md", "ca") for d in ("1", "2")]
    for scenario in SCENARIOS:
        for name, extra in runs:
            for fmt in ("json", "csv"):
                argv = ["mechanism", "--mechanism", name, "--scenario", paths[scenario],
                        "-T", "400", "--seed", "3", "--format", fmt, *extra]
                out.append((f"mechanism-{scenario}-{name}{''.join(extra)}-{fmt}", argv))
        out.append((f"mechanism-{scenario}-bts-idealized",
                    ["mechanism", "--mechanism", "bts-idealized", "--scenario", paths[scenario]]))
    bts = ["mechanism", "--mechanism", "bts", "--profile", paths["profile"]]
    for fmt in ("json", "csv"):
        out.append((f"mechanism-bts-{fmt}", bts + ["--format", fmt]))
    out.append(("mechanism-bts-alpha-nan", bts + ["--alpha=nan"]))
    for name in ("zero-prediction", "lone-dissenter"):
        out.append((f"mechanism-bts-{name}",
                    ["mechanism", "--mechanism", "bts", "--profile", paths[f"profile-{name}"]]))
    for kind in ("joint", "tensor"):
        for flag, value in [("--mi", v) for v in ("shannon",) + GENERATORS] + [
                ("--bregman", r) for r in RULES]:
            out.append((f"measure-{kind}-{value}",
                        ["measure", flag, value, f"--{kind}", paths[kind]]))
    sweep = ["sweep", "--kind", "fmi-gap", "--grid", "100,400", "--seeds", "3", "--seed", "2"]
    out.append(("sweep-fmi-gap", sweep + ["--scenario", paths["pairwise"]]))
    out.append(("sweep-fmi-gap-four-agents", sweep + ["--scenario", paths["pairwise-four"]]))
    bts_gap = ["sweep", "--kind", "bts-gap", "--grid", "10,40,2000", "--seeds", "2"]
    out.append(("sweep-bts-gap", bts_gap))
    for scenario in ("world", "world-three-states"):
        out.append((f"sweep-bts-gap-{scenario}", bts_gap + ["--seed", "5", "--scenario", paths[scenario]]))
    # after every other command, so that adding them left the earlier list as it was
    for suite in ("effort", "dominant-truthfulness", "truth-monotone"):
        out.append((f"verify-{suite}-forced", ["verify", suite, "--instances", "100",
                                               "--seed", "3", "--equality-tol", "1e-300"]))
    # questions over many 64-question words of the count kernel, the last one partial
    for name, extra in (("fmi", ["--measure", "kl"]), ("bmi", ["--rule", "log"])):
        out.append((f"mechanism-world-effort-{name}-T2500",
                    ["mechanism", "--mechanism", name, "--scenario", paths["world-effort"],
                     "-T", "2500", "--seed", "9", *extra]))
    for name, extra in (("mip", ["--measure", "hellinger"]), ("sppm", ["--exact", "--rule", "log"])):
        out.append((f"mechanism-world-effort-200-{name}{''.join(extra)}",
                    ["mechanism", "--mechanism", name, "--scenario", paths["world-effort-200"],
                     *extra]))
    # equality-tol and strictness claims violated, so the violations carry each witness;
    # divergence_strict and mi_dpi_strict fail only where their proved bound exceeds 1, at no
    # instance here
    out.append(("verify-dpi-forced", ["verify", "dpi", "--instances", "300", "--seed", "3",
                                      "--equality-tol", "1e-300", "--strictness-tol", "1"]))
    # seed 11 draws three-agent full-joint priors, whose twins relabel each agent differently,
    # with and without efforts
    out.append(("verify-scenario-equivalence-40-11",
                ["verify", "scenario-equivalence", "--instances", "40", "--seed", "11"]))
    out.append(("mechanism-world-four-states-bts-idealized",
                ["mechanism", "--mechanism", "bts-idealized", "--scenario",
                 paths["world-four-states"]]))
    out.append(("sweep-bts-gap-world-four-states",
                bts_gap + ["--seed", "5", "--scenario", paths["world-four-states"]]))
    # effort stacks spanning over four 256-instance seed batches, with the violation
    # payloads of every stack
    out.append(("verify-effort-1100-forced",
                ["verify", "effort", "--instances", "1100", "--seed", "11",
                 "--equality-tol", "1e-300"]))
    out.append(("verify-md-equivalence-forced",
                ["verify", "md-equivalence", "--instances", "300", "--seed", "3",
                 "--equality-tol", "1e-300"]))
    # the stacked accuracy gain of every shape's stack, with its payloads
    out.append(("verify-accuracy-gain-1100-forced",
                ["verify", "accuracy-gain", "--instances", "1100", "--seed", "11",
                 "--equality-tol", "1e-300"]))
    # strict payment drops below strictness_tol, whose pair bounds lie below it too
    out.append(("verify-truth-monotone-985-14",
                ["verify", "truth-monotone", "--instances", "985", "--seed", "14"]))
    out.append(("verify-dominant-truthfulness-514-255",
                ["verify", "dominant-truthfulness", "--instances", "514", "--seed", "255"]))
    # pair marginals of 27 cells each, whose sums can see the order they are added in
    for name, extra in (("mip", ["--measure", "kl"]), ("sppm", ["--exact", "--rule", "log"])):
        out.append((f"mechanism-full-effort-five-{name}{''.join(extra)}",
                    ["mechanism", "--mechanism", name, "--scenario", paths["full-effort-five"],
                     *extra]))
    # every (alphabet, peer count) stack mixes the four generators
    out.append(("verify-effort-1000-5-forced",
                ["verify", "effort", "--instances", "1000", "--seed", "5",
                 "--equality-tol", "1e-300"]))
    return out


STATUS = "_status.json"


def run(keep: str | None) -> None:
    from peerlab.cli import main

    with tempfile.TemporaryDirectory() as workdir:
        paths = write_inputs(workdir)
        combined = hashlib.sha256()
        statuses = {}
        for name, argv in commands(paths):
            target = os.path.join(workdir, "out")
            if os.path.exists(target):
                os.remove(target)
            try:
                with contextlib.redirect_stderr(io.StringIO()):
                    status = f"exit {main(argv + ['--out', target])}"
            except Exception as exc:  # the program raised: digest the exception type
                status = f"exception {type(exc).__name__}"
            data = f"no output, {status}\n".encode()
            if os.path.exists(target):
                with open(target, "rb") as fh:
                    # input paths differ between runs; replace the temporary directory
                    data = fh.read().replace(workdir.encode(), b"$INPUTS")
            if keep:
                os.makedirs(keep, exist_ok=True)
                with open(os.path.join(keep, name), "wb") as fh:
                    fh.write(data)
            digest = hashlib.sha256(data + status.encode()).hexdigest()
            combined.update(f"{name} {digest}\n".encode())
            print(f"{digest}  {name}  ({status})")
            statuses[name] = status
    if keep:
        with open(os.path.join(keep, STATUS), "w") as fh:
            json.dump(statuses, fh, indent=1, sort_keys=True)
    print(f"{combined.hexdigest()}  combined")


def _load(data: str):
    if data.startswith("# "):  # csv with a JSON header line
        header, *rows = data.splitlines()
        return {"header": json.loads(header[2:]), "rows": [row.split(",") for row in rows]}
    try:
        return json.loads(data)
    except ValueError:
        return data


def _leaves(obj, path=""):
    if isinstance(obj, dict):
        for key in sorted(obj):
            yield from _leaves(obj[key], f"{path}.{key}")
    elif isinstance(obj, list):
        for i, item in enumerate(obj):
            yield from _leaves(item, f"{path}[{i}]")
    else:
        yield path, obj


def _number(value):
    """A float from a JSON float or a CSV cell written as one; None for anything else, an
    integer included (a count is compared exactly)."""
    if isinstance(value, float):
        return value
    if not isinstance(value, str) or value.lstrip("-").isdigit():
        return None
    try:
        return float(value)
    except ValueError:
        return None


def _keyed(obj, field: str, name: str):
    """The entries of a verdict's list ``field`` as a dict keyed "name@instance#k" (the k-th
    entry of that pair), or None when ``obj`` holds no such list."""
    entries = obj.get(field) if isinstance(obj, dict) else None
    if not isinstance(entries, list) or not all(
            isinstance(e, dict) and name in e and "instance" in e for e in entries):
        return None
    seen: collections.Counter = collections.Counter()
    keyed = {}
    for entry in entries:
        pair = f"{entry[name]}@{entry['instance']}"
        seen[pair] += 1
        keyed[f"{pair}#{seen[pair]}"] = entry
    return keyed


def _match_entries(name: str, old, new) -> bool:
    """Key the violations and findings of both verdicts in place, keeping only the entries on
    both sides; print those that went or appeared, and a change of order.  True if any did."""
    hard = False
    for field, by in (("violations", "claim"), ("findings", "kind")):
        a, b = _keyed(old, field, by), _keyed(new, field, by)
        if a is None or b is None:
            continue
        went, came = [k for k in a if k not in b], [k for k in b if k not in a]
        for label, keys in (("went", went), ("appeared", came)):
            if keys:
                print(f"{name}: {len(keys)} {field} {label}: {', '.join(keys[:10])}"
                      + (", ..." if len(keys) > 10 else ""))
        old[field], new[field] = ({k: v for k, v in d.items() if k in a and k in b}
                                  for d in (a, b))
        reordered = list(old[field]) != list(new[field])
        if reordered:
            print(f"{name}: {field} matched in another order")
        hard = hard or bool(went or came) or reordered
    return hard


def _statuses(directory: str) -> dict:
    try:
        with open(os.path.join(directory, STATUS)) as fh:
            return json.load(fh)
    except FileNotFoundError:  # kept before the statuses were
        return {}


def diff(old_dir: str, new_dir: str) -> int:
    """Print each changed field, then the summary line; 1 if a status, a structure or a field
    that is not a float changed, else 0."""
    old_status, new_status = _statuses(old_dir), _statuses(new_dir)
    names = sorted((set(os.listdir(old_dir)) | set(os.listdir(new_dir))) - {STATUS})
    changed, hard, largest = 0, 0, 0.0
    for name in names:
        try:
            old = _load(open(os.path.join(old_dir, name)).read())
            new = _load(open(os.path.join(new_dir, name)).read())
        except FileNotFoundError:
            print(f"{name}: present on one side only")
            changed, hard = changed + 1, hard + 1
            continue
        strict = old_status.get(name) != new_status.get(name)
        if strict:
            print(f"{name}: {old_status.get(name)} -> {new_status.get(name)}")
        if old == new and not strict:
            continue
        strict = _match_entries(name, old, new) or strict
        a, b = dict(_leaves(old)), dict(_leaves(new))
        if a.keys() != b.keys():
            strict = True
            print(f"{name}: structure differs; only old {sorted(a.keys() - b.keys())[:5]}, "
                  f"only new {sorted(b.keys() - a.keys())[:5]}")
        worst: dict[str, float] = {}
        for path in sorted(a.keys() & b.keys()):
            x, y = _number(a[path]), _number(b[path])
            if a[path] == b[path] or (x is not None and y is not None and math.isnan(x)
                                      and math.isnan(y)):
                continue
            if x is not None and y is not None and math.isfinite(x) and math.isfinite(y):
                field = "".join(c for c in path if not c.isdigit()).replace("[]", "[*]")
                rel = abs(y - x) / max(1.0, abs(x))
                worst[field] = max(worst.get(field, 0.0), rel)
            else:
                strict = True
                print(f"{name}: {path}: {a[path]!r} -> {b[path]!r}")
        for field, rel in sorted(worst.items()):
            print(f"{name}: {field}: largest relative change {rel:.3g}")
        changed, hard = changed + 1, hard + strict
        if not strict:  # floats of a changed structure may not be the same quantity
            largest = max([largest, *worst.values()])
    print(f"{len(names)} outputs compared, {changed} changed, {hard} of them in an exit status, "
          f"their structure or a field that is not a float; largest relative float change in "
          f"the others {largest:.3g}")
    return 1 if hard else 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--keep", help="also write every output into this directory")
    parser.add_argument("--diff", nargs=2, metavar=("OLD", "NEW"),
                        help="compare two --keep directories instead of running")
    args = parser.parse_args()
    sys.exit(diff(*args.diff) if args.diff else run(args.keep))
