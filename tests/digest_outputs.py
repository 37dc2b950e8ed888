"""Digest a fixed set of peerlab CLI outputs, to check two versions for byte identity.

Run it once per version, with PYTHONPATH pointing at that version's ``src``::

    PYTHONPATH=src python tests/digest_outputs.py --keep /tmp/new
    PYTHONPATH=../old/src python tests/digest_outputs.py --keep /tmp/old
    python tests/digest_outputs.py --diff /tmp/old /tmp/new

It prints one sha256 per output and a combined digest over all of them.  The
outputs are the nine ``verify`` suites at seeds 0 and 7 (fixed instance
counts), every ``mechanism`` over fixed world-model, pairwise and full-joint
scenario files with and without efforts in json and csv, ``measure`` on a
joint and a tensor file, both ``sweep`` kinds, and three error cases.  A
command that raises instead of writing an output is digested as its
exception type.  ``--keep DIR`` also writes every output to DIR; ``--diff``
compares two such directories field by field and prints, per changed field,
the largest relative change of a float (|a - b| / max(1, |b|)) or the two
differing values.

pytest does not collect this file.
"""

from __future__ import annotations

import argparse
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


def _scenario(rng, mode: str, efforts: bool) -> dict:
    m, n = {"world": (3, 4), "pairwise": (3, 2), "full": (2, 3)}[mode]
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
    for kind in ("joint", "tensor"):
        for flag, value in [("--mi", v) for v in ("shannon",) + GENERATORS] + [
                ("--bregman", r) for r in RULES]:
            out.append((f"measure-{kind}-{value}",
                        ["measure", flag, value, f"--{kind}", paths[kind]]))
    sweep = ["sweep", "--kind", "fmi-gap", "--grid", "100,400", "--seeds", "3", "--seed", "2"]
    out.append(("sweep-fmi-gap", sweep + ["--scenario", paths["pairwise"]]))
    out.append(("sweep-fmi-gap-four-agents", sweep + ["--scenario", paths["pairwise-four"]]))
    out.append(("sweep-bts-gap", ["sweep", "--kind", "bts-gap", "--grid", "10,40", "--seeds", "2"]))
    return out


def run(keep: str | None) -> None:
    from peerlab.cli import main

    with tempfile.TemporaryDirectory() as workdir:
        paths = write_inputs(workdir)
        combined = hashlib.sha256()
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
    """A float from a JSON number or a CSV cell; None for anything else."""
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        return None
    try:
        return float(value)
    except ValueError:
        return None


def diff(old_dir: str, new_dir: str) -> None:
    for name in sorted(set(os.listdir(old_dir)) | set(os.listdir(new_dir))):
        try:
            old = _load(open(os.path.join(old_dir, name)).read())
            new = _load(open(os.path.join(new_dir, name)).read())
        except FileNotFoundError:
            print(f"{name}: present on one side only")
            continue
        if old == new:
            continue
        a, b = dict(_leaves(old)), dict(_leaves(new))
        if a.keys() != b.keys():
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
                print(f"{name}: {path}: {a[path]!r} -> {b[path]!r}")
        for field, rel in sorted(worst.items()):
            print(f"{name}: {field}: largest relative change {rel:.3g}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--keep", help="also write every output into this directory")
    parser.add_argument("--diff", nargs=2, metavar=("OLD", "NEW"),
                        help="compare two --keep directories instead of running")
    args = parser.parse_args()
    if args.diff:
        diff(*args.diff)
    else:
        run(args.keep)
    sys.exit(0)
