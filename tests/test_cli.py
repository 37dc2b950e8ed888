import builtins
import collections
import hashlib
import json
import math

import numpy as np
import pytest

from peerlab import (
    Distribution,
    JointDistribution,
    PairwisePrior,
    WorldModelPrior,
    save_scenario,
    truthful_scenario,
)
from peerlab.cli import main
from peerlab.verify import CANONICAL_WORLD


@pytest.fixture
def joint_file(tmp_path):
    path = tmp_path / "canonical.json"
    path.write_text(json.dumps({"schema_version": 1, "table": [[0.4, 0.1], [0.1, 0.4]]}))
    return str(path)


@pytest.fixture
def independent_file(tmp_path):
    path = tmp_path / "independent.json"
    path.write_text(json.dumps({"schema_version": 1, "table": [[0.25, 0.25], [0.25, 0.25]]}))
    return str(path)


@pytest.fixture
def scenario_file(tmp_path):
    prior = PairwisePrior(JointDistribution(np.array([[0.4, 0.1], [0.1, 0.4]])))
    path = tmp_path / "scenario.json"
    save_scenario(truthful_scenario(prior, 2), path)
    return str(path)


class TestMeasureCommand:
    def test_kl_canonical(self, joint_file, capsys):
        assert main(["measure", "--mi", "kl", "--joint", joint_file]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["value"] == pytest.approx(0.1927448, abs=1e-6)
        assert doc["units"] == "nats"
        assert doc["measure"] == "mi-kl"
        assert joint_file in doc["inputs"]

    def test_tvd_independent_zero(self, independent_file, capsys):
        assert main(["measure", "--mi", "tvd", "--joint", independent_file]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["value"] == pytest.approx(0.0, abs=1e-12)
        assert doc["units"] == "dimensionless"

    def test_malformed_file_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"table": [[0.5, ')
        code = main(["measure", "--mi", "kl", "--joint", str(bad)])
        assert code == 2
        err = capsys.readouterr().err
        assert "line" in err and "column" in err

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_parse_error_position_under_each_newline(self, tmp_path, capsys, newline):
        # lines are counted after newline translation, as text-mode open() reads the file
        bad = tmp_path / "bad.json"
        bad.write_bytes(newline.join(["{", '  "table": [[0.5, 0.5],', "  [0.1,, 0.4]]", "}"]).encode())
        assert main(["measure", "--mi", "kl", "--joint", str(bad)]) == 2
        assert capsys.readouterr().err == (
            f"peerlab: {bad}: parse error at line 3 column 8: Expecting value\n")

    def test_tensor_conditional_measure(self, tmp_path, capsys):
        t = np.zeros((2, 2, 2))
        t[0] = 0.5 * np.array([[0.64, 0.16], [0.04, 0.16]])
        t[1] = 0.5 * np.array([[0.04, 0.16], [0.64, 0.16]])
        path = tmp_path / "tensor.json"
        path.write_text(json.dumps({"schema_version": 1, "table": t.tolist()}))
        assert main(["measure", "--mi", "shannon", "--tensor", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["value"] > 0

    def test_bregman_selector(self, joint_file, capsys):
        assert main(["measure", "--bregman", "quadratic", "--joint", joint_file]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["value"] == pytest.approx(0.18, abs=1e-12)

    def test_requires_exactly_one_selector(self, joint_file, capsys):
        assert main(["measure", "--joint", joint_file]) == 2
        assert main(["measure", "--mi", "kl", "--bregman", "log", "--joint", joint_file]) == 2


class TestMechanismCommand:
    def test_fmi_exact_canonical(self, scenario_file, capsys):
        code = main(["mechanism", "--mechanism", "fmi", "--measure", "tvd",
                     "--scenario", scenario_file, "--exact"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["report"]["payments"] == [0.6000000000000001, 0.6000000000000001]

    def test_bts_degenerate_profile_exit_one(self, tmp_path, capsys):
        profile = tmp_path / "profile.json"
        profile.write_text(json.dumps({
            "signals": [0, 0, 0, 1],
            "predictions": [[0.7, 0.3]] * 4,
            "alpha": 3.0,
        }))
        code = main(["mechanism", "--mechanism", "bts", "--profile", str(profile)])
        assert code == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["error"]["type"] == "ZeroFrequency"

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_bts_non_finite_alpha_error_record(self, tmp_path, capsys, value):
        profile = tmp_path / "profile.json"
        profile.write_text(json.dumps({
            "signals": [0, 0, 1, 1],
            "predictions": [[0.7, 0.3]] * 4,
        }))
        code = main(["mechanism", "--mechanism", "bts", "--profile", str(profile),
                     f"--alpha={value}"])
        assert code == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["error"]["type"] == "DimensionMismatch"

    def test_byte_identical_reruns(self, scenario_file, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        args = ["mechanism", "--mechanism", "fmi", "--measure", "tvd",
                "--scenario", scenario_file, "-T", "500", "--seed", "9"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("mechanism", ["fmi", "md"])
    def test_seed_past_the_intp_range(self, scenario_file, tmp_path, mechanism):
        extra = ["--measure", "tvd"] if mechanism == "fmi" else ["--d", "1"]
        out = tmp_path / "pay.json"
        assert main(["mechanism", "--mechanism", mechanism, *extra, "--scenario", scenario_file,
                     "-T", "50", "--seed", "9223372036854775808", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["report"]["seed"] == 2**63

    def test_csv_format(self, scenario_file, tmp_path):
        out = tmp_path / "pay.csv"
        assert main(["mechanism", "--mechanism", "mip", "--measure", "kl",
                     "--scenario", scenario_file, "--format", "csv", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# {")
        assert lines[1] == "agent,payment,information_score,prediction_score,effort_cost,utility"
        assert len(lines) == 4

    def test_md_empirical(self, scenario_file, capsys):
        code = main(["mechanism", "--mechanism", "md", "--scenario", scenario_file,
                     "-T", "200", "--seed", "3", "--d", "2"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert abs(doc["report"]["payments"][0] - 0.3) < 0.15

    @pytest.mark.parametrize("mechanism,d", [("md", "0"), ("ca", "0"), ("ca", "-1")])
    def test_subset_size_below_one_error_record(self, scenario_file, capsys, mechanism, d):
        code = main(["mechanism", "--mechanism", mechanism, "--scenario", scenario_file,
                     "-T", "50", "--d", d])
        assert code == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["error"]["type"] == "DimensionMismatch"
        assert "report" not in doc

    def test_sppm_exact(self, scenario_file, capsys):
        code = main(["mechanism", "--mechanism", "sppm", "--scenario", scenario_file,
                     "--rule", "log", "--exact"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["report"]["payments"][0] == pytest.approx(0.1927448, abs=1e-6)


class TestVerifyCommand:
    def test_pass_exit_zero(self, tmp_path, capsys):
        out = tmp_path / "verdict.json"
        code = main(["verify", "accuracy-gain", "--instances", "40", "--seed", "7",
                     "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["pass"] is True
        assert doc["config"]["instances"] == 40

    def test_unknown_suite_exit_two(self, capsys):
        assert main(["verify", "nosuch"]) == 2
        assert "unknown suite" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value", [
        ("--equality-tol", "inf"), ("--equality-tol", "nan"), ("--strictness-tol", "inf"),
    ])
    def test_non_finite_tolerance_exit_two(self, capsys, flag, value):
        assert main(["verify", "dpi", "--instances", "5", flag, value]) == 2
        assert "tolerances" in capsys.readouterr().err

    def test_violations_exit_one(self, capsys):
        # a tight equality tolerance forces violations; dpi's strict claims, certified by
        # their proved bounds, hold at any strictness tolerance
        code = main(["verify", "dpi", "--instances", "200", "--seed", "4",
                     "--equality-tol", "1e-300"])
        assert code == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["pass"] is False
        assert doc["violations"]

    def test_verdict_bytes_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert main(["verify", "md-equivalence", "--instances", "150",
                         "--seed", "2", "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestScenarioErrors:
    @pytest.mark.parametrize("argv", [
        ["mechanism", "--mechanism", "mip"],
        ["sweep", "--kind", "fmi-gap", "--grid", "10"],
        ["sweep", "--kind", "bts-gap", "--grid", "10"],
    ])
    def test_invalid_scenario_exit_two(self, tmp_path, capsys, argv):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema_version": 1, "strategies": []}))
        assert main(argv + ["--scenario", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"peerlab: {path}: ")


_PREDICTIONS = [[0.6, 0.4]] * 4


class TestWrongTypeInputs:
    """Valid JSON of the wrong shape is a clean exit-2 error naming the file."""

    @pytest.mark.parametrize("doc", [
        {"signals": [0, 0, 1, 1], "predictions": _PREDICTIONS, "alpha": "x"},
        {"signals": [0, 0, 1, 1], "predictions": _PREDICTIONS, "alpha": None},
        {"signals": [0, 0, 1, 1], "predictions": 5},
        {"signals": [0.5, 0, 1, 1], "predictions": _PREDICTIONS},
        {"signals": [0, 0, 1, 1], "predictions": _PREDICTIONS[:3] + [{"p": 0.5}]},
        [[0, 0, 1, 1], _PREDICTIONS],
    ])
    def test_bts_profile(self, tmp_path, capsys, doc):
        path = tmp_path / "profile.json"
        path.write_text(json.dumps(doc))
        assert main(["mechanism", "--mechanism", "bts", "--profile", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"peerlab: {path}: ") and captured.out == ""

    @pytest.mark.parametrize("doc", [[1, 2], {"schema_version": 1, "prior": 5, "strategies": []}])
    @pytest.mark.parametrize("argv", [
        ["mechanism", "--mechanism", "mip"],
        ["sweep", "--kind", "bts-gap", "--grid", "10"],
    ])
    def test_scenario(self, tmp_path, capsys, doc, argv):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        assert main(argv + ["--scenario", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"peerlab: {path}: ")

    def test_missing_profile_file(self, tmp_path, capsys):
        path = tmp_path / "absent.json"
        assert main(["mechanism", "--mechanism", "bts", "--profile", str(path)]) == 2
        assert capsys.readouterr().err == f"peerlab: {path}: No such file or directory\n"


@pytest.fixture
def input_files(joint_file, scenario_file, tmp_path):
    profile, world = tmp_path / "profile.json", tmp_path / "world.json"
    profile.write_text(json.dumps({"signals": [0, 0, 1, 1], "predictions": [[0.7, 0.3]] * 4}))
    save_scenario(truthful_scenario(CANONICAL_WORLD, 3), world)
    return {"<joint>": joint_file, "<scenario>": scenario_file, "<profile>": str(profile),
            "<world>": str(world)}


class TestInputReads:
    """Each input file is opened once, and the sha256 recorded is of the bytes parsed."""

    @pytest.mark.parametrize("argv", [
        ["measure", "--mi", "kl", "--joint", "<joint>"],
        ["mechanism", "--mechanism", "mip", "--scenario", "<scenario>"],
        ["mechanism", "--mechanism", "bts", "--profile", "<profile>"],
        ["sweep", "--kind", "fmi-gap", "--grid", "10", "--seeds", "1", "--scenario", "<scenario>"],
        ["sweep", "--kind", "bts-gap", "--grid", "10", "--seeds", "1", "--scenario", "<world>"],
    ])
    def test_each_input_opened_once(self, input_files, monkeypatch, capsys, argv):
        argv = [input_files.get(token, token) for token in argv]
        path, real_open, opened = argv[-1], builtins.open, collections.Counter()

        def counting_open(file, *args, **kwargs):
            opened[str(file)] += 1
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)
        assert main(argv) == 0
        monkeypatch.undo()
        assert opened[path] == 1
        out = capsys.readouterr().out
        record = json.loads(out.splitlines()[0][2:] if out.startswith("# ") else out)
        with open(path, "rb") as fh:
            assert record["inputs"] == {path: hashlib.sha256(fh.read()).hexdigest()}


class TestSweepCommand:
    def test_fmi_gap_table(self, scenario_file, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--kind", "fmi-gap", "--scenario", scenario_file,
                     "--grid", "500,2000", "--seeds", "3", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[1] == "grid,seed,value"
        assert len(lines) == 2 + 2 * 3
        assert lines[2].startswith("500,0,")

    def test_empty_grid_header_only(self, scenario_file, capsys):
        assert main(["sweep", "--kind", "fmi-gap", "--scenario", scenario_file,
                     "--grid", "", "--seeds", "5"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == "grid,seed,value"
        assert len(lines) == 2

    def test_header_has_no_jobs_key(self, scenario_file, capsys):
        assert main(["sweep", "--kind", "fmi-gap", "--scenario", scenario_file,
                     "--grid", "100", "--seeds", "1"]) == 0
        header = json.loads(capsys.readouterr().out.splitlines()[0][2:])
        assert "jobs" not in header["config"]
        with pytest.raises(SystemExit):
            main(["sweep", "--kind", "fmi-gap", "--scenario", scenario_file, "--jobs", "2"])

    def test_unsupported_prior_error_record(self, tmp_path, capsys):
        prior = PairwisePrior(JointDistribution(np.array([[0.4, 0.1], [0.1, 0.4]])))
        path = tmp_path / "four.json"
        save_scenario(truthful_scenario(prior, 4), path)
        code = main(["sweep", "--kind", "fmi-gap", "--scenario", str(path),
                     "--grid", "10", "--seeds", "1"])
        assert code == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["error"]["type"] == "UnsupportedPriorMode"
        assert doc["config"]["kind"] == "fmi-gap"

    def test_bts_gap_kind(self, tmp_path):
        out = tmp_path / "bts.csv"
        code = main(["sweep", "--kind", "bts-gap", "--grid", "10,50", "--seeds", "2",
                     "--out", str(out)])
        assert code == 0
        assert len(out.read_text().splitlines()) == 6

    def test_bts_gap_zero_prior_signal(self, tmp_path, capsys):
        # signal 1 has zero prior probability, so no agent of the sweep draws it
        states = (Distribution(np.array([0.5, 0.0, 0.5])), Distribution(np.array([0.2, 0.0, 0.8])))
        path = tmp_path / "world.json"
        save_scenario(truthful_scenario(WorldModelPrior(Distribution(np.array([0.5, 0.5])),
                                                        states), 3), path)
        assert main(["mechanism", "--mechanism", "bts-idealized", "--scenario", str(path)]) == 0
        capsys.readouterr()
        assert main(["sweep", "--kind", "bts-gap", "--scenario", str(path), "--grid", "10,50",
                     "--seeds", "2"]) == 0
        rows = capsys.readouterr().out.splitlines()[2:]
        assert len(rows) == 4 and all(math.isfinite(float(row.split(",")[2])) for row in rows)

    def test_out_dir_env(self, scenario_file, tmp_path, monkeypatch):
        monkeypatch.setenv("PEERLAB_OUT_DIR", str(tmp_path / "outputs"))
        assert main(["sweep", "--kind", "fmi-gap", "--scenario", scenario_file,
                     "--grid", "100", "--seeds", "1", "--out", "table.csv"]) == 0
        assert (tmp_path / "outputs" / "table.csv").exists()


class TestNegativeCounts:
    """Seeds and grid points are non-negative and a sweep needs a seed count >= 1:
    anything else is a clean exit-2 error, not a traceback or an empty table."""

    @pytest.mark.parametrize("argv, message", [
        (["verify", "bts", "--seed", "-1", "--instances", "2"], "seed must be >= 0"),
        (["sweep", "--kind", "bts-gap", "--grid", "10", "--seeds", "1", "--seed", "-1"],
         "--seed must be >= 0"),
        (["sweep", "--kind", "bts-gap", "--grid=-5", "--seeds", "1"], "--grid point must be >= 0"),
        (["sweep", "--kind", "bts-gap", "--grid", "10", "--seeds", "0"], "--seeds must be >= 1"),
        (["sweep", "--kind", "bts-gap", "--grid", "10", "--seeds", "-2"], "--seeds must be >= 1"),
    ])
    def test_exit_two(self, capsys, argv, message):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"peerlab: {message}") and captured.out == ""

    @pytest.mark.parametrize("mechanism", ["fmi", "mip"])
    def test_mechanism_seed(self, scenario_file, capsys, mechanism):
        argv = ["mechanism", "--mechanism", mechanism, "--scenario", scenario_file, "--seed", "-1"]
        assert main(argv) == 2
        assert capsys.readouterr().err == "peerlab: --seed must be >= 0, got -1\n"
