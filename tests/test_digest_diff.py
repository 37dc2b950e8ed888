"""``digest_outputs.py --diff`` on two kept directories: a changed float alone is summarised
and exits 0; a changed exit status, integer (a claim's violation count, a CSV agent index),
string, null or structure exits 1, and the largest relative float change in the summary line
counts only the outputs without such a change."""

import json

import pytest

import digest_outputs

VERDICT = {"claims": [{"name": "mixture_convexity", "violations": 18}], "passed": False,
           "payments": [0.25, 0.5]}
CSV = "# {}\nagent,payment\n0,0.25\n1,0.5\n"


def keep(directory, outputs: dict, statuses: dict):
    directory.mkdir()
    for name, data in outputs.items():
        (directory / name).write_text(data if isinstance(data, str) else json.dumps(data))
    (directory / digest_outputs.STATUS).write_text(json.dumps(statuses))
    return str(directory)


def run_diff(tmp_path, capsys, new_outputs: dict, new_statuses: dict):
    old = keep(tmp_path / "old", {"verdict": VERDICT, "csv": CSV},
               {"verdict": "exit 1", "csv": "exit 0"})
    new = keep(tmp_path / "new", {"verdict": VERDICT, "csv": CSV, **new_outputs},
               {"verdict": "exit 1", "csv": "exit 0", **new_statuses})
    code = digest_outputs.diff(old, new)
    return code, capsys.readouterr().out.splitlines()


def test_float_changes_alone_pass_with_their_largest_change(tmp_path, capsys):
    code, lines = run_diff(tmp_path, capsys, {
        "verdict": {**VERDICT, "payments": [0.25, 0.5 + 2**-53]},
        "csv": CSV.replace("0.25", "0.2500000000000001")}, {})
    assert code == 0
    assert lines[-1] == ("2 outputs compared, 2 changed, 0 of them in an exit status, their "
                         "structure or a field that is not a float; largest relative float "
                         "change in the others 1.11e-16")


@pytest.mark.parametrize("new_outputs, new_statuses", [
    ({"verdict": {**VERDICT, "claims": [{"name": "mixture_convexity", "violations": 14}]}}, {}),
    ({"verdict": {**VERDICT, "passed": True}}, {}),
    ({"verdict": {**VERDICT, "payments": [0.25, None]}}, {}),
    ({"verdict": {**VERDICT, "payments": [0.25]}}, {}),
    ({"csv": CSV.replace("\n1,", "\n2,")}, {}),
    ({}, {"csv": "exit 2"}),
], ids=["violation-count", "bool", "null", "structure", "csv-integer", "exit-status"])
def test_other_changes_fail(tmp_path, capsys, new_outputs, new_statuses):
    code, lines = run_diff(tmp_path, capsys, new_outputs, new_statuses)
    assert code == 1
    assert lines[-1].startswith("2 outputs compared, 1 changed, 1 of them in an exit status")
    assert lines[-1].endswith("largest relative float change in the others 0")


def test_an_output_on_one_side_only_fails(tmp_path, capsys):
    code, lines = run_diff(tmp_path, capsys, {"extra": VERDICT}, {"extra": "exit 0"})
    assert code == 1 and "extra: present on one side only" in lines
    assert lines[-1].startswith("3 outputs compared, 1 changed, 1 of them")
