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


def violation(claim: str, instance: int, cost: float = 0.5) -> dict:
    return {"claim": claim, "instance": instance, "data": {"cost": cost, "measure": "kl"}}


def run_violations_diff(tmp_path, capsys, old_list: list, new_list: list):
    old = keep(tmp_path / "old", {"verdict": {**VERDICT, "violations": old_list}},
               {"verdict": "exit 1"})
    new = keep(tmp_path / "new", {"verdict": {**VERDICT, "violations": new_list}},
               {"verdict": "exit 1"})
    code = digest_outputs.diff(old, new)
    return code, capsys.readouterr().out.splitlines()


def test_violations_match_by_claim_and_instance_not_position(tmp_path, capsys):
    # the first violation went: a positional diff would compare every later one with its
    # neighbour; keyed, only the one that went and the one that appeared are listed
    old = [violation("a", 1), violation("a", 2, 0.25), violation("b", 2), violation("a", 3, 0.75)]
    new = [violation("a", 2, 0.25), violation("b", 2), violation("a", 3, 0.75),
           violation("b", 9)]
    code, lines = run_violations_diff(tmp_path, capsys, old, new)
    assert code == 1
    assert lines[:-1] == ["verdict: 1 violations went: a@1#1",
                          "verdict: 1 violations appeared: b@9#1"]


def test_violations_repeated_per_instance_and_moved_floats(tmp_path, capsys):
    # the k-th violation of one (claim, instance) pairs with the k-th; a float change inside a
    # matched pair is reported as a float change
    old = [violation("a", 1), violation("a", 1, 0.25)]
    new = [violation("a", 1), violation("a", 1, 0.25 + 2**-54)]
    code, lines = run_violations_diff(tmp_path, capsys, old, new)
    assert code == 0
    assert lines[0] == "verdict: .violations.a@#.data.cost: largest relative change 5.55e-17"


def test_violations_in_another_order_fail(tmp_path, capsys):
    code, lines = run_violations_diff(tmp_path, capsys, [violation("a", 1), violation("a", 2)],
                                      [violation("a", 2), violation("a", 1)])
    assert code == 1 and lines[0] == "verdict: violations matched in another order"
