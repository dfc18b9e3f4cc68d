"""tools/report_diff.py: the report comparison between two source trees."""

import importlib.util
import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "report_diff.py")

_spec = importlib.util.spec_from_file_location("report_diff", TOOL)
report_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(report_diff)


def test_largest_difference_finds_the_place():
    old = {"a": [1.0, 2.0], "b": {"c": 3, "d": True}}
    new = {"a": [1.0, 2.5], "b": {"c": 3.25, "d": True}}
    assert report_diff.largest_difference(old, new) == (0.5, ".a[1]")
    assert report_diff.largest_difference(old, old) == (0.0, "")


def test_largest_difference_is_infinite_where_structure_differs():
    assert report_diff.largest_difference([1, 2], [1, 2, 3]) == (math.inf, ".")
    assert report_diff.largest_difference({"a": 1}, {"b": 1})[0] == math.inf
    assert report_diff.largest_difference({"a": True}, {"a": False}) == (math.inf, ".a")
    assert report_diff.largest_difference({"a": "x"}, {"a": 1.0})[0] == math.inf


def test_describe_reports_exit_codes_and_outputs():
    same = [0, '{"x": 1.0}', ""]
    assert report_diff.describe("op", same, list(same)) is None
    line = report_diff.describe("op", same, [0, '{"x": 1.5}', ""])
    assert line == "op: exit 0 -> 0, max |diff| 5.000e-01 at .x"
    line = report_diff.describe("op", same, [3, "not json", "boom"])
    assert line == "op: exit 0 -> 3, stderr differs, stdout differs (not JSON)"


def test_field_differences_collapse_array_indices():
    def report(kraus, rank):
        return [0, json.dumps({"kraus": kraus, "rank": rank, "note": "x"}), ""]

    old = {"a": report([[1.0, 2.0], [3.0, 4.0]], 2), "b": report([[0.0]], 1),
           "c": [3, "not json", ""], "d": report([[5.0]], 1)}
    new = {"a": report([[1.0, 2.5], [3.0, 4.0]], 2), "b": report([[0.25]], 2),
           "c": [3, "still not json", ""], "d": report([[5.0]], 1)}
    assert report_diff.field_differences(old, new) == {".kraus[][]": 0.5, ".rank": 1}
    assert report_diff.field_differences(old, old) == {}
    short = {"a": report([[1.0]], 2)}
    assert report_diff.field_differences(short, {"a": report([[1.0], [2.0]], 2)}) == {
        ".kraus": math.inf
    }


def test_a_tree_against_itself_differs_nowhere():
    # every workload, so that the CLI dump path of analyze and verify runs too:
    # each one alone, then all three in the one call without --workload
    counts = {"analyze": 16, "verify": 10, "crosscheck": 9}
    for flags in (*(["--workload", workload] for workload in counts), []):
        proc = subprocess.run(
            [sys.executable, TOOL, ROOT, ROOT, *flags, "--seed", "3", "--selfcheck"],
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        summaries = [line for line in proc.stdout.splitlines() if line.endswith("differ")]
        assert summaries == [
            f"{workload} seed 3: 0 of {count} operations differ"
            for workload, count in counts.items() if flags in ([], ["--workload", workload])
        ], flags


def test_witness_overlap_is_blind_to_a_phase():
    u = [[0.6, 0.0], [0.0, 0.8]]
    v = [[0.0, 0.6], [-0.8, 0.0]]  # i u
    old = {"op": [2, json.dumps({"witness": u}), ""]}
    new = {"op": [2, json.dumps({"witness": v}), ""]}
    assert math.isclose(report_diff.witness_overlap(old, new), 1.0)
    assert report_diff.witness_overlap(old, old) is None
