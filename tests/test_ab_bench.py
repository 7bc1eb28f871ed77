"""scripts/ab_bench.py on stand-in checkouts whose bench/run.py only
prints a result line."""

import argparse
import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "ab_bench.py"
spec = importlib.util.spec_from_file_location("ab_bench", SCRIPT)
ab_bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab_bench)

FAKE_RUN = """\
import argparse, json, pathlib
ap = argparse.ArgumentParser()
for flag in ("--workload", "--seed", "--seconds", "--trace"):
    ap.add_argument(flag)
args = ap.parse_args()
log = pathlib.Path(__file__).parents[2] / "order.log"
with open(log, "a") as fh:
    fh.write(f"{SIDE} {args.seed}\\n")
seed = int(args.seed)
failed = FAILS
print(json.dumps({"correct": failed == 0, "attempted": 3, "failed": failed,
                  "metrics": {
    "wall_ref": {"value": WALL, "unit": "ref"},
    "ok_ratio": {"value": 1.0, "unit": "ok/attempted"}}}))
"""


def _checkout(root: Path, side: str, wall: str, fails: str = "0") -> Path:
    bench = root / side / "bench"
    bench.mkdir(parents=True)
    (bench / "run.py").write_text(FAKE_RUN.replace("SIDE", repr(side))
                                  .replace("WALL", wall)
                                  .replace("FAILS", fails))
    (root / side / "BENCHMARK.json").write_text(json.dumps({
        "end_to_end": [{"name": "wall_ref", "better": "lower", "bound": 0.25},
                       {"name": "ok_ratio", "better": "higher"}]}))
    return root / side


def test_parse_seeds():
    assert ab_bench.parse_seeds("901-903,7") == [901, 902, 903, 7]
    for bad in ("", "a-3", "1,,2"):
        with pytest.raises(argparse.ArgumentTypeError):
            ab_bench.parse_seeds(bad)


@pytest.mark.parametrize("offset, gain", [(7.0, True), (3.0, False)])
def test_summarize_counts_wins_in_the_better_direction(offset, gain):
    # the parent's quartiles are 12.25 and 16.75: a gain needs the change's
    # median to be lower by more than 4.5 as well as 9 wins in 10
    pairs = [({"wall_ref": 10.0 + i, "ok_ratio": 1.0},
              {"wall_ref": 10.0 + i - offset, "ok_ratio": 1.0})
             for i in range(10)]
    pairs[3][1]["wall_ref"] = 20.0
    rows = {r["metric"]: r for r in ab_bench.summarize(
        pairs, {"wall_ref": "lower", "ok_ratio": "higher"})}
    wall = rows["wall_ref"]
    assert wall["wins"] == 9 and wall["pairs"] == 10
    assert wall["parent"] == pytest.approx((12.25, 14.5, 16.75))
    assert wall["gain"] is gain
    assert rows["ok_ratio"]["wins"] == 0 and not rows["ok_ratio"]["gain"]


def test_pairs_alternate_which_side_runs_first(tmp_path, capsys):
    parent = _checkout(tmp_path, "parent", "10.0 + seed % 2")
    change = _checkout(tmp_path, "change", "8.0")
    rc = ab_bench.main(["--parent", str(parent), "--change", str(change),
                        "--workload", "sdp-scale", "--seeds", "1-4",
                        "--seconds", "1"])
    assert rc == 0
    assert (tmp_path / "order.log").read_text().split("\n")[:-1] == [
        "parent 1", "change 1", "change 2", "parent 2",
        "parent 3", "change 3", "change 4", "parent 4"]
    out = capsys.readouterr().out
    assert out.startswith("## sdp-scale")
    wall = next(line for line in out.splitlines()
                if line.startswith("wall_ref"))
    assert wall.split()[-3:] == ["4/4", "yes", "ok"]
    ok_ratio = next(line for line in out.splitlines()
                    if line.startswith("ok_ratio"))
    assert ok_ratio.split()[-1] == "-"  # no bound, no verdict


def test_failed_runs_are_listed_and_never_win(tmp_path, capsys):
    # the change is faster in every pair but fails two operations at seed
    # 2, and the parent one at seed 3
    parent = _checkout(tmp_path, "parent", "10.0", "int(seed == 3)")
    change = _checkout(tmp_path, "change", "8.0", "2 * (seed == 2)")
    rc = ab_bench.main(["--parent", str(parent), "--change", str(change),
                        "--workload", "sdp-scale", "--seeds", "1-4",
                        "--seconds", "1"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    wall = next(line for line in lines if line.startswith("wall_ref"))
    assert wall.split()[-3:] == ["3/4", "no", "ok"]
    assert lines[-2:] == ["failed run: sdp-scale change seed 2: 2 failed",
                          "failed run: sdp-scale parent seed 3: 1 failed"]


@pytest.mark.parametrize("parent, change, expected", [
    # the change's median 13.0 is worse than 10.0 by more than 25%
    ([9.8, 10.0, 10.2, 9.9, 10.1], [13.0, 12.9, 13.1, 13.0, 13.2], "worse"),
    # the parent's quartiles 8 and 12 spread by 40% of its median 10, and
    # one change run (11.5) reads worse than the parent's best (6.0)
    ([6.0, 8.0, 10.0, 12.0, 14.0], [9.0, 9.5, 10.0, 10.5, 11.5], "unresolved"),
    # the same spread, but every change run beats every parent run
    ([6.0, 8.0, 10.0, 12.0, 14.0], [5.0, 5.2, 5.4, 5.6, 5.8], "ok"),
    # 20% worse is inside the bound
    ([9.8, 10.0, 10.2, 9.9, 10.1], [12.0, 11.9, 12.1, 12.0, 12.2], "ok"),
])
def test_verdict_applies_the_bound_of_each_metric(parent, change, expected):
    pairs = [({"wall_ref": p}, {"wall_ref": c})
             for p, c in zip(parent, change)]
    row, = ab_bench.summarize(pairs, {"wall_ref": "lower"},
                              bounds={"wall_ref": 0.25})
    assert row["verdict"] == expected
    assert ab_bench.summarize(pairs, {"wall_ref": "lower"})[0]["verdict"] \
        == "-"


@pytest.mark.parametrize("change, expected", [(0.7, "worse"), (0.8, "ok"),
                                              (1.3, "ok")])
def test_verdict_reads_higher_is_better_metrics_the_other_way(change,
                                                              expected):
    pairs = [({"ok_ratio": 1.0}, {"ok_ratio": change})] * 3
    row, = ab_bench.summarize(pairs, {"ok_ratio": "higher"},
                              bounds={"ok_ratio": 0.25})
    assert row["verdict"] == expected
