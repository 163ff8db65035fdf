"""tools/bench.py with git, its exports and perfbench stubbed: the trees it runs, the order
of each pair, the statistics it records, and the runs it refuses.  No git or perfbench
process is started."""

import importlib.util
import json
import re
import statistics
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench.py"
END_TO_END = ("block_s", "setup_s", "peak_rss_mb")
BENCHMARK = json.loads((TOOL.parents[1] / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
# parent and working-tree values of every end-to-end metric, in pair order: the working
# tree reads 0.1 lower in the first seven pairs, 0.05 higher in the next two, and the
# same in the last one, which is no win
PARENT = [1.0 + 0.01 * k for k in range(10)]
CHANGE = [p - 0.1 for p in PARENT[:7]] + [p + 0.05 for p in PARENT[7:9]] + PARENT[9:]
# the commits REV and HEAD resolve to, and the src_lines of the tree each exports
REV, HEAD = "1" * 40, "2" * 40
LINES = {REV: 3, HEAD: 5}
STATUS = ("status", "--porcelain", "--", "src", "perfbench", "BENCHMARK.json")


@pytest.fixture
def bench():
    """The tool as a fresh module, with git stubbed per subcommand and export stubbed.

    ``git status`` prints ``module.porcelain``.  The stubbed export writes a package
    of ``LINES[rev]`` lines and records ``(rev, into)`` in ``module.exported``.
    """
    spec = importlib.util.spec_from_file_location("bench_tool", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.porcelain, module.git_calls, module.exported = "", [], []

    def git(*args):
        module.git_calls.append(args)
        if args[0] == "rev-parse":
            return HEAD if args[-1].startswith("HEAD") else REV
        assert args == STATUS
        return module.porcelain

    def export(rev, into):
        module.exported.append((rev, into))
        Path(into, "src", "swarmscale").mkdir(parents=True)
        Path(into, "src", "swarmscale", "a.py").write_text("\n" * LINES[rev])
        return into

    module.git, module.export = git, export
    return module


def result(value, calls, correct=True, failed=0):
    """A perfbench result line in the form perfbench/run.py prints."""
    metrics = {name: {"value": value, "unit": "s"} for name in END_TO_END}
    metrics["macro.cfl_dt.calls"] = {"value": calls, "unit": "count"}
    return json.dumps({"correct": correct, "attempted": 1, "failed": failed, "metrics": metrics})


def stub_perfbench(bench, wrong=None, line=None, **fields):
    """Make result_line answer from PARENT and CHANGE; the run numbered wrong prints line,
    or gets fields.

    Each run's side is the side whose export its root is; a root that is no export
    fails the run.  A traced run reports 8 cfl_dt calls from the parent and 7 from HEAD.
    Returns the list of (workload, side, trace) of every run, in order.
    """
    calls = []

    def result_line(workload, trace, seconds, root):
        side = {into: "parent" if rev == REV else "change" for rev, into in bench.exported}[root]
        plain = [c for c in calls if c[:3] == (workload, side, 0)]
        calls.append((workload, side, trace))
        if len(calls) - 1 == wrong and line is not None:
            return line
        value = 0.0 if trace else (PARENT if side == "parent" else CHANGE)[len(plain)]
        return result(value, 8 if side == "parent" else 7,
                      **(fields if len(calls) - 1 == wrong else {}))

    bench.result_line = result_line
    return calls


def test_rev_then_head_is_exported_and_every_run_uses_its_sides_export(bench, tmp_path):
    calls = stub_perfbench(bench)
    bench.main([str(tmp_path / "BENCH.json"), "REV"])
    assert [rev for rev, _ in bench.exported] == [REV, HEAD]
    (_, theirs), (_, ours) = bench.exported
    assert theirs != ours and Path(theirs).parent == Path(ours).parent
    assert bench.ROOT not in Path(theirs).parents
    written = json.loads((tmp_path / "BENCH.json").read_text())
    assert len(calls) == len(written["runs"]) > 0  # every root was an export: see stub_perfbench
    assert written["git_head"] == HEAD and written["parent"]["rev"] == REV
    assert written["src_lines"] == LINES[HEAD] and written["parent"]["src_lines"] == LINES[REV]
    assert "git_dirty" not in written


@pytest.mark.parametrize("porcelain", [" M src/swarmscale/config.py", "?? src/swarmscale/new.py"],
                         ids=["uncommitted", "untracked"])
def test_a_measured_input_that_is_not_committed_stops_the_tool(bench, tmp_path, porcelain):
    calls = stub_perfbench(bench)
    bench.porcelain = porcelain
    with pytest.raises(SystemExit, match=f"^commit these first.*\n{re.escape(porcelain)}$"):
        bench.main([str(tmp_path / "BENCH.json"), "REV"])
    assert STATUS in bench.git_calls
    assert bench.exported == [] and calls == []
    assert not (tmp_path / "BENCH.json").exists()


def test_each_workload_runs_alternating_pairs_then_its_traced_runs(bench, tmp_path):
    calls = stub_perfbench(bench)
    bench.main([str(tmp_path / "BENCH.json"), "REV"])
    runs_per_workload = 2 * bench.PAIRS + bench.TRACED_RUNS + 1
    assert len(calls) == len(WORKLOADS) * runs_per_workload
    written = json.loads((tmp_path / "BENCH.json").read_text())
    assert [(r["workload"], r["side"], r["trace"]) for r in written["runs"]] == calls
    for i, workload in enumerate(WORKLOADS):
        mine = calls[i * runs_per_workload:(i + 1) * runs_per_workload]
        assert {c[0] for c in mine} == {workload}
        firsts = [side for _, side, _ in mine[0:2 * bench.PAIRS:2]]
        assert firsts == ["parent", "change"] * (bench.PAIRS // 2)
        assert all(mine[2 * k][1] != mine[2 * k + 1][1] for k in range(bench.PAIRS))
        assert [c[1:] for c in mine[2 * bench.PAIRS:]] == [("change", 1)] * bench.TRACED_RUNS + [
            ("parent", 1)]
        counted = written["parent"]["workloads"][workload]
        assert counted["counters"] == {"parent": {"macro.cfl_dt.calls": 8},
                                       "change": {"macro.cfl_dt.calls": 7}}
        assert counted["counters_differ"] == ["macro.cfl_dt.calls"]
    assert written["parent"]["pairs"] == bench.PAIRS


def test_the_file_records_the_pairs_wins_and_differences(bench, tmp_path):
    stub_perfbench(bench)
    bench.main([str(tmp_path / "BENCH.json"), "REV"])
    written = json.loads((tmp_path / "BENCH.json").read_text())
    for workload in WORKLOADS:
        for name in END_TO_END:
            got = written["parent"]["workloads"][workload][name]
            assert got["parent"]["values"] == PARENT and got["change"]["values"] == CHANGE
            assert got["wins"] == 7
            assert got["parent"]["median"] == pytest.approx(1.045)
            assert got["change"]["median"] == pytest.approx(statistics.median(CHANGE))
            # the differences are seven -0.1, one 0 and two 0.05: the upper quartile, at
            # position 6.75 of 0..9, lies three quarters of the way from -0.1 to 0
            assert got["difference"]["median"] == pytest.approx(-0.1)
            assert got["difference"]["quartiles"] == pytest.approx([-0.1, -0.025])
            assert got["difference"]["iqr"] == pytest.approx(0.075)
    # HEAD's medians are written once, in the pairs, and not copied to the top level
    assert not [key for key in written if key.endswith(("_median", "_range"))]


@pytest.mark.parametrize("fields", [{"correct": False}, {"failed": 2}], ids=["incorrect", "failed"])
@pytest.mark.parametrize("wrong, name", [(2, "change --trace 0"), (23, "parent --trace 1")])
def test_a_run_with_wrong_outputs_stops_the_tool(bench, tmp_path, fields, wrong, name):
    stub_perfbench(bench, wrong=wrong, **fields)
    with pytest.raises(SystemExit, match=f"^{WORKLOADS[0]} {name} reports wrong outputs"):
        bench.main([str(tmp_path / "BENCH.json"), "REV"])
    assert not (tmp_path / "BENCH.json").exists()


@pytest.mark.parametrize("line", ["block done", ""], ids=["text", "empty"])
def test_a_run_that_prints_no_result_stops_the_tool_naming_it(bench, tmp_path, line):
    stub_perfbench(bench, wrong=2, line=line)
    with pytest.raises(SystemExit, match=f"^{WORKLOADS[0]} change --trace 0 printed no result: "
                                         f"{line}$"):
        bench.main([str(tmp_path / "BENCH.json"), "REV"])
    assert not (tmp_path / "BENCH.json").exists()


def test_the_parent_commit_is_required(bench, tmp_path, capsys):
    calls = stub_perfbench(bench)
    with pytest.raises(SystemExit) as exc:
        bench.main([str(tmp_path / "BENCH.json")])
    assert exc.value.code == 2
    assert "required: rev" in capsys.readouterr().err
    assert calls == []
