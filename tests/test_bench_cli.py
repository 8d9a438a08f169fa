import csv
import io
import json
import subprocess
import sys

import pytest

from evoinf import ScenarioError
from evoinf.bench import parse_scenario, report_csv, run_benchmark
from evoinf.cli import main


SCENARIO = """\
# tiny smoke scenario
algos = random,degree,mia,incinf
k = 5
theta = 0.05
eta = 0.2
eval_runs = 300
eval_seed = 7
select_seed = 1
gen.n0 = 10
gen.steps = 3
gen.nodes_per_step = 40
gen.m = 2
gen.prob_policy = fixed:0.2
gen.seed = 4
gen.extra_edge_fraction = 0.2
"""


@pytest.fixture()
def scenario_file(tmp_path):
    path = tmp_path / "scenario.txt"
    path.write_text(SCENARIO)
    return path


def test_scenario_parsing(scenario_file):
    sc = parse_scenario(scenario_file)
    assert sc.algos == ["random", "degree", "mia", "incinf"]
    assert sc.k == 5 and sc.theta == 0.05 and sc.eval_seed == 7
    assert sc.gen.n0 == 10 and sc.gen.master_seed == 4


def test_scenario_errors(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("algos = mia\ntheta = 0.1\neval_seed = 1\n")
    with pytest.raises(ScenarioError) as err:
        parse_scenario(path)
    assert "k" in str(err.value)

    path.write_text("algos = warp\nk = 2\ntheta = 0.1\neval_seed = 1\n"
                    "gen.n0 = 5\ngen.steps = 1\ngen.nodes_per_step = 2\n"
                    "gen.m = 2\n")
    with pytest.raises(ScenarioError):
        parse_scenario(path)

    path.write_text("algos = mia\nk = 2\ntheta = 0.1\neval_seed = 1\n")
    with pytest.raises(ScenarioError) as err:
        parse_scenario(path)
    assert "edges_file" in str(err.value)


def test_benchmark_report_structure(scenario_file):
    report = run_benchmark(parse_scenario(scenario_file))
    assert report["schema_version"] == 1
    rows = report["rows"]
    # one row per (transition, algorithm)
    assert len(rows) == 3 * 4
    for row in rows:
        assert row["eval_seed"] == 7
        assert row["k"] == 5
        assert len(row["seeds"].split(";")) == 5
        assert row["spread_mean"] >= 5  # seeds themselves always activate
    inc_rows = [r for r in rows if r["algorithm"] == "incinf"]
    assert all(r["prune_ratio_mean"] != "" for r in inc_rows)
    assert all(len(r["prune_ratios"].split(";")) == 5 for r in inc_rows)
    # spread columns are comparable: same eval seed and run count everywhere
    assert len({(r["eval_seed"], r["eval_runs"]) for r in rows}) == 1

    text = report_csv(report)
    parsed = list(csv.DictReader(io.StringIO(text)))
    assert len(parsed) == len(rows)
    assert parsed[0]["algorithm"] == rows[0]["algorithm"]


def test_benchmark_from_edge_list(tmp_path):
    edges = tmp_path / "trace.tsv"
    lines = []
    for i in range(30):
        lines.append(f"n{i}\tn{i + 1}\t{i}\t0.3")
        lines.append(f"n{i}\tn{(i * 7) % 25}\t{i + 5}" if i * 7 % 25 != i
                     else f"n{i}\tn{(i * 7 + 1) % 25}\t{i + 5}")
    edges.write_text("\n".join(lines) + "\n")
    path = tmp_path / "s.txt"
    path.write_text("algos = mia,degree\nk = 3\ntheta = 0.05\n"
                    "eval_seed = 2\neval_runs = 200\n"
                    f"edges_file = {edges}\nsnapshot_times = 10,20,40\n"
                    "prob_policy = fixed:0.25\n")
    report = run_benchmark(parse_scenario(path))
    assert len(report["rows"]) == 2 * 2  # two transitions, two algorithms
    assert {r["to_label"] for r in report["rows"]} == {20, 40}


def test_benchmark_random_only_row_count(tmp_path):
    path = tmp_path / "s.txt"
    path.write_text("algos = random\nk = 5\ntheta = 0.05\neval_seed = 3\n"
                    "eval_runs = 200\n"
                    "gen.n0 = 8\ngen.steps = 2\ngen.nodes_per_step = 20\n"
                    "gen.m = 2\ngen.seed = 1\n")
    report = run_benchmark(parse_scenario(path))
    assert len(report["rows"]) == 2
    assert all(r["spread_mean"] >= 5 for r in report["rows"])


# -- CLI --

def run_cli(*argv):
    return main(list(argv))


def test_cli_gen_snapshot_diff_select_evaluate(tmp_path, capsys):
    out_dir = tmp_path / "net"
    assert run_cli("gen", "--n0", "6", "--steps", "2", "--nodes-per-step",
                   "30", "--m", "2", "--seed", "5", "--prob-policy",
                   "fixed:0.3", "--extra-edge-fraction", "0.2",
                   "--out-dir", str(out_dir)) == 0
    capsys.readouterr()
    assert (out_dir / "stream_0000.txt").exists()
    assert (out_dir / "stream_0002.txt").exists()
    assert json.loads((out_dir / "meta.json").read_text())["snapshots"][2]

    # replay snapshots via the streams
    assert run_cli("snapshot", "--streams", str(out_dir), "--at", "2") == 0
    out = capsys.readouterr().out
    assert "nodes=66" in out

    # diff between two replayed snapshots
    diff_file = tmp_path / "delta.txt"
    assert run_cli("diff", "--streams-old", str(out_dir), "--at-old", "1",
                   "--streams-new", str(out_dir), "--at-new", "2",
                   "--out", str(diff_file)) == 0
    lines = diff_file.read_text().splitlines()
    assert sum(1 for l in lines if l.startswith("AN")) == 30

    # static selection on the middle snapshot feeds the incremental step
    sel_file = tmp_path / "seeds.json"
    assert run_cli("select", "--streams", str(out_dir), "--at", "1",
                   "--algo", "mia", "--k", "3", "--theta", "0.05",
                   "--out", str(sel_file)) == 0
    payload = json.loads(sel_file.read_text())
    assert payload["algorithm"] == "mia" and len(payload["seeds"]) == 3

    # incremental selection from the previous result
    assert run_cli("incinf", "--streams-old", str(out_dir), "--at-old", "1",
                   "--stream", str(out_dir / "stream_0002.txt"),
                   "--prev-seeds", "@" + str(sel_file),
                   "--k", "3", "--theta", "0.05", "--eta", "0.2",
                   "--emit-deltas", str(tmp_path / "deltas.csv")) == 0
    inc = json.loads(capsys.readouterr().out)
    assert len(inc["seeds"]) == 3
    assert (tmp_path / "deltas.csv").read_text().startswith("node,delta")

    # evaluate the incrementally selected seeds on the new snapshot
    assert run_cli("evaluate", "--streams", str(out_dir), "--at", "2",
                   "--seeds", ",".join(str(s) for s in inc["seeds"]),
                   "--runs", "200", "--seed", "3") == 0
    est = json.loads(capsys.readouterr().out)
    assert est["mean"] >= 3.0 and est["runs"] == 200


def test_cli_snapshot_from_edge_list(tmp_path, capsys):
    edges = tmp_path / "edges.tsv"
    edges.write_text("a\tb\t1\t0.5\nb\tc\t2\t0.5\n")
    assert run_cli("snapshot", "--edges", str(edges), "--at", "1") == 0
    assert "nodes=2" in capsys.readouterr().out
    out_file = tmp_path / "snap.tsv"
    ids_file = tmp_path / "ids.tsv"
    assert run_cli("snapshot", "--edges", str(edges), "--at", "2",
                   "--out", str(out_file), "--ids-out", str(ids_file)) == 0
    assert "0\t1\t2\t0.5" in out_file.read_text()
    assert ids_file.read_text() == "a\t0\nb\t1\nc\t2\n"


def test_cli_analyze(tmp_path, capsys):
    out_dir = tmp_path / "net"
    run_cli("gen", "--n0", "6", "--steps", "2", "--nodes-per-step", "40",
            "--m", "2", "--seed", "5", "--out-dir", str(out_dir))
    capsys.readouterr()

    assert run_cli("analyze", "degrees", "--streams", str(out_dir),
                   "--at", "2") == 0
    out = capsys.readouterr().out
    assert out.startswith("bin_low,count")

    assert run_cli("analyze", "pa", "--streams-old", str(out_dir),
                   "--at-old", "1", "--streams-new", str(out_dir),
                   "--at-new", "2") == 0
    assert "degree,mean_new_in_edges,samples" in capsys.readouterr().out

    assert run_cli("analyze", "growth", "--streams", str(out_dir),
                   "--at-list", "0", "1", "2") == 0
    out = capsys.readouterr().out
    assert out.splitlines()[1] == "0,6,0"

    assert run_cli("analyze", "rank", "--streams", str(out_dir),
                   "--at", "2", "--seeds", "0,1",
                   "--degree-kind", "out") == 0
    assert capsys.readouterr().out.startswith("seed,degree_rank")


def test_cli_bench(tmp_path, capsys, scenario_file):
    out_base = tmp_path / "report"
    assert run_cli("bench", str(scenario_file), "--out", str(out_base)) == 0
    capsys.readouterr()
    assert (tmp_path / "report.csv").exists()
    payload = json.loads((tmp_path / "report.json").read_text())
    assert payload["schema_version"] == 1


def test_cli_cascade_node_removal_on_replay(tmp_path, capsys):
    streams = tmp_path / "s"
    streams.mkdir()
    (streams / "stream_0000.txt").write_text(
        "AN 0\nAN 1\nAN 2\nAE 0 1 0.5\nAE 2 0 0.5\n")
    (streams / "stream_0001.txt").write_text("RN 0\n")
    # bare replay fails: node 0 still has incident edges
    assert run_cli("snapshot", "--streams", str(streams), "--at", "1") == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "PreconditionViolation"
    # cascade replay expands the removal into edge removals first
    assert run_cli("snapshot", "--streams", str(streams), "--at", "1",
                   "--cascade") == 0
    assert "nodes=2" in capsys.readouterr().out


def test_cli_machine_readable_errors(tmp_path, capsys):
    edges = tmp_path / "bad.tsv"
    edges.write_text("a\ta\t1\n")
    code = run_cli("snapshot", "--edges", str(edges), "--at", "1")
    assert code == 1
    err = capsys.readouterr().err.strip()
    payload = json.loads(err)
    assert payload["error"] == "ParseError"
    assert "\n" not in err


def test_cli_entry_point_runs():
    proc = subprocess.run([sys.executable, "-m", "evoinf", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "gen" in proc.stdout and "incinf" in proc.stdout


@pytest.fixture()
def tiny_streams(tmp_path):
    streams = tmp_path / "net"
    streams.mkdir()
    (streams / "stream_0000.txt").write_text(
        "AN 0\nAN 1\nAN 2\nAE 0 1 0.5\nAE 1 2 0.5\n")
    (streams / "stream_0001.txt").write_text("AN 3\nAE 3 0 0.5\n")
    return streams


def error_record(capsys) -> dict:
    err = capsys.readouterr().err.strip()
    assert "\n" not in err
    return json.loads(err)


def test_cli_missing_edge_file_is_json_error(tmp_path, capsys):
    assert run_cli("snapshot", "--edges", str(tmp_path / "absent.tsv"),
                   "--at", "1") == 1
    assert error_record(capsys)["error"] == "FileNotFoundError"


def test_cli_missing_prev_seeds_file_is_json_error(tmp_path, tiny_streams,
                                                   capsys):
    assert run_cli("incinf", "--streams-old", str(tiny_streams),
                   "--at-old", "0", "--streams-new", str(tiny_streams),
                   "--at-new", "1", "--k", "1",
                   "--prev-seeds", "@" + str(tmp_path / "absent.json")) == 1
    assert error_record(capsys)["error"] == "FileNotFoundError"


def test_cli_malformed_prev_seeds_file_is_json_error(tmp_path, tiny_streams,
                                                     capsys):
    seeds = tmp_path / "seeds.json"
    seeds.write_text("[0, 1")
    assert run_cli("incinf", "--streams-old", str(tiny_streams),
                   "--at-old", "0", "--streams-new", str(tiny_streams),
                   "--at-new", "1", "--k", "1",
                   "--prev-seeds", "@" + str(seeds)) == 1
    assert error_record(capsys)["error"] == "JSONDecodeError"


@pytest.mark.parametrize("case", [
    "select --theta 0", "select --theta 1", "select --theta nan",
    "select --k -2", "select --runs 0", "incinf --theta 0", "incinf --k 0",
    "incinf --eta 0", "evaluate --runs 0",
])
def test_cli_rejects_out_of_range_options(tiny_streams, capsys, case):
    command, *option = case.split()
    graph = {
        "select": ["--streams", str(tiny_streams), "--at", "1",
                   "--algo", "mia", "--k", "1"],
        "incinf": ["--streams-old", str(tiny_streams), "--at-old", "0",
                   "--streams-new", str(tiny_streams), "--at-new", "1",
                   "--prev-seeds", "0", "--k", "1"],
        "evaluate": ["--streams", str(tiny_streams), "--at", "1",
                     "--seeds", "0"],
    }[command]
    # argparse keeps the last occurrence of a repeated option
    assert run_cli(command, *graph, *option) == 1
    assert error_record(capsys)["error"] == "InvalidConfig"
