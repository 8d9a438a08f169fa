import csv
import hashlib
import io
import json
import re
import subprocess
import sys
from dataclasses import fields

import pytest

from evoinf import (AddEdge, AddNode, EvolutionContext, GenConfig,
                    InvalidConfig, PruneConfig, ScenarioError, Snapshot,
                    greedy_select, mia_select)
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

    gen = ("algos = mia\nk = 2\ntheta = 0.1\neval_seed = 1\n"
           "gen.n0 = 5\ngen.steps = 1\ngen.nodes_per_step = 2\ngen.m = 2\n")
    edges = ("algos = mia\nk = 2\ntheta = 0.1\neval_seed = 1\n"
             "edges_file = trace.tsv\nsnapshot_times = 1,2\n")
    messages = {"k": "not an integer", "theta": "not a number",
                "gen.extra_edge_fraction": "not a number",
                "algos": "repeated algorithm 'incinf'"}
    for text, field in [
            (gen + "eval_run = 5\n", "eval_run"),        # misspelt key
            (gen + "gen.sed = 9\n", "gen.sed"),
            (gen + "undirected = true\n", "undirected"),  # edges_file only
            (edges + "gen.seed = 3\n", "gen.seed"),       # gen block only
            # a second incinf row would take the first one's new seeds as
            # its previous seeds
            (gen.replace("mia", "incinf,mia,incinf"), "algos"),
            (gen + "eta = 0\n", "eta"),
            (gen + "eta = 1.5\n", "eta"),
            (gen + "eval_runs = 0\n", "eval_runs"),
            (gen + "select_runs = 0\n", "select_runs"),
            (edges + "undirected = yes\n", "undirected"),
            (gen.replace("k = 2", "k = two"), "k"),          # wrong type
            (gen.replace("theta = 0.1", "theta = x"), "theta"),
            (gen + "gen.extra_edge_fraction = lots\n",
             "gen.extra_edge_fraction")]:
        path.write_text(text)
        with pytest.raises(ScenarioError) as err:
            parse_scenario(path)
        assert err.value.field == field, text
        assert messages.get(field, "") in str(err.value), text
    path.write_text(edges + "undirected = TRUE\n")
    assert parse_scenario(path).undirected


# every GenConfig field at a value other than its default
GEN_VALUES = dict(n0=7, steps=2, nodes_per_step=11, m=3,
                  prob_policy="fixed:0.3", master_seed=9,
                  extra_edge_fraction=0.25, remove_edge_fraction=0.01,
                  weight_change_fraction=0.02, remove_node_count=1)


def test_every_generator_field_is_a_scenario_key_and_a_gen_option(
        tmp_path, capsys):
    assert list(GEN_VALUES) == [f.name for f in fields(GenConfig)]
    assert all(GEN_VALUES[f.name] != f.default for f in fields(GenConfig))
    names = {name: "seed" if name == "master_seed" else name
             for name in GEN_VALUES}

    path = tmp_path / "scenario.txt"
    path.write_text("algos = mia\nk = 2\ntheta = 0.1\neval_seed = 1\n"
                    + "".join(f"gen.{names[name]} = {value}\n"
                              for name, value in GEN_VALUES.items()))
    assert parse_scenario(path).gen == GenConfig(**GEN_VALUES)

    argv = ["gen", "--out-dir", str(tmp_path / "net")]
    for name, value in GEN_VALUES.items():
        argv += ["--" + names[name].replace("_", "-"), str(value)]
    assert main(argv) == 0
    meta = json.loads((tmp_path / "net" / "meta.json").read_text())
    assert meta["config"] == GEN_VALUES


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


FIVE_ALGORITHMS = """\
algos = greedy,mia,incinf,degree,random
k = 4
theta = 0.02
eta = 0.1
eval_runs = 200
eval_seed = 5
select_runs = 100
select_seed = 3
gen.n0 = 20
gen.steps = 4
gen.nodes_per_step = 40
gen.m = 3
gen.seed = 8
gen.extra_edge_fraction = 0.4
gen.remove_edge_fraction = 0.01
gen.weight_change_fraction = 0.02
gen.remove_node_count = 2
"""


def test_benchmark_rows_are_pinned(tmp_path):
    # every algorithm on a churn instance; every row field except the wall
    # time hashes to the value of a reference run, so a refactor of the
    # selectors, the evaluation or the report cannot change rows unnoticed
    path = tmp_path / "s.txt"
    path.write_text(FIVE_ALGORITHMS)
    rows = [{k: v for k, v in row.items() if k != "wall_time_s"}
            for row in run_benchmark(parse_scenario(path))["rows"]]
    assert len(rows) == 4 * 5
    text = json.dumps(rows, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "01c6d7ea8ba1684e1e52981d9c99addab1e73cbe649ab9186414f60e27149fc5")


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

    # snapshots given in reverse: no node acquires an in-edge
    assert run_cli("analyze", "pa", "--streams-old", str(out_dir),
                   "--at-old", "1", "--streams-new", str(out_dir),
                   "--at-new", "0") == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert rows and all(float(r.split(",")[1]) == 0.0 for r in rows)

    assert run_cli("analyze", "growth", "--streams", str(out_dir),
                   "--at-list", "0", "1", "2") == 0
    out = capsys.readouterr().out
    assert out.splitlines()[1] == "0,6,0"

    # a growth series of no snapshots is a bad option, not an empty table
    for source in ([], ["--streams", str(out_dir)]):
        assert run_cli("analyze", "growth", *source) == 1
        assert error_record(capsys)["error"] == "InvalidConfig"

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


@pytest.mark.parametrize("argv, names", [
    ((), "command"),
    (("select", "--algo", "mia", "--k", "abc"), "--k"),
    (("select", "--algo", "bogus", "--k", "2"), "--algo"),
], ids=["no_command", "k_not_an_int", "unknown_algo"])
def test_cli_usage_errors_exit_2(capsys, argv, names):
    # argparse's own errors print usage, not the JSON error record
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:") and names in err


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


def test_cli_emit_deltas_reuses_the_selection_table(tmp_path, tiny_streams,
                                                   capsys, monkeypatch):
    import evoinf.incremental as incremental
    real = incremental.accumulate_deltas
    calls = []

    def counting(*args):
        calls.append(args)
        return real(*args)
    # every evoinf module that binds the name, the CLI's included
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("evoinf") and \
                getattr(mod, "accumulate_deltas", None) is real:
            monkeypatch.setattr(mod, "accumulate_deltas", counting)
    out = tmp_path / "deltas.csv"
    assert run_cli("incinf", "--streams-old", str(tiny_streams),
                   "--at-old", "0",
                   "--stream", str(tiny_streams / "stream_0001.txt"),
                   "--prev-seeds", "0", "--k", "1", "--theta", "0.1",
                   "--emit-deltas", str(out)) == 0
    assert len(calls) == 1
    g_old = Snapshot.build([0, 1, 2], [(0, 1, 0.5), (1, 2, 0.5)])
    ctx = EvolutionContext.from_stream(g_old,
                                       [AddNode(3), AddEdge(3, 0, 0.5)])
    standalone = io.StringIO()
    real(ctx, frozenset(), 0.1).write_csv(standalone)
    assert out.read_text() == standalone.getvalue() == "node,delta\n3,1.875\n"


@pytest.mark.parametrize("case", [
    "select --theta 0", "select --theta 1", "select --theta nan",
    "select --k -2", "select --runs 0", "incinf --theta 0", "incinf --k 0",
    "incinf --eta 0", "evaluate --runs 0", "analyze --seeds 9999",
    "gen --extra-edge-fraction nan", "gen --seed -1", "select --at -1",
    "incinf --at-old -1",
])
def test_cli_rejects_out_of_range_options(tiny_streams, capsys, case):
    command, *option = case.split()
    graph = {
        "gen": ["--n0", "10", "--steps", "2", "--nodes-per-step", "20",
                "--m", "2", "--seed", "3",
                "--out-dir", str(tiny_streams.parent / "gen")],
        "select": ["--streams", str(tiny_streams), "--at", "1",
                   "--algo", "mia", "--k", "1"],
        "incinf": ["--streams-old", str(tiny_streams), "--at-old", "0",
                   "--streams-new", str(tiny_streams), "--at-new", "1",
                   "--prev-seeds", "0", "--k", "1"],
        "evaluate": ["--streams", str(tiny_streams), "--at", "1",
                     "--seeds", "0"],
        "analyze": ["rank", "--streams", str(tiny_streams), "--at", "1"],
    }[command]
    # argparse keeps the last occurrence of a repeated option
    assert run_cli(command, *graph, *option) == 1
    # a seed id outside the graph is an unknown node, not a bad option
    expected = "UnknownNode" if command == "analyze" else "InvalidConfig"
    assert error_record(capsys)["error"] == expected


@pytest.mark.parametrize("command, option, spec", [
    ("incinf", "--prev-seeds", "a,b"),
    ("incinf", "--prev-seeds", "@object"),
    ("incinf", "--prev-seeds", "@floats"),
    ("evaluate", "--seeds", "x"),
    ("analyze", None, None),
])
def test_cli_malformed_seed_list_is_json_error(tmp_path, tiny_streams,
                                               capsys, command, option,
                                               spec):
    (tmp_path / "object").write_text('{"algorithm": "mia"}')
    (tmp_path / "floats").write_text("[0.5]")
    if spec and spec.startswith("@"):
        spec = "@" + str(tmp_path / spec[1:])
    graph = {
        "incinf": ["incinf", "--streams-old", str(tiny_streams),
                   "--at-old", "0", "--streams-new", str(tiny_streams),
                   "--at-new", "1", "--k", "1"],
        "evaluate": ["evaluate", "--streams", str(tiny_streams),
                     "--at", "1"],
        # rank reads --seeds, which the other analyses do not need
        "analyze": ["analyze", "rank", "--streams", str(tiny_streams),
                    "--at", "1"],
    }[command]
    extra = [option, spec] if option else []
    assert run_cli(*graph, *extra) == 1
    assert error_record(capsys)["error"] == "InvalidConfig"


def test_cli_incinf_rejects_a_repeated_previous_seed(tiny_streams, capsys):
    assert run_cli("incinf", "--streams-old", str(tiny_streams),
                   "--at-old", "0", "--streams-new", str(tiny_streams),
                   "--at-new", "1", "--prev-seeds", "0,0,0", "--k", "3") == 1
    assert error_record(capsys) == {
        "error": "InvalidConfig", "message": "previous seed 0 is repeated"}


@pytest.mark.parametrize("name, value, rule", [
    ("theta", "1.5", "must be in (0, 1), got 1.5"),
    ("k", "0", "must be >= 1, got 0"),
    ("runs", "0", "must be >= 1, got 0"),
    ("eta", "0", "must be in (0, 1], got 0.0"),
])
def test_one_rule_text_per_range(tmp_path, tiny_streams, capsys, name, value,
                                 rule):
    # the library, the CLI and a scenario file state each range rule in
    # the same words
    g = Snapshot.build([0, 1, 2], [(0, 1, 0.5), (1, 2, 0.5)])
    library = {
        "theta": lambda: mia_select(g, 1, float(value)),
        "k": lambda: mia_select(g, int(value), 0.1),
        "runs": lambda: greedy_select(g, 1, int(value), 1),
        "eta": lambda: PruneConfig(float(value), []),
    }[name]
    with pytest.raises(InvalidConfig, match=re.escape(rule)):
        library()

    streams = str(tiny_streams)
    command = {
        "eta": ["incinf", "--streams-old", streams, "--at-old", "0",
                "--streams-new", streams, "--at-new", "1",
                "--prev-seeds", "0"],
        "runs": ["select", "--streams", streams, "--at", "1",
                 "--algo", "greedy"],
    }.get(name, ["select", "--streams", streams, "--at", "1",
                 "--algo", "mia"])
    assert run_cli(*command, "--k", "1", f"--{name}", value) == 1
    record = error_record(capsys)
    assert record["error"] == "InvalidConfig"
    assert record["message"].endswith(rule)

    key = "eval_runs" if name == "runs" else name
    path = tmp_path / "s.txt"
    path.write_text(re.sub(f"^{key} = .*$", f"{key} = {value}",
                           FIVE_ALGORITHMS, flags=re.M))
    with pytest.raises(ScenarioError) as err:
        parse_scenario(path)
    assert err.value.field == key
    assert str(err.value).endswith(rule)
