import pytest

from evoinf import (AddEdge, AddNode, AddWeight, DecWeight, ParseError,
                    RemoveEdge, RemoveNode, ScenarioError,
                    load_temporal_edges, read_change_stream,
                    write_change_stream)
from evoinf.bench import parse_scenario


STREAM = [
    AddNode(0), AddNode(1), AddEdge(0, 1, 0.5), AddWeight(0, 1, 0.25),
    DecWeight(0, 1, 0.1), RemoveEdge(0, 1), RemoveNode(1), RemoveNode(0),
]


def test_round_trip(tmp_path):
    path = tmp_path / "s.txt"
    write_change_stream(path, STREAM)
    assert read_change_stream(path) == STREAM


def test_float_probabilities_survive_round_trip(tmp_path):
    path = tmp_path / "s.txt"
    stream = [AddNode(0), AddNode(1), AddEdge(0, 1, 0.1234567890123456789)]
    write_change_stream(path, stream)
    assert read_change_stream(path)[2].prob == stream[2].prob


def test_comments_and_blank_lines(tmp_path):
    path = tmp_path / "s.txt"
    path.write_text("# header\n\nAN 3\nAE 3 3 0.5  # inline note\n")
    assert read_change_stream(path) == [AddNode(3), AddEdge(3, 3, 0.5)]


def test_parse_errors_carry_line_numbers(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("AN 1\nXX 2\n")
    with pytest.raises(ParseError) as err:
        read_change_stream(path)
    assert err.value.line_no == 2

    path.write_text("AE 1 two 0.5\n")
    with pytest.raises(ParseError):
        read_change_stream(path)


@pytest.mark.parametrize("reader, records, bad, check", [
    (read_change_stream, ["AN 1", "AN 2", "AE 1 2 0.5"], "XX 2",
     lambda out: out == [AddNode(1), AddNode(2), AddEdge(1, 2, 0.5)]),
    (load_temporal_edges, ["a\tb\t1", "b\tc\t2\t0.5"], "a\tb",
     lambda out: [(r.u, r.v, r.t) for r in out[0]] == [(0, 1, 1), (1, 2, 2)]),
    (parse_scenario, ["algos = mia", "k = 3", "theta = 0.1", "eval_seed = 1",
                      "gen.n0 = 5", "gen.steps = 1", "gen.nodes_per_step = 2",
                      "gen.m = 2"], "no key here",
     lambda out: out.k == 3 and out.gen.m == 2),
], ids=["change_stream", "temporal_edges", "scenario"])
def test_readers_share_the_record_rule(tmp_path, reader, records, bad, check):
    # comments are cut, blank and whitespace-only lines are skipped, and
    # lines count from 1 over the whole file
    lines = ["# full-line comment", records[0] + "  # trailing # comment",
             "", "   ", *records[1:], "\t"]
    path = tmp_path / "records.txt"
    path.write_text("\n".join(lines) + "\n")
    assert check(reader(path))

    path.write_text("\n".join(lines + [bad, records[-1]]) + "\n")
    with pytest.raises((ParseError, ScenarioError)) as err:
        reader(path)
    assert f"line {len(lines) + 1}" in str(err.value)
