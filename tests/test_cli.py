import argparse
import contextlib
import io
import itertools
import json
import os
import random
import runpy
import subprocess
import sys
import warnings
from enum import IntEnum
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import cli_reference
from msindex import bound, cli, generate, verify
from msindex.cli import main
from msindex.code import LinearIndexCode
from msindex.model import InstanceError, is_int

THREE_PAIRS = "instances/three_pairs_overlapping_senders.json"
TRIANGLE = "instances/triangle_single_sender.json"
TWO_WAY = "instances/two_way_disjoint_senders.json"


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_report_with_oracle(capsys):
    rc, out, _ = run(capsys, "report", THREE_PAIRS, "--oracle", "--json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["lower_bound"] == 4
    assert doc["upper_bound"] == 5
    assert doc["n_tree"] == 1
    assert doc["oracle"] == 4
    assert doc["certified"] is True
    assert doc["v_out"] == 6
    assert doc["n_iv"] == 2


def test_report_certified_without_oracle(capsys):
    rc, out, _ = run(capsys, "report", TRIANGLE)
    assert rc == 0
    assert "lower_bound: 2" in out
    assert "upper_bound: 2" in out
    assert "certified: true" in out
    assert "oracle" not in out


def test_report_missing_file(capsys):
    rc, _, err = run(capsys, "report", "missing.json")
    assert rc == 2
    assert "missing.json" in err


def test_usage_errors(capsys):
    assert run(capsys, "frobnicate", TWO_WAY)[0] == 1
    assert run(capsys)[0] == 1
    # no --jobs option: the oracle scan is serial
    assert run(capsys, "oracle", TRIANGLE, "--jobs", "2")[0] == 1
    assert run(capsys, "report", TRIANGLE, "--oracle", "--jobs", "2")[0] == 1


def test_malformed_json_is_parse_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(capsys, "validate", str(bad))[0] == 2


def test_schema_violation_is_parse_error(capsys, tmp_path):
    doc = tmp_path / "inst.json"
    doc.write_text(json.dumps({"num_messages": 2, "senders": [[1, 2]],
                               "wants": [[1], [1]]}))
    rc, _, err = run(capsys, "validate", str(doc))
    assert rc == 2
    assert "wants[0]" in err


@pytest.mark.parametrize("schema", [True, 1.0, 2, "1"])
def test_schema_must_be_the_integer_one(capsys, tmp_path, schema):
    with open(TWO_WAY, encoding="utf-8") as fh:
        inst = json.load(fh)
    inst["schema"] = schema
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(json.dumps(inst))
    rc, out, err = run(capsys, "validate", str(inst_path))
    assert (rc, out) == (2, "")
    assert f"error: schema: unsupported schema version {schema!r}" in err

    _, out, _ = run(capsys, "code", TWO_WAY)
    _, trace, _ = run(capsys, "bound", TWO_WAY, "--trace")
    for command, doc in (("verify", json.loads(out)),
                         ("dot", json.loads(trace)["trace"])):
        doc["schema"] = schema
        doc_path = tmp_path / f"{command}.json"
        doc_path.write_text(json.dumps(doc))
        argv = (TWO_WAY, str(doc_path)) if command == "verify" else (str(doc_path),)
        rc, out, err = run(capsys, command, *argv)
        assert (rc, out) == (2, "")
        assert f"{doc_path}:schema: unsupported schema version" in err


def test_guard_exit_code(capsys, tmp_path):
    doc = tmp_path / "big.json"
    m = 9
    doc.write_text(json.dumps({
        "num_messages": m,
        "senders": [list(range(1, m + 1))],
        "wants": [[(r % m) + 1] for r in range(1, m + 1)]}))
    assert run(capsys, "oracle", str(doc))[0] == 3


@pytest.mark.parametrize("argv", [
    ("oracle", TRIANGLE, "--max-len", "-1"),
])
def test_count_options_below_range_are_usage_errors(capsys, argv):
    rc, out, err = run(capsys, *argv)
    assert rc == 1
    assert out == ""
    assert err.startswith("usage error: argument --")
    assert "must be at least" in err
    assert "Traceback" not in err


def test_max_len_of_a_separator_is_a_usage_error(capsys):
    # argparse stored "--max-len=--" as an empty list, and the oracle
    # command then failed on it with a traceback
    assert run(capsys, "oracle", TRIANGLE, "--max-len=--") == (
        1, "", "usage error: argument --max-len: invalid int value: '--'\n")


def test_oracle_max_len_zero_is_exhausted(capsys):
    rc, out, _ = run(capsys, "oracle", TRIANGLE, "--max-len", "0", "--json")
    assert rc == 0
    assert json.loads(out) == {"schema": 1, "exhausted": True, "max_len": 0}


def test_validate(capsys):
    rc, out, _ = run(capsys, "validate", THREE_PAIRS, "--json")
    assert rc == 0
    doc = json.loads(out)
    assert doc == {"schema": 1, "ok": True, "num_messages": 6,
                   "num_senders": 4}


def test_simplify_roundtrip(capsys, tmp_path):
    doc = tmp_path / "inst.json"
    doc.write_text(json.dumps({"num_messages": 3, "senders": [[1, 2, 3]],
                               "wants": [[2], [1], []]}))
    rc, out, _ = run(capsys, "simplify", str(doc))
    assert rc == 0
    result = json.loads(out)
    assert result["removed"] == [3]
    assert result["instance"]["senders"] == [[1, 2]]


def test_classify(capsys):
    rc, out, _ = run(capsys, "classify", THREE_PAIRS, "--json")
    assert rc == 0
    doc = json.loads(out)
    assert [e["class"] for e in doc["sccs"]] == ["SemiNonDegenerated"] * 3


def test_bound_trace_document(capsys):
    rc, out, _ = run(capsys, "bound", THREE_PAIRS, "--trace")
    assert rc == 0
    doc = json.loads(out)
    assert doc["lower_bound"] == 4
    trace = doc["trace"]
    assert trace["n_iv"] == 2
    steps = [s["step"] for s in trace["steps"]]
    assert steps == ["iv-a", "iv-b", "iv-c", "i", "iii-a", "iii-a",
                     "iv-0", "i"]
    assert trace["final"]["dummies"] == []
    assert trace["final"]["arcs"] == [[2, 1], [4, 3], [5, 3], [5, 6], [6, 5]]


def test_bound_exhaustive_flag(capsys):
    rc, out, _ = run(capsys, "bound", TRIANGLE, "--exhaustive", "--json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["mode"] == "exhaustive"
    assert doc["lower_bound"] == 2


def test_code_then_verify(capsys, tmp_path):
    rc, out, _ = run(capsys, "code", THREE_PAIRS)
    assert rc == 0
    code_doc = json.loads(out)
    assert len(code_doc["rows"]) == 5
    kinds = [r["kind"] for r in code_doc["rows"]]
    assert kinds.count("tree-xor") == 3
    assert kinds.count("uncoded") == 2

    code_path = tmp_path / "code.json"
    code_path.write_text(json.dumps(code_doc))
    rc, out, _ = run(capsys, "verify", THREE_PAIRS, str(code_path))
    assert rc == 0
    cert = json.loads(out)
    assert cert["ok"] is True
    assert len(cert["entries"]) == 6


def test_verify_reports_failure(capsys, tmp_path):
    code_path = tmp_path / "code.json"
    code_path.write_text(json.dumps({
        "num_messages": 2,
        "rows": [{"sender": 1, "coeffs": [1, 0], "kind": None}]}))
    rc, out, _ = run(capsys, "verify", TWO_WAY, str(code_path))
    assert rc == 0
    cert = json.loads(out)
    assert cert["ok"] is False
    assert cert["failure"] == {"receiver": 1, "wanted": 2}


def test_verify_rejects_malformed_code(capsys, tmp_path):
    code_path = tmp_path / "code.json"
    code_path.write_text(json.dumps({"num_messages": 2,
                                     "rows": [{"sender": 1, "coeffs": [2, 0]}]}))
    assert run(capsys, "verify", TWO_WAY, str(code_path))[0] == 2


@pytest.mark.parametrize("row, message", [
    ({"sender": 7, "coeffs": [1, 0]}, "unknown sender 7"),
    ({"sender": 1, "coeffs": [1, 1]}, "support [1, 2] not owned by sender 1"),
])
def test_verify_rejects_rows_the_instance_forbids(capsys, tmp_path, row, message):
    code_path = tmp_path / "code.json"
    code_path.write_text(json.dumps({
        "num_messages": 2, "rows": [{"sender": 1, "coeffs": [1, 0]}, row]}))
    rc, _, err = run(capsys, "verify", TWO_WAY, str(code_path))
    assert rc == 2
    assert f"{code_path}:rows[1]: {message}" in err


class _Bit(IntEnum):
    ZERO = 0
    ONE = 1


def _reference_coeff_mask(coeffs, m):
    """The element loop over a row's coefficients, and its mask."""
    if (not isinstance(coeffs, list) or len(coeffs) != m
            or any(not is_int(c) or c not in (0, 1) for c in coeffs)):
        return f"c:rows[0]: coeffs must be a 0/1 list of length {m}"
    return sum(bit << pos for pos, bit in enumerate(coeffs))


@st.composite
def _coeff_rows(draw):
    """A 0/1 list of length m, maybe with elements swapped for other values
    or one dropped, and now and then no list at all."""
    m = draw(st.integers(1, 70))
    coeffs = draw(st.lists(st.integers(0, 1), min_size=m, max_size=m))
    for _ in range(draw(st.integers(0, 2))):
        k = draw(st.integers(0, m - 1))
        coeffs[k] = draw(st.sampled_from(
            [True, False, 2, -1, 1.0, 0.0, "1", None, [1], _Bit.ONE, _Bit.ZERO]))
    if draw(st.integers(0, 9)) == 0:
        coeffs = coeffs[1:] if draw(st.booleans()) else (None if m > 1 else "0")
    return coeffs, m


@settings(max_examples=300, deadline=None)
@given(_coeff_rows())
def test_coefficient_check_matches_the_element_loop(case):
    coeffs, m = case
    doc = {"num_messages": m, "rows": [{"sender": 1, "coeffs": coeffs}]}
    try:
        got = LinearIndexCode.from_document(doc, "c").rows[0].coeffs
    except InstanceError as exc:
        got = str(exc)
    assert got == _reference_coeff_mask(coeffs, m)


@pytest.mark.parametrize("doc, where", [
    ({"num_messages": True, "rows": []}, "num_messages"),
    ({"num_messages": 2, "rows": [{"sender": True, "coeffs": [1, 0]}]}, "rows[0]"),
    ({"num_messages": 2, "rows": [{"sender": 1, "coeffs": [True, False]}]}, "rows[0]"),
])
def test_verify_rejects_booleans(capsys, tmp_path, doc, where):
    code_path = tmp_path / "code.json"
    code_path.write_text(json.dumps(doc))
    rc, _, err = run(capsys, "verify", TWO_WAY, str(code_path))
    assert rc == 2
    assert f"{code_path}:{where}: " in err
    assert "instance has" not in err


def test_oracle_command(capsys):
    rc, out, _ = run(capsys, "oracle", THREE_PAIRS, "--json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["linear_optimal_length"] == 4
    assert doc["certified"] is True
    assert len(doc["code"]["rows"]) == 4


def test_oracle_exhausted(capsys):
    rc, out, _ = run(capsys, "oracle", THREE_PAIRS, "--max-len", "3", "--json")
    assert rc == 0
    assert json.loads(out)["exhausted"] is True


def test_oracle_max_len_at_the_optimum_prints_the_oracle(capsys):
    for flags in ((), ("--json",)):
        plain = run(capsys, "oracle", THREE_PAIRS, *flags)
        assert run(capsys, "oracle", THREE_PAIRS, "--max-len", "4", *flags) == plain
    assert run(capsys, "oracle", THREE_PAIRS, "--max-len", "3") == (
        0, "exhausted: no linear code of length <= 3\n", "")


@pytest.mark.parametrize("max_len", ["3", "4"])
def test_oracle_max_len_runs_the_dual_search_once(monkeypatch, capsys, max_len):
    # each of these names runs the dual search once per call; the
    # exhaustion test reads the length of the one oracle call
    calls = []
    for name in ("min_linear_length", "oracle_min_linear"):
        def counted(inst, _name=name, _original=getattr(verify, name)):
            calls.append(_name)
            return _original(inst)
        monkeypatch.setattr(verify, name, counted)
    assert run(capsys, "oracle", THREE_PAIRS, "--max-len", max_len)[0] == 0
    assert calls == ["oracle_min_linear"]


def test_dot_instance_counts(capsys):
    rc, out, _ = run(capsys, "dot", THREE_PAIRS)
    assert rc == 0
    lines = out.splitlines()
    assert len([l for l in lines if "->" in l and "color=red" not in l]) == 6
    assert len([l for l in lines if "color=red" in l]) == 9


def test_dot_trace_renders_dummies_dashed(capsys, tmp_path):
    rc, out, _ = run(capsys, "bound", TWO_WAY, "--trace")
    trace_path = tmp_path / "trace.json"
    trace_path.write_text(json.dumps(json.loads(out)["trace"]))
    rc, out, _ = run(capsys, "dot", str(trace_path))
    assert rc == 0
    assert "3 [style=dashed];" in out


@pytest.mark.parametrize("command", ["bound", "report"])
def test_dot_reads_the_whole_trace_output(capsys, tmp_path, command):
    # the document `bound --trace` prints renders like its "trace" object
    _, out, _ = run(capsys, command, TWO_WAY, "--trace")
    whole_path, inner_path = tmp_path / "whole.json", tmp_path / "inner.json"
    whole_path.write_text(out)
    inner_path.write_text(json.dumps(json.loads(out)["trace"]))
    rc, whole, err = run(capsys, "dot", str(whole_path))
    assert (rc, err) == (0, "")
    assert whole == run(capsys, "dot", str(inner_path))[1]
    assert "3 [style=dashed];" in whole


@pytest.mark.parametrize("trace, where", [
    ([], "trace: expected a JSON object"),
    ({"steps": []}, "trace.final: missing final state"),
    ({"steps": [], "schema": 2}, "trace.schema: unsupported schema version"),
    ({}, "trace.final: missing final state"),
])
def test_dot_names_the_nested_trace_in_errors(capsys, tmp_path, trace, where):
    _, out, _ = run(capsys, "bound", TWO_WAY, "--trace")
    doc = json.loads(out)
    doc["trace"] = trace
    doc_path = tmp_path / "whole.json"
    doc_path.write_text(json.dumps(doc))
    rc, out, err = run(capsys, "dot", str(doc_path))
    assert (rc, out) == (2, "")
    assert f"{doc_path}:{where}" in err


@pytest.mark.parametrize("field, value, where", [
    ("arcs", None, "final.arcs: missing required field"),
    ("arcs", [[1, 1]], "final.arcs[0]: expected two distinct vertices"),
    ("arcs", [[1, 9]], "final.arcs[0]: expected a pair of vertices in 1..3"),
    ("edges", [[2, 1]],
     "final.edges[0]: expected two distinct vertices in increasing order"),
    ("n", True, "final.n: expected a positive integer"),
])
def test_dot_rejects_malformed_trace(capsys, tmp_path, field, value, where):
    _, out, _ = run(capsys, "bound", TWO_WAY, "--trace")
    trace = json.loads(out)["trace"]
    if value is None:
        del trace["final"][field]
    else:
        trace["final"][field] = value
    trace_path = tmp_path / "trace.json"
    trace_path.write_text(json.dumps(trace))
    rc, out, err = run(capsys, "dot", str(trace_path))
    assert (rc, out) == (2, "")
    assert f"{trace_path}:{where}" in err


# A final state's graphs cost about n**2 / 16 bytes, so every count past
# the limit is refused before anything is allocated: 300 000 isolated
# vertices took 40 s and 6.3 GB when only a MemoryError was caught.
@pytest.mark.parametrize("n", [bound.TRACE_VERTEX_LIMIT + 1, 300_000, 2**62, 10**20])
def test_dot_guards_a_huge_vertex_count(capsys, tmp_path, n):
    trace_path = tmp_path / "trace.json"
    trace_path.write_text(json.dumps({"schema": 1, "steps": [], "final": {
        "n": n, "arcs": [], "edges": [], "dummies": []}}))
    rc, out, err = run(capsys, "dot", str(trace_path))
    assert (rc, out) == (3, "")
    assert err.startswith(f"guard: {trace_path}:final.n: ")
    assert "Traceback" not in err


def test_outputs_are_byte_identical(capsys):
    first = run(capsys, "report", THREE_PAIRS, "--oracle", "--json")
    second = run(capsys, "report", THREE_PAIRS, "--oracle", "--json")
    assert first == second
    third = run(capsys, "bound", THREE_PAIRS, "--trace")
    fourth = run(capsys, "bound", THREE_PAIRS, "--trace")
    assert third == fourth


def _argv_cases(code_file):
    return [
        ["validate", TWO_WAY], ["validate", TWO_WAY, "--json"],
        ["simplify", THREE_PAIRS], ["classify", TRIANGLE, "--json"],
        ["bound", THREE_PAIRS, "--exhaustive", "--trace"], ["code", THREE_PAIRS],
        ["verify", THREE_PAIRS, code_file], ["oracle", TRIANGLE, "--max-len", "1"],
        ["report", THREE_PAIRS, "--oracle", "--json"], ["dot", TRIANGLE],
        ["report", "--json", TRIANGLE], ["report", TRIANGLE, "--js"],
        ["report", "--", TRIANGLE], ["report", TRIANGLE, "--"],
        ["-h"], ["--help"], ["report", "-h"], ["verify", "--help"],
        ["report", TRIANGLE, "--frobnicate"], ["report", TRIANGLE, "extra"],
        ["oracle", TRIANGLE, "--max-len", "x"], ["oracle", TRIANGLE, "--max-len", "-1"],
        ["report"], ["verify", TWO_WAY], ["frobnicate", TWO_WAY], ["Report", TWO_WAY],
        [], ["--json", "report", TRIANGLE], ["-h", "report"],
        ["report", "missing.json", "--json"],
        ["oracle", TRIANGLE, "--max-len=--"], ["verify", TRIANGLE, "--", "--"],
        ["report", "--", "--"]]


def _outcome(main_fn, argv):
    """(exit code, stdout, stderr) of one call; a help request's
    ``SystemExit`` and the reference's crash are named as the exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main_fn(list(argv))
        except SystemExit as exc:
            rc = f"SystemExit({exc.code})"
        except TypeError:
            rc = "TypeError"
    return rc, out.getvalue(), err.getvalue()


def _assert_matches_reference(argv):
    got, expected = _outcome(main, argv), _outcome(cli_reference.main, argv)
    if expected[0] == "TypeError":
        # argparse strips the first "--" from each value's tokens, so a
        # value that is a literal "--" reaches the command as an empty
        # list: msindex reports "--max-len=--" as not an integer, and opens
        # a code file named by a "--" after the separator as the file "--"
        if "--max-len=--" in argv:
            assert got == (1, "", "usage error: argument --max-len: "
                           "invalid int value: '--'\n"), argv
        else:
            assert argv[0] == "verify" and "--" in argv[argv.index("--") + 1:], argv
            assert got == (2, "", "error: [Errno 2] No such file or directory: '--'\n"), argv
    else:
        assert got == expected, argv


def test_command_line_matches_the_argparse_reference(tmp_path):
    code_file = str(tmp_path / "code.json")
    rc, out, _ = _outcome(main, ["code", THREE_PAIRS])
    assert rc == 0
    Path(code_file).write_text(out)
    for argv in _argv_cases(code_file):
        _assert_matches_reference(argv)
    assert cli._parsers.cache_info().misses == 1


# every command name and one that differs in case, the help and separator
# tokens, each option in full and as a unique prefix, explicit values, and
# positionals; no two options share a first letter, so the one ambiguous
# prefix is the bare "--" before an "="
ARGV_ALPHABET = (
    *cli_reference._build_parser()[1], "Report",
    "-h", "--help", "--", "-", "-1", "-x",
    "--json", "--exhaustive", "--trace", "--oracle", "--max-len",
    "--he", "--js", "--ex", "--tr", "--or", "--max", "--=1",
    "--max-len=3", "--max-len=-1", "--max-len=x", "--json=1",
    TWO_WAY, "missing.json", "3", "x")


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(ARGV_ALPHABET), max_size=6))
def test_drawn_command_lines_match_the_argparse_reference(argv):
    _assert_matches_reference(argv)


def _outcome_of(parse, argv):
    """The attributes of a parse's namespace (or None), or the message of
    its usage error.  The fast path's namespace is no ``argparse.Namespace``,
    so the two compare by their attributes."""
    try:
        args = parse(argv)
    except cli._UsageError as exc:
        return str(exc)
    return None if args is None else vars(args)


def _subparser(argv):
    return cli._parsers()[1][argv[0]].parse_args(argv[1:])


def _fast_path_domain():
    """Each command with its positionals before, after and around every
    subset of its flags in every order, and oracle's --max-len forms, given
    once or twice."""
    for name, (_, _, positionals, options) in cli._COMMANDS.items():
        files = [f"{positional}.json" for positional in positionals]
        flags = [option for option in options if option != "--max-len"]
        for k in range(len(flags) + 1):
            for chosen in itertools.permutations(flags, k):
                yield [name, *files, *chosen]
                yield [name, *chosen, *files]
                yield [name, *files[:1], *chosen, *files[1:]]
    for value in ("0", "3", "-1", "x"):
        yield ["oracle", "f", "--max-len", value]
        yield ["oracle", "--max-len", value, "f", "--json"]
        yield ["oracle", "f", "--max-len", "3", "--max-len", value]
        yield ["oracle", "f", "--max-len", value, "--max-len", "3"]
    yield ["oracle", "f", "--max-len=3"]


def test_spelled_out_reads_its_domain_as_argparse_does():
    for argv in _fast_path_domain():
        got = _outcome_of(cli._spelled_out, argv)
        if any(token.startswith("--max-len") for token in argv):
            assert got is None, argv
        else:
            assert got is not None and got == _outcome_of(_subparser, argv), argv


def _outside_the_fast_path(argv):
    """Whether argv holds a prefix, an "=", a "--", "-h", "--max-len" or an
    option that its command lacks."""
    options = cli._COMMANDS[argv[0]][3] if argv and argv[0] in cli._COMMANDS else {}
    return any(token.startswith("-") and (token not in options or token == "--max-len")
               for token in argv)


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(ARGV_ALPHABET), max_size=6))
def test_spelled_out_leaves_drawn_command_lines_to_argparse(argv):
    got = _outcome_of(cli._spelled_out, argv)
    if _outside_the_fast_path(argv):
        assert got is None, argv
    elif got is not None:
        assert got == _outcome_of(_subparser, argv), argv


def test_main_runs_no_argparse(capsys, monkeypatch, tmp_path):
    def refuse(*args, **kwargs):
        raise AssertionError("argparse parsed a command line")
    for name in ("parse_args", "parse_known_args"):
        monkeypatch.setattr(argparse.ArgumentParser, name, refuse)
    monkeypatch.setattr(cli, "_parsers", refuse)
    rc, out, _ = run(capsys, "report", TRIANGLE, "--json", "--exhaustive")
    assert rc == 0 and json.loads(out)["lower_bound"] == 2
    # the spelled-out forms that the benchmark and the CI steps send
    code_file = tmp_path / "code.json"
    rc, out, _ = run(capsys, "code", TRIANGLE)
    assert rc == 0
    code_file.write_text(out)
    for flag in ("--exhaustive", "--oracle", "--trace"):
        for flags in (("--json", flag), (flag, "--json")):
            rc, out, _ = run(capsys, "report", TRIANGLE, *flags)
            assert rc == 0 and json.loads(out)["lower_bound"] == 2, flags
    for argv in (["verify", TRIANGLE, str(code_file)], ["dot", TRIANGLE],
                 ["oracle", TRIANGLE, "--json"],
                 ["bound", TRIANGLE, "--exhaustive", "--trace"]):
        assert run(capsys, *argv)[0] == 0, argv


def _json_values():
    """JSON values with the cases the indented writer special-cases:
    int lists (with a bool among them now and then), nested containers,
    strings that need escapes or are not ASCII, big and negative ints,
    floats with NaN and infinities, and empty containers."""
    scalars = (st.none() | st.booleans() | st.integers()
               | st.integers(-2**200, 2**200) | st.floats()
               | st.text() | st.sampled_from(["\n\t\"\\", "é✓", "\x00\x1f", "\ud800"]))
    return st.recursive(
        scalars,
        lambda children: (st.lists(children, max_size=5)
                          | st.lists(st.integers() | st.booleans(), max_size=8)
                          | st.dictionaries(st.text(max_size=5), children, max_size=5)),
        max_leaves=30)


@settings(max_examples=1000, deadline=None)
@given(_json_values())
def test_indented_writer_matches_json_dumps(value):
    assert cli._indented(value, "") == json.dumps(value, indent=2, sort_keys=True)


@pytest.mark.parametrize("name", sorted(p.name for p in Path(__file__).parent.glob("golden_*.json")))
def test_indented_writer_matches_json_dumps_on_the_goldens(capsys, name):
    with open(Path(__file__).with_name(name), encoding="utf-8") as fh:
        doc = json.load(fh)
    documents = [doc, *(doc.values() if isinstance(doc, dict) else doc)]
    for document in documents:
        cli._dump(document)
        assert capsys.readouterr().out == json.dumps(document, indent=2, sort_keys=True) + "\n"


def _text_mode(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_outcome(path):
    try:
        return cli._load_json(str(path))
    except InstanceError as exc:
        return str(exc)


READ_CASES = {
    "crlf": b'{"a": [1,\r\n 2]}\r\n',
    "lone-cr": b'{"a":\r1}\r',
    "bom": b'\xef\xbb\xbf{"a": 1}',
    "malformed-crlf": b'{\r\n"a": 1,\r\n\r\n}\r\n',
    "malformed-cr": b'{\r"a"\r1}',
    "cr-in-string": b'{"a": "x\ry"}',
    "bad-byte-late": b'{"a": 1}\r\n' * 3000 + b'\xff',
    "truncated-utf8": b'{"a": "\xe2\x82"',
}


@pytest.mark.parametrize("data", READ_CASES.values(), ids=list(READ_CASES))
def test_binary_read_matches_a_text_mode_read(tmp_path, monkeypatch, data):
    path = tmp_path / "doc.json"
    path.write_bytes(data)
    got = _load_outcome(path)
    monkeypatch.setattr(cli, "_read", _text_mode)
    assert got == _load_outcome(path)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from([b"{", b"}", b"[", b"]", b'"a"', b":", b",", b"1",
                                 b" ", b"\r", b"\n", b"\r\n", b"\xef\xbb\xbf",
                                 b"\xc3\xa9", b"\xc3", b"\xff"]), max_size=12))
def test_drawn_bytes_read_as_a_text_mode_read(tmp_path_factory, pieces):
    path = tmp_path_factory.getbasetemp() / "drawn.json"
    path.write_bytes(b"".join(pieces))
    got = _load_outcome(path)
    original, cli._read = cli._read, _text_mode
    try:
        expected = _load_outcome(path)
    finally:
        cli._read = original
    assert got == expected


def _ring(tmp_path, m):
    """m receivers in one cycle, each wanting the next message; sender k
    owns messages k and k + 1, so no message is dropped."""
    path = tmp_path / f"ring{m}.json"
    path.write_text(json.dumps({
        "num_messages": m,
        "senders": [[k, k % m + 1] for k in range(1, m + 1)],
        "wants": [[k % m + 1] for k in range(1, m + 1)]}), encoding="utf-8")
    return path


def _perfbench(script):
    """The globals of a script of the benchmark, which is only read."""
    folder = Path(__file__).resolve().parent.parent / "perfbench"
    sys.path.insert(0, str(folder))
    try:
        return runpy.run_path(str(folder / script))
    finally:
        sys.path.remove(str(folder))


def _tree_fallback():
    """The pattern the benchmark uses to tell the tree warning from a
    failed report."""
    return _perfbench("run.py")["TREE_FALLBACK"]


@pytest.mark.parametrize("m, expected", [(16, 0), (17, 1)])
def test_tree_warning_matches_the_benchmark_pattern(capsys, tmp_path, m, expected):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc, out, _ = run(capsys, "report", str(_ring(tmp_path, m)), "--json")
    assert rc == 0 and json.loads(out)["instance"]["num_messages"] == m
    assert len(caught) == expected
    pattern = _tree_fallback()
    assert all(pattern.fullmatch(str(w.message)) for w in caught)


@pytest.mark.parametrize("m, expected", [(16, ""), (17, (
    "warning: instance has 17 > 16 vertices; "
    "falling back to greedy connecting-tree search\n"))], ids=["exact", "greedy"])
def test_the_command_writes_a_warning_as_one_line(tmp_path, m, expected):
    """The command shows each warning as one line, without Python's source
    location."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    done = subprocess.run(
        [sys.executable, "-m", "msindex.cli", "report", str(_ring(tmp_path, m)), "--json"],
        capture_output=True, text=True, env=env, timeout=60)
    assert (done.returncode, done.stderr) == (0, expected)
    assert json.loads(done.stdout)["instance"]["num_messages"] == m


def test_the_benchmark_reaches_every_traced_name(capsys):
    """Reports on the bundled instances, plain, exhaustive and with the
    oracle, call every function the benchmark traces and build a
    GraphPair, so a changed signature that drops a call fails here and
    not only in the traced benchmark run."""
    tracing = _perfbench("tracer.py")
    tracer = tracing["Tracer"]()
    tracer.install()
    try:
        for path in sorted(Path("instances").glob("*.json")):
            for flags in ((), ("--exhaustive",), ("--oracle",)):
                assert cli.main(["report", str(path), "--json", *flags]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert [name for name in tracing["TRACED_NAMES"] if not tracer.calls[name]] == []
    assert tracer.counters["model.GraphPair.constructions"] > 0


# two bytes that are not UTF-8, and lists nested past the interpreter's
# recursion limit
UNREADABLE = {"not-utf8": (b"\xff\xfe", "not UTF-8 text"),
              "too-deep": (b"[" * 100_000, "invalid JSON: nested too deeply")}


@pytest.mark.parametrize("kind", sorted(UNREADABLE))
@pytest.mark.parametrize("argv", [
    ("validate", "{bad}"), ("report", "{bad}"), ("dot", "{bad}"),
    ("verify", "{bad}", TWO_WAY), ("verify", TWO_WAY, "{bad}"),
], ids=["validate", "report", "dot", "verify-instance", "verify-code"])
def test_unreadable_files_are_parse_errors(capsys, tmp_path, kind, argv):
    data, message = UNREADABLE[kind]
    bad = tmp_path / "bad.json"
    bad.write_bytes(data)
    rc, out, err = run(capsys, *(arg.format(bad=bad) for arg in argv))
    assert (rc, out) == (2, "")
    assert err.startswith(f"error: {bad}: {message}")
    assert "Traceback" not in err


def test_report_builds_no_certificate_entries(capsys, tmp_path, monkeypatch):
    # the pipeline only asks whether the rank check failed, so a plain
    # m = 64 draw (thousands of (receiver, wanted) pairs) builds no entry
    inst = generate.random_instance(random.Random(64), 64)
    path = tmp_path / "plain64.json"
    path.write_text(json.dumps(inst.to_document()), encoding="utf-8")
    built = []
    original = verify.CertEntry.__new__

    def counted(cls, *args, **kwargs):
        built.append(args)
        return original(cls, *args, **kwargs)
    monkeypatch.setattr(verify.CertEntry, "__new__", counted)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the tree search warns above 16 vertices
        rc, out, _ = run(capsys, "report", str(path), "--json")
    assert rc == 0 and json.loads(out)["instance"]["num_messages"] == 64
    assert sum(map(len, inst.wants)) > 1000
    assert built == []


class _ClosedPipe(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_a_closed_output_ends_the_command_quietly(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    assert main(["report", THREE_PAIRS, "--json"]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("command", ["code", "verify"])
@pytest.mark.parametrize("k", [1, 100])
@pytest.mark.parametrize("buffered", [True, False])
def test_writing_to_a_closed_pipe_exits_0(tmp_path, command, k, buffered):
    # k disjoint gadgets (messages a, b, c; b wants a and c; c wants b;
    # senders {a, b} and {a, c}); buffered at k = 1, only the flush at
    # exit writes the output, and otherwise a write in the command fails
    inst = tmp_path / "gadgets.json"
    inst.write_text(json.dumps({
        "num_messages": 3 * k,
        "senders": [s for a in range(1, 3 * k, 3) for s in ([a, a + 1], [a, a + 2])],
        "wants": [w for a in range(1, 3 * k, 3) for w in ([], [a, a + 2], [a + 1])]}))
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src"),
           "PYTHONUNBUFFERED": "" if buffered else "1"}
    argv = [sys.executable, "-m", "msindex.cli", "code", str(inst)]
    if command == "verify":
        code = tmp_path / "code.json"
        code.write_bytes(subprocess.run(argv, capture_output=True, env=env).stdout)
        argv = [*argv[:3], "verify", str(inst), str(code)]
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(argv, stdout=write_end, stderr=subprocess.PIPE,
                              text=True, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert done.returncode == 0, done.stderr
    for text in ("error:", "Traceback", "Exception ignored"):
        assert text not in done.stderr
