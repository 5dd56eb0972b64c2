import json

import pytest

from msindex import cli
from msindex.cli import main

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


def test_outputs_are_byte_identical(capsys):
    first = run(capsys, "report", THREE_PAIRS, "--oracle", "--json")
    second = run(capsys, "report", THREE_PAIRS, "--oracle", "--json")
    assert first == second
    third = run(capsys, "bound", THREE_PAIRS, "--trace")
    fourth = run(capsys, "bound", THREE_PAIRS, "--trace")
    assert third == fourth


def test_reused_parser_carries_no_state(capsys):
    # main() builds its parser once per process; every call after the
    # first must behave as if it had a parser of its own
    sequence = [
        ["report", THREE_PAIRS, "--oracle", "--json"],
        ["report", THREE_PAIRS, "--json"],
        ["report", THREE_PAIRS, "--jobs", "2"],
        ["oracle", THREE_PAIRS, "--max-len", "1"],
        ["--help"],
        ["report", THREE_PAIRS, "--exhaustive", "--trace"],
    ]

    def outcome(argv):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = f"SystemExit({exc.code})"
        out = capsys.readouterr()
        return rc, out.out, out.err

    alone = []
    for argv in sequence:
        cli._build_parser.cache_clear()
        alone.append(outcome(argv))
    assert [rc for rc, _, _ in alone] == [0, 0, 1, 0, "SystemExit(0)", 0]

    cli._build_parser.cache_clear()
    assert [outcome(argv) for argv in sequence] == alone
    assert cli._build_parser.cache_info().misses == 1
