"""The ``analyze`` pipeline: each stage runs once, only when read, and
every caller gets the checks tying the stages together."""

import contextlib
import io
from collections import Counter

import pytest

from msindex import analyze, bound, cli, code, graphs, verify

THREE_PAIRS = "instances/three_pairs_overlapping_senders.json"
STAGES = ((graphs, "classify_all"), (bound, "run_grounding"),
          (code, "find_connecting_trees"), (verify, "rank_decodable"))


def _count_stages(monkeypatch, *argv) -> Counter:
    calls = Counter()
    for module, name in STAGES:
        original = getattr(module, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(list(argv)) == 0
    return calls


def test_report_runs_each_stage_once(monkeypatch):
    calls = _count_stages(monkeypatch, "report", THREE_PAIRS, "--json")
    assert calls == {"classify_all": 1, "run_grounding": 1,
                     "find_connecting_trees": 1, "rank_decodable": 1}


def test_bound_builds_no_trees(monkeypatch):
    calls = _count_stages(monkeypatch, "bound", THREE_PAIRS, "--json")
    assert calls == {"run_grounding": 1}


def test_code_runs_no_grounding(monkeypatch):
    calls = _count_stages(monkeypatch, "code", THREE_PAIRS)
    assert calls == {"find_connecting_trees": 1, "rank_decodable": 1}


def test_planned_code_must_pass_the_rank_test(monkeypatch, three_pairs):
    monkeypatch.setattr(verify, "rank_decodable",
                        lambda c, inst: verify.DecodeFailure(1, 2))
    with pytest.raises(AssertionError, match="failed verification"):
        analyze(three_pairs).planned


def test_upper_bound_is_the_planned_length(monkeypatch, three_pairs):
    monkeypatch.setattr(code, "upper_bound", lambda g, trees: 4)
    with pytest.raises(AssertionError, match="counted bound 4"):
        analyze(three_pairs).upper_bound


def test_oracle_must_sit_in_the_sandwich(monkeypatch, three_pairs):
    a = analyze(three_pairs)
    assert (a.lower_bound, a.oracle[0], a.upper_bound) == (4, 4, 5)
    monkeypatch.setattr(verify, "oracle_min_linear",
                        lambda inst: (3, a.planned))
    with pytest.raises(AssertionError, match="sandwich violated: 4 <= 3 <= 5"):
        analyze(three_pairs).oracle


def test_oracle_witness_must_decode_at_its_length(monkeypatch, three_pairs):
    length, witness = analyze(three_pairs).oracle
    assert (length, witness.length) == (4, 4)
    partial = code.LinearIndexCode(witness.num_messages, witness.rows[:-1])
    monkeypatch.setattr(verify, "oracle_min_linear", lambda inst: (4, partial))
    with pytest.raises(AssertionError, match="witness failed verification"):
        analyze(three_pairs).oracle
    monkeypatch.setattr(verify, "oracle_min_linear", lambda inst: (5, witness))
    with pytest.raises(AssertionError, match="witness length 4 != oracle length 5"):
        analyze(three_pairs).oracle
