import copy
import importlib
import json
import os
import pkgutil
import random
import subprocess
import sys
from collections.abc import Mapping
from enum import IntEnum
from pathlib import Path
from types import SimpleNamespace

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import msindex
from msindex import generate
from msindex.analysis import analyze
from msindex.graphs import scc_table
from msindex.model import (GraphPair, InstanceError, ProblemInstance,
                           _parse_index_set, _require, build_graphs,
                           check_schema, mask_of, parse_instance, simplify)
from msindex.verify import ORACLE_LIMIT, oracle_min_linear, rank_decodable

from conftest import make_instance
from strategies import instances


def test_parse_three_pairs(three_pairs):
    assert three_pairs.num_messages == 6
    assert three_pairs.num_senders == 4
    assert three_pairs.senders[0] == frozenset({1, 3, 5})
    assert three_pairs.wants[2] == frozenset({4})
    assert not three_pairs.simplified


def test_parse_accepts_json_text(two_way):
    text = json.dumps({"num_messages": 2, "senders": [[1], [2]],
                       "wants": [[2], [1]]})
    assert parse_instance(text) == two_way


def test_parse_self_want_reports_path():
    with pytest.raises(InstanceError) as err:
        make_instance(2, senders=[{1, 2}], wants=[{1}, {1}])
    assert err.value.path == "wants[0]"


def test_parse_out_of_range_index():
    with pytest.raises(InstanceError) as err:
        make_instance(2, senders=[{1, 2}], wants=[{3}, {}])
    assert err.value.path == "wants[0][0]"


def test_parse_empty_sender_set():
    with pytest.raises(InstanceError) as err:
        parse_instance({"num_messages": 2, "senders": [[1, 2], []],
                        "wants": [[2], [1]]})
    assert err.value.path == "senders[1]"


def test_parse_requires_full_coverage():
    with pytest.raises(InstanceError) as err:
        make_instance(3, senders=[{1, 2}], wants=[{2}, {1}, {}])
    assert err.value.path == "senders"


def test_parse_rejects_bad_schema_version():
    with pytest.raises(InstanceError):
        parse_instance({"schema": 2, "num_messages": 2,
                        "senders": [[1, 2]], "wants": [[2], [1]]})


def test_parse_wants_length_must_match():
    with pytest.raises(InstanceError) as err:
        parse_instance({"num_messages": 3, "senders": [[1, 2, 3]],
                        "wants": [[2], [1]]})
    assert err.value.path == "wants"


def test_parse_deeply_nested_text_is_an_instance_error():
    with pytest.raises(InstanceError) as err:
        parse_instance("[" * 100_000)
    assert (err.value.path, err.value.message) == (
        "$", "invalid JSON: nested too deeply")


def _reference_parse_index_set(raw, path, m):
    """The element-by-element check of one list, which names the first
    bad index."""
    _require(isinstance(raw, list), path, f"expected a list, got {type(raw).__name__}")
    seen: set[int] = set()
    for k, x in enumerate(raw):
        _require(isinstance(x, int) and not isinstance(x, bool),
                 f"{path}[{k}]", f"expected an integer, got {x!r}")
        _require(1 <= x <= m, f"{path}[{k}]", f"index {x} out of range 1..{m}")
        _require(x not in seen, f"{path}[{k}]", f"duplicate index {x}")
        seen.add(x)
    return frozenset(seen)


class _Index(IntEnum):
    ONE = 1
    TWO = 2
    NINE = 9


def _foreign_elements(m):
    """Anything a JSON list (or a Python caller) may hold besides a fresh
    index in 1..m."""
    out_of_range = st.sampled_from([0, -1, m + 1, m + 2])
    return st.one_of(
        out_of_range, out_of_range, st.integers(), st.booleans(),
        st.sampled_from(list(_Index)), st.floats(allow_nan=False),
        st.sampled_from([1.0, 2.0]), st.text(max_size=2), st.none(),
        st.lists(st.integers(1, m), max_size=2))


@st.composite
def _index_lists(draw):
    """A list of distinct indices in 1..m, maybe with foreign elements or
    duplicates inserted, or now and then no list at all."""
    m = draw(st.integers(1, 8))
    raw = draw(st.lists(st.integers(1, m), unique=True, max_size=m))
    for _ in range(draw(st.integers(0, 2))):
        new = draw(st.sampled_from(raw) if raw and draw(st.booleans())
                   else _foreign_elements(m))
        raw.insert(draw(st.integers(0, len(raw))), new)
    if draw(st.integers(0, 9)) == 0:
        raw = draw(st.sampled_from([None, 3, "1", {"a": 1}, (1, 2)]))
    return raw, m


def _outcome(parse, raw, m):
    try:
        return "ok", parse(raw, "wants[3]", m)
    except InstanceError as exc:
        return "error", exc.path, exc.message


@settings(max_examples=400, deadline=None)
@given(_index_lists())
def test_parse_index_set_matches_the_element_loop(case):
    raw, m = case
    expected = _outcome(_reference_parse_index_set, raw, m)
    got = _outcome(_parse_index_set, raw, m)
    assert got == expected


def _reference_parse_instance(document):
    """The sequential checks in document order, with the element loop for
    every list: the path that names the first fault of a document."""
    if isinstance(document, str):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as exc:
            raise InstanceError("$", f"invalid JSON: {exc}") from exc
        except RecursionError as exc:
            raise InstanceError("$", "invalid JSON: nested too deeply") from exc
    _require(isinstance(document, Mapping), "$", "expected a JSON object")

    allowed = {"schema", "num_messages", "senders", "wants"}
    for key in document:
        _require(key in allowed, str(key), "unknown field")
    check_schema(document, "schema")
    for key in ("num_messages", "senders", "wants"):
        _require(key in document, key, "missing required field")

    m = document["num_messages"]
    _require(isinstance(m, int) and not isinstance(m, bool) and m >= 1,
             "num_messages", f"expected a positive integer, got {m!r}")

    raw_senders = document["senders"]
    _require(isinstance(raw_senders, list) and len(raw_senders) >= 1,
             "senders", "expected a non-empty list of sender message sets")
    senders = []
    for s, raw in enumerate(raw_senders):
        ms = _reference_parse_index_set(raw, f"senders[{s}]", m)
        _require(len(ms) > 0, f"senders[{s}]", "empty sender set")
        senders.append(ms)

    raw_wants = document["wants"]
    _require(isinstance(raw_wants, list), "wants", "expected a list")
    _require(len(raw_wants) == m, "wants",
             f"expected one want-set per receiver ({m}), got {len(raw_wants)}")
    wants = []
    for k, raw in enumerate(raw_wants):
        wr = _reference_parse_index_set(raw, f"wants[{k}]", m)
        _require(k + 1 not in wr, f"wants[{k}]",
                 f"receiver {k + 1} wants its own message")
        wants.append(wr)

    covered: set[int] = set()
    for ms in senders:
        covered |= ms
    _require(covered == set(range(1, m + 1)), "senders",
             "every message must be owned by some sender")

    return ProblemInstance(num_messages=m, senders=tuple(senders),
                           wants=tuple(wants))


FAULTS = ("unknown key", "schema", "m", "non-list entry", "non-int element",
          "out of range", "duplicate", "empty sender", "self-want",
          "missing coverage", "wants length")


def _inject(draw, doc, fault):
    """Put one fault of the kind ``fault`` into ``doc``, in place."""
    m = doc["num_messages"]
    m = m if type(m) is int and m >= 1 else 3
    entries = [lst for lst in (doc["senders"], doc["wants"])
               if isinstance(lst, list) and lst]
    if fault == "unknown key":
        doc[draw(st.sampled_from(["extra", "Senders", "1"]))] = 1
    elif fault == "schema":
        doc["schema"] = draw(st.sampled_from([2, 0, True, 1.0, "1", None]))
    elif fault == "m":
        doc["num_messages"] = draw(st.sampled_from(
            [0, -1, True, 2.0, "3", None, m - 1, m + 1]))
    elif fault == "wants length":
        if isinstance(doc["wants"], list):
            if doc["wants"] and draw(st.booleans()):
                doc["wants"].pop(draw(st.integers(0, len(doc["wants"]) - 1)))
            else:
                doc["wants"].append([])
    elif fault == "missing coverage":
        lost = draw(st.integers(1, m))
        for raw in doc["senders"] if isinstance(doc["senders"], list) else ():
            if isinstance(raw, list):
                raw[:] = [x for x in raw if x != lost]
    elif fault == "empty sender":
        if isinstance(doc["senders"], list) and doc["senders"]:
            doc["senders"][draw(st.integers(0, len(doc["senders"]) - 1))] = []
    elif fault == "self-want":
        if isinstance(doc["wants"], list) and doc["wants"]:
            k = draw(st.integers(0, len(doc["wants"]) - 1))
            if isinstance(doc["wants"][k], list):
                doc["wants"][k].insert(draw(st.integers(0, len(doc["wants"][k]))), k + 1)
    elif entries:
        lst = draw(st.sampled_from(entries))
        k = draw(st.integers(0, len(lst) - 1))
        if fault == "non-list entry":
            lst[k] = draw(st.sampled_from([None, 3, "1", {"a": 1}, (1, 2), True]))
        elif isinstance(lst[k], list):
            raw = lst[k]
            if fault == "non-int element":
                new = draw(st.sampled_from(
                    [True, False, 1.0, 2.0, "1", None, [1], _Index.ONE]))
            elif fault == "out of range":
                new = draw(st.sampled_from([0, -1, m + 1, 2**70]))
            elif raw:
                new = draw(st.sampled_from(raw))
            else:
                return
            raw.insert(draw(st.integers(0, len(raw))), new)


@st.composite
def _instance_documents(draw):
    """An instance document from the generator strategy with zero to three
    faults injected, in any order and in any of its lists."""
    inst = draw(instances(max_m=7))
    doc = inst.to_document()
    if draw(st.booleans()):
        del doc["schema"]
    for raw in doc["senders"] + doc["wants"]:
        raw[:] = draw(st.permutations(raw))
    for _ in range(draw(st.integers(0, 3))):
        _inject(draw, doc, draw(st.sampled_from(FAULTS)))
    return doc


def _parse_outcome(parse, document):
    try:
        inst = parse(document)
    except InstanceError as exc:
        return "error", exc.path, exc.message
    return ("ok", inst, inst.sender_masks, inst.want_masks, inst.carried_mask,
            inst.simplified)


@settings(max_examples=600, deadline=None)
@given(_instance_documents())
def test_whole_document_intake_matches_the_sequential_checks(doc):
    """The same first error (path and message) on a faulty document, and an
    equal instance with equal mask views on a valid one."""
    expected = _parse_outcome(_reference_parse_instance, copy.deepcopy(doc))
    assert _parse_outcome(parse_instance, doc) == expected


def test_whole_document_intake_keeps_the_sender_fault_first():
    doc = {"num_messages": 3, "senders": [[1, 2], [3, True]],
           "wants": [[2], [1], [1, 1]]}
    with pytest.raises(InstanceError) as err:
        parse_instance(doc)
    assert (err.value.path, err.value.message) == (
        "senders[1][1]", "expected an integer, got True")


def _reference_build_graphs(inst):
    """The pair loops that the comprehensions replaced."""
    arcs = set()
    for j, wr in enumerate(inst.wants, start=1):
        for i in wr:
            arcs.add((i, j))
    edges = set()
    for ms in inst.senders:
        owned = sorted(ms)
        for a in range(len(owned)):
            for b in range(a + 1, len(owned)):
                edges.add((owned[a], owned[b]))
    return arcs, edges


@given(instances())
def test_build_graphs_matches_the_pair_loops(inst):
    simple, _ = simplify(inst)
    g = build_graphs(simple)
    assert (g.arcs, g.edges) == _reference_build_graphs(simple)


@pytest.mark.parametrize("arcs, edges", [
    ([(2, 2)], []), ([(0, 1)], []), ([(1, 4)], []),
    ([], [(2, 2)]), ([], [(2, 1)]), ([], [(0, 1)]), ([], [(1, 4)])])
def test_graph_pair_rejects_bad_pairs(arcs, edges):
    with pytest.raises(ValueError):
        GraphPair(3, frozenset(arcs), frozenset(edges))


def test_grounding_steps_reject_bad_endpoints():
    g = GraphPair(3, frozenset({(1, 2), (2, 1)}), frozenset())
    scc = 0b011
    steps = [lambda: g.add_arc(scc, 1, 1), lambda: g.add_arc(scc, 1, 4),
             lambda: g.add_arc(scc, 0, 3), lambda: g.add_dummy(scc, 0),
             lambda: g.add_dummy(scc, 5), lambda: g.add_edges([(2, 2)]),
             lambda: g.add_edges([(2, 1)]), lambda: g.add_edges([(0, 1)]),
             lambda: g.add_edges([(1, 4)])]
    for step in steps:
        with pytest.raises(ValueError):
            step()


def test_simplify_removes_unwanted_message():
    inst = make_instance(3, senders=[{1, 2, 3}], wants=[{2}, {1}, {}])
    simple, removed = simplify(inst)
    assert removed == {3}
    assert simple.senders == (frozenset({1, 2}),)
    assert simple.num_messages == 3
    assert simple.simplified


def test_simplify_three_pairs_is_noop(three_pairs):
    simple, removed = simplify(three_pairs)
    assert removed == frozenset()
    assert simple.senders == three_pairs.senders


def test_simplify_may_empty_a_sender():
    inst = make_instance(2, senders=[{1}, {2}], wants=[{2}, {}])
    simple, removed = simplify(inst)
    assert removed == {1}
    assert simple.senders == (frozenset(), frozenset({2}))
    assert simple.sender_masks == (0, 0b10) and simple.carried_mask == 0b10
    assert simple.num_senders == 2
    # codelength is unaffected by dropping the dead message
    assert oracle_min_linear(inst)[0] == oracle_min_linear(simple)[0] == 1


def test_build_graphs_three_pairs(three_pairs):
    simple, _ = simplify(three_pairs)
    g = build_graphs(simple)
    assert g.arcs == {(1, 2), (2, 1), (3, 4), (4, 3), (5, 6), (6, 5)}
    assert g.edges == {(1, 3), (1, 5), (3, 5), (2, 3), (2, 5), (2, 4),
                       (4, 5), (2, 6), (4, 6)}


def test_build_graphs_two_way(two_way):
    simple, _ = simplify(two_way)
    g = build_graphs(simple)
    assert g.arcs == {(1, 2), (2, 1)}
    assert g.edges == frozenset()


def test_build_graphs_triangle(triangle):
    simple, _ = simplify(triangle)
    g = build_graphs(simple)
    assert g.arcs == {(1, 2), (2, 3), (3, 1)}
    assert g.edges == {(1, 2), (1, 3), (2, 3)}


def test_build_graphs_requires_simplified(three_pairs):
    with pytest.raises(ValueError):
        build_graphs(three_pairs)


@pytest.mark.parametrize("senders, wants, message", [
    ([{1, 2}, {3}], [{2}, {1}], "sender set [3] out of range 1..2"),
    ([{1, 2}], [{2}, {5}], "receiver 2 wants [5] outside 1..2 less 2"),
    ([{1, 2}], [{1}, {1}], "receiver 1 wants [1] outside 1..2 less 1"),
], ids=["sender-above-m", "want-above-m", "self-want"])
@pytest.mark.parametrize("run", [analyze, simplify], ids=["analyze", "simplify"])
def test_constructed_instance_out_of_range_is_a_value_error(senders, wants,
                                                            message, run):
    # parse_instance rejects such documents; a constructed instance is
    # checked before its incidence is derived, which would index past m
    # (a self-want indexes nothing, but is the same check)
    inst = ProblemInstance(2, tuple(map(frozenset, senders)),
                           tuple(map(frozenset, wants)))
    with pytest.raises(ValueError) as exc:
        run(inst)
    assert str(exc.value) == message


@given(instances())
def test_simplify_idempotent(inst):
    once, removed = simplify(inst)
    twice, removed_again = simplify(once)
    assert once == twice
    assert removed_again == frozenset()


@given(instances())
def test_outgoing_arc_iff_wanted(inst):
    simple, _ = simplify(inst)
    g = build_graphs(simple)
    has_out = {i for (i, _) in g.arcs}
    assert has_out == set().union(*simple.wants)
    # after simplification a vertex carries a message iff it has an out-arc
    assert set().union(*simple.senders) == has_out


@settings(max_examples=25, deadline=None)
@given(instances(max_m=5))
def test_oracle_invariant_under_simplification(inst):
    simple, _ = simplify(inst)
    assert oracle_min_linear(inst)[0] == oracle_min_linear(simple)[0]


def _assert_mask_views(inst):
    assert inst.sender_masks == tuple(mask_of(ms) for ms in inst.senders)
    assert inst.want_masks == tuple(mask_of(wr) for wr in inst.wants)
    assert inst.carried_mask == mask_of(frozenset().union(*inst.senders))


def _mask_view_cases():
    rng = random.Random("mask-views")
    yield make_instance(2, senders=[{1}, {2}], wants=[{2}, {}])
    yield parse_instance(json.dumps({"num_messages": 3, "senders": [[1, 2, 3]],
                                     "wants": [[2], [1], []]}))
    for _ in range(3):
        yield generate.random_instance(rng, 9)
        yield generate.random_cycle_instance(rng, 9, sender_size=3)
        yield generate.random_partitioned_instance(rng, 9)


@pytest.mark.parametrize("inst", list(_mask_view_cases()))
def test_mask_views_match_the_sets(inst):
    # the views are read before and after simplify, which carries them
    # over by AND with the wanted messages; the first case empties a sender
    fresh = type(inst)(inst.num_messages, inst.senders, inst.wants)
    _assert_mask_views(inst)
    simple, removed = simplify(inst)
    twice, _ = simplify(simple)
    unread, _ = simplify(fresh)
    for case in (simple, twice, unread, fresh):
        _assert_mask_views(case)
    assert simple.carried_mask == inst.carried_mask & ~mask_of(removed)
    # the views are no fields: equality and hashing are over the sets
    assert fresh == inst and hash(fresh) == hash(inst)
    assert simple == twice == unread and hash(simple) == hash(twice)
    assert "sender_masks" not in repr(simple)
    # an instance is immutable, mask views included
    for name in ("num_messages", "sender_masks"):
        with pytest.raises(AttributeError):
            setattr(inst, name, 0)
        with pytest.raises(AttributeError):
            delattr(inst, name)


@given(instances())
def test_mask_views_hold_after_simplify(inst):
    simple, _ = simplify(inst)
    for case in (inst, simple, simplify(simple)[0]):
        _assert_mask_views(case)


def _brute_incidence(m, senders, wants):
    """The incidence by its definition from the sets: per message, the
    receivers that want it, the senders that hold it, and the union of
    the sender sets that hold it."""
    messages = range(1, m + 1)
    return (
        (0,) + tuple(mask_of(r for r, wr in enumerate(wants, 1) if i in wr)
                     for i in messages),
        (0,) + tuple(mask_of(s for s, ms in enumerate(senders, 1) if i in ms)
                     for i in messages),
        (0,) + tuple(mask_of(frozenset().union(*(ms for ms in senders if i in ms)))
                     for i in messages))


@settings(max_examples=300, deadline=None)
@given(instances(max_m=7), st.booleans())
def test_incidence_matches_the_sets(inst, read_first):
    """Through the constructor and through the document, before and after
    simplify, with or without the set views read before simplify: each
    incidence mask is its definition, the views are the sets, and the
    graphs are the pair loops'."""
    m, senders, wants = inst.num_messages, inst.senders, inst.wants
    wanted = frozenset().union(*wants)
    kept = tuple(ms & wanted for ms in senders)
    for case in (type(inst)(m, senders, wants), parse_instance(inst.to_document())):
        if read_first:
            assert (case.senders, case.wants) == (senders, wants)
        simple, _ = simplify(case)
        twice, _ = simplify(simple)
        for each, owned in ((simple, kept), (twice, kept), (case, senders)):
            assert each.incidence == _brute_incidence(m, owned, wants)
            assert (each.senders, each.wants) == (owned, wants)
            _assert_mask_views(each)
        g = build_graphs(simple)
        assert (g.arcs, g.edges) == _reference_build_graphs(
            SimpleNamespace(senders=kept, wants=wants))


def _unread_views(*insts):
    return [sorted({"senders", "wants"} & vars(inst).keys()) for inst in insts]


@pytest.mark.parametrize("exhaustive", [False, True])
def test_a_report_builds_no_set_view(exhaustive):
    """A whole report of a parsed document (both bounds, the SCC table,
    the rank check with its certificate, and the oracle when it fits)
    reads the masks only: no set view is ever built."""
    rng = random.Random("no-set-views")
    docs = [json.loads(path.read_text()) for path in
            sorted((Path(__file__).resolve().parent.parent / "instances").glob("*.json"))]
    docs += [make(rng, m).to_document() for m in (6, 12) for make in (
        generate.random_instance, generate.random_partitioned_instance)]
    for doc in docs:
        a = analyze(parse_instance(doc), exhaustive)
        assert a.lower_bound <= a.upper_bound
        scc_table(a.graphs)
        if a.simple.num_messages <= ORACLE_LIMIT:
            assert a.oracle[0] >= a.lower_bound
        check = rank_decodable(a.planned, a.simple)
        assert len(check.entries) == sum(map(int.bit_count, a.simple.want_masks))
        assert _unread_views(a.instance, a.simple) == [[], []]


@pytest.mark.parametrize("name", sorted(
    module.name for module in pkgutil.iter_modules(msindex.__path__)))
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"msindex.{name}")
    exported = getattr(module, "__all__", ())
    assert [n for n in exported if not hasattr(module, n)] == []


def _fresh_interpreter(code: str) -> subprocess.CompletedProcess:
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(root / "src"), str(root / "scripts")])}
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, cwd=root, timeout=60)


def test_import_loads_no_code_generator():
    """A fresh interpreter imports the package, its command line and a
    script with ``dataclasses`` blocked, so no class is generated."""
    done = _fresh_interpreter('import sys; sys.modules["dataclasses"] = None; '
                              "import msindex, msindex.cli, find_gaps")
    assert done.returncode == 0, done.stderr


def test_spelled_out_command_runs_without_argparse():
    """With ``argparse`` blocked, a fresh interpreter imports the command
    line and runs a spelled-out report to exit 0."""
    done = _fresh_interpreter(
        'import sys; sys.modules["argparse"] = None; import msindex.cli; '
        'sys.exit(msindex.cli.main(["report", '
        '"instances/triangle_single_sender.json", "--json", "--exhaustive"]))')
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["lower_bound"] == 2


def test_usage_error_imports_argparse_for_its_message():
    """The import leaves argparse out, and a usage error still gets
    argparse's message."""
    done = _fresh_interpreter(
        "import sys, msindex.cli; loaded = 'argparse' in sys.modules; "
        'rc = msindex.cli.main(["report", "instances/triangle_single_sender.json", '
        '"--bogus"]); print(loaded, rc, "argparse" in sys.modules)')
    assert done.stdout.split() == ["False", "1", "True"], done.stderr
    assert done.stderr == "usage error: unrecognized arguments: --bogus\n"
