"""Every subcommand on mutated documents: exit 0 or 2, never a traceback.

Valid instance, code and trace documents of small instances get one
mutation each: a dropped field, or a value replaced by one of another JSON
type, a boolean, a float or an out-of-range integer.  Instance documents
go to every subcommand (``verify`` with a valid code), code documents to
``verify`` and trace documents to ``dot``.  A run must return 0 or 2
without raising; the mutations that ``*_malformed`` names must return 2
with an ``error:`` line and no output.
"""

import contextlib
import copy
import io
import json

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from msindex.cli import main

from strategies import instances

SUBCOMMANDS = ("validate", "simplify", "classify", "bound", "code", "oracle",
               "report", "dot", "verify")
OTHER_TYPES = ("x", None, {}, [], 7)


def _run(*argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(list(argv))
    return rc, out.getvalue(), err.getvalue()


def _nodes(doc, path=()):
    """(path, value) of every value below the document root."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, value in items:
        yield path + (key,), value
        yield from _nodes(value, path + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@st.composite
def _mutations(draw, doc):
    """(mutated copy, path, operation, new value)."""
    path, value = draw(st.sampled_from(list(_nodes(doc))))
    ops = ["retype", "bool", "float"]
    if isinstance(_at(doc, path[:-1]), dict):
        ops.append("drop")
    if type(value) is int:
        ops.append("range")
    op = draw(st.sampled_from(ops))
    new = None
    if op == "retype":
        new = draw(st.sampled_from(
            [v for v in OTHER_TYPES if type(v) is not type(value)]))
    elif op == "bool":
        new = draw(st.booleans())
    elif op == "float":
        new = float(value) if type(value) is int else 1.5
    elif op == "range":
        new = draw(st.sampled_from((-1, 99)))
    mutated = copy.deepcopy(doc)
    parent = _at(mutated, path[:-1])
    if op == "drop":
        del parent[path[-1]]
    else:
        parent[path[-1]] = new
    return mutated, path, op, new


def _instance_malformed(path, op, new) -> bool:
    return not (path == ("schema",) and op == "drop")


def _code_malformed(path, op, new) -> bool:
    if op == "drop":
        return path[-1] not in ("schema", "kind")
    return not (path[-1] == "kind" and new is None)


def _trace_malformed(path, op, new) -> bool:
    # dot reads only the schema and the final state; the steps mark a trace
    if path[0] == "schema":
        return op != "drop"
    if path == ("steps",):
        return op == "drop"
    if path[0] != "final" or path[1:] == ("n_real",):
        return False
    return not (path == ("final", "n") and new == 99)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _write(path, doc) -> str:
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _assert_exit(result, malformed: bool) -> None:
    rc, out, err = result
    assert rc in (0, 2), err
    assert "Traceback" not in err
    if malformed:
        assert rc == 2 and out == "" and err.startswith("error: "), result


@settings(max_examples=60, deadline=None)
@given(instances(max_m=4), st.sampled_from(("instance", "code", "trace")),
       st.data())
def test_subcommands_on_mutated_documents(workdir, instance, kind, data):
    inst = instance.to_document()
    inst_path = _write(workdir / "inst.json", inst)
    rc, code_out, _ = _run("code", inst_path)
    assert rc == 0
    code_path = _write(workdir / "code.json", json.loads(code_out))
    if kind == "instance":
        doc, path, op, new = data.draw(_mutations(inst))
        bad_path = _write(workdir / "bad.json", doc)
        for command in SUBCOMMANDS:
            argv = (bad_path, code_path) if command == "verify" else (bad_path,)
            _assert_exit(_run(command, *argv),
                         _instance_malformed(path, op, new))
    elif kind == "code":
        doc, path, op, new = data.draw(_mutations(json.loads(code_out)))
        bad_path = _write(workdir / "bad.json", doc)
        _assert_exit(_run("verify", inst_path, bad_path),
                     _code_malformed(path, op, new))
    else:
        rc, bound_out, _ = _run("bound", inst_path, "--trace")
        assert rc == 0
        doc, path, op, new = data.draw(
            _mutations(json.loads(bound_out)["trace"]))
        bad_path = _write(workdir / "bad.json", doc)
        _assert_exit(_run("dot", bad_path), _trace_malformed(path, op, new))
