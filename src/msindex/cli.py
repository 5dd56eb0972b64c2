"""Command-line front end.

Exit codes: 0 success, 1 usage error, 2 unreadable or malformed input,
3 size-guard violation.  All outputs are deterministic for fixed inputs
and flags.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from json.encoder import encode_basestring_ascii as _escape

from . import bound, code, graphs, verify
from .analysis import Analysis, analyze
from .model import (GraphPair, InstanceError, SCHEMA_VERSION, bits, check_schema,
                    mask_of, parse_instance)

EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_GUARD = 3


class _UsageError(Exception):
    pass


def _read(path: str) -> str:
    """The file as strict UTF-8 text with universal newlines, as a
    text-mode read gives it, without the text layer's per-call cost."""
    with open(path, "rb", buffering=0) as fh:
        data = fh.readall()
    return data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")


def _load_json(path: str) -> dict:
    try:
        doc = json.loads(_read(path))
    except UnicodeDecodeError as exc:
        raise InstanceError(path, f"not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InstanceError(path, f"invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise InstanceError(path, "invalid JSON: nested too deeply") from exc
    if not isinstance(doc, dict):
        raise InstanceError(path, "expected a JSON object")
    return doc


def _analyze(path: str, exhaustive: bool = False) -> Analysis:
    return analyze(parse_instance(_load_json(path)), exhaustive)


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _indented(obj, pad: str) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)`` for a value nested at
    the indentation ``pad``, whose objects have string keys, without the
    pure-Python encoder that ``json`` falls back to whenever ``indent`` is
    set."""
    if isinstance(obj, str):
        return _escape(obj)
    if type(obj) is int:
        return int.__repr__(obj)
    inner = pad + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = [f"{_escape(key)}: {_indented(value, inner)}"
                 for key, value in sorted(obj.items())]
        return "{\n" + inner + (",\n" + inner).join(parts) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if set(map(type, obj)) == {int}:
            parts = map(int.__repr__, obj)
        else:
            parts = [_indented(value, inner) for value in obj]
        return "[\n" + inner + (",\n" + inner).join(parts) + "\n" + pad + "]"
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    return json.dumps(obj)


def _dump(obj) -> None:
    print(_indented(obj, ""))


def _trace_to_dict(trace: bound.GroundingTrace) -> dict:
    g = trace.graphs
    return {
        "schema": SCHEMA_VERSION,
        "mode": trace.mode,
        "fell_back": trace.fell_back,
        "steps": trace.log,
        "n_connected": trace.n_connected,
        "n_remaining": trace.n_remaining,
        "n_iv": trace.n_iv,
        "dummy_count": trace.dummy_count,
        "final": {
            "n": g.n,
            "n_real": trace.original.n,
            "arcs": sorted([i, j] for (i, j) in g.arcs),
            "edges": sorted([i, j] for (i, j) in g.edges),
            "dummies": list(bits(trace.dummies)),
        },
    }


def _code_to_dict(c: code.LinearIndexCode) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "num_messages": c.num_messages,
        "rows": [{"sender": row.sender,
                  "coeffs": row.coeff_list(c.num_messages),
                  "kind": row.kind}
                 for row in c.rows],
    }


_DIGITS = bytes.maketrans(b"\0\1", b"01")  # coefficient bytes to binary digits


def _code_from_dict(doc: dict, path: str) -> code.LinearIndexCode:
    for key in ("num_messages", "rows"):
        if key not in doc:
            raise InstanceError(f"{path}:{key}", "missing required field")
    check_schema(doc, f"{path}:schema")
    m = doc["num_messages"]
    if not _is_int(m) or m < 1:
        raise InstanceError(f"{path}:num_messages", "expected a positive integer")
    rows = []
    if not isinstance(doc["rows"], list):
        raise InstanceError(f"{path}:rows", "expected a list")
    for k, raw in enumerate(doc["rows"]):
        where = f"{path}:rows[{k}]"
        if not isinstance(raw, dict):
            raise InstanceError(where, "expected an object")
        sender = raw.get("sender")
        coeffs = raw.get("coeffs")
        if not _is_int(sender) or sender < 1:
            raise InstanceError(where, "sender must be a positive integer")
        # plain 0/1 ints pass in two whole-list tests; the element loop
        # judges any other list
        if (not isinstance(coeffs, list) or len(coeffs) != m
                or not (set(map(type, coeffs)) <= {int} and set(coeffs) <= {0, 1}
                        or all(_is_int(c) and c in (0, 1) for c in coeffs))):
            raise InstanceError(where, f"coeffs must be a 0/1 list of length {m}")
        mask = int(bytes(reversed(coeffs)).translate(_DIGITS), 2)
        kind = raw.get("kind")
        if kind is not None and not isinstance(kind, str):
            raise InstanceError(where, "kind must be a string if present")
        rows.append(code.CodeRow(sender, mask, kind))
    return code.LinearIndexCode(m, tuple(rows))


def _certificate_to_dict(result) -> dict:
    if isinstance(result, verify.DecodeFailure):
        return {"schema": SCHEMA_VERSION, "ok": False,
                "failure": {"receiver": result.receiver,
                            "wanted": result.wanted}}
    return {"schema": SCHEMA_VERSION, "ok": True,
            "entries": [{"receiver": e.receiver, "wanted": e.wanted,
                         "rows": list(e.row_indices),
                         "uses_prior": e.uses_prior}
                        for e in result.entries]}


def _scc_table(g: GraphPair) -> list[dict]:
    report = graphs.classify_all(g)
    table = []
    for k, scc in enumerate(report.sccs):
        entry = {"vertices": list(bits(scc)), "leaf": k in report.leaf_sccs,
                 "class": None}
        if k in report.leaf_sccs:
            entry["class"] = report.classes[k].value
            witness = report.witnesses.get(k)
            if witness is not None:
                entry["witness"] = {"part": list(bits(witness.part)),
                                    "cover": list(bits(witness.cover)),
                                    "vacuous": witness.vacuous}
        table.append(entry)
    return table


def cmd_validate(args) -> int:
    inst = parse_instance(_load_json(args.instance))
    out = {"schema": SCHEMA_VERSION, "ok": True,
           "num_messages": inst.num_messages,
           "num_senders": inst.num_senders}
    if args.json:
        _dump(out)
    else:
        print(f"ok: {inst.num_messages} messages, {inst.num_senders} senders")
    return 0


def cmd_simplified(args) -> int:
    a = _analyze(args.instance)
    _dump({"schema": SCHEMA_VERSION, "instance": a.simple.to_document(),
           "removed": sorted(a.removed)})
    return 0


def cmd_classify(args) -> int:
    table = _scc_table(_analyze(args.instance).graphs)
    if args.json:
        _dump({"schema": SCHEMA_VERSION, "sccs": table})
        return 0
    for entry in table:
        label = entry["class"] if entry["leaf"] else "not a leaf SCC"
        print(f"{{{','.join(map(str, entry['vertices']))}}}: {label}")
    return 0


def cmd_bound(args) -> int:
    a = _analyze(args.instance, args.exhaustive)
    trace, lb = a.trace, a.lower_bound
    out = {"schema": SCHEMA_VERSION, "mode": trace.mode,
           "v_out": graphs.num_out_vertices(a.graphs),
           "n_connected": trace.n_connected,
           "n_remaining": trace.n_remaining,
           "n_iv": trace.n_iv, "dummy_count": trace.dummy_count,
           "lower_bound": lb}
    if args.trace:
        out["trace"] = _trace_to_dict(trace)
    if args.json or args.trace:
        _dump(out)
    else:
        print(f"V_out: {out['v_out']}")
        print(f"n_connected: {trace.n_connected}")
        print(f"n_remaining: {trace.n_remaining}")
        print(f"n_iv: {trace.n_iv}")
        print(f"lower_bound: {lb}")
    return 0


def cmd_code(args) -> int:
    _dump(_code_to_dict(_analyze(args.instance).planned))
    return 0


def cmd_verify(args) -> int:
    simple = _analyze(args.instance).simple
    c = _code_from_dict(_load_json(args.code), args.code)
    if c.num_messages != simple.num_messages:
        raise InstanceError(f"{args.code}:num_messages",
                            f"code is for {c.num_messages} messages, "
                            f"instance has {simple.num_messages}")
    try:
        result = verify.rank_decodable(c, simple)
    except InstanceError as exc:
        raise InstanceError(f"{args.code}:{exc.path}", exc.message) from exc
    _dump(_certificate_to_dict(result))
    return 0


def cmd_oracle(args) -> int:
    a = _analyze(args.instance)
    length, best = a.oracle
    if args.max_len is not None and length > args.max_len:
        out = {"schema": SCHEMA_VERSION, "exhausted": True,
               "max_len": args.max_len}
        if args.json:
            _dump(out)
        else:
            print(f"exhausted: no linear code of length <= {args.max_len}")
        return 0
    lb = a.lower_bound
    out = {"schema": SCHEMA_VERSION, "linear_optimal_length": length,
           "lower_bound": lb, "certified": length == lb,
           "code": _code_to_dict(best)}
    if args.json:
        _dump(out)
    else:
        print(f"linear-optimal length: {length}")
        print(f"lower_bound: {lb}")
        print(f"certified: {'true' if out['certified'] else 'false'}")
    return 0


def cmd_report(args) -> int:
    a = _analyze(args.instance, args.exhaustive)
    trace, lb, ub, inst = a.trace, a.lower_bound, a.upper_bound, a.instance
    report = {
        "schema": SCHEMA_VERSION,
        "instance": {"num_messages": inst.num_messages,
                     "num_senders": inst.num_senders,
                     "removed": sorted(a.removed)},
        "v_out": graphs.num_out_vertices(a.graphs),
        "sccs": _scc_table(a.graphs),
        "n_connected": trace.n_connected,
        "n_remaining": trace.n_remaining,
        "n_iv": trace.n_iv,
        "lower_bound": lb,
        "n_tree": len(a.trees),
        "upper_bound": ub,
        "certified": lb == ub,
    }
    if args.oracle:
        report["oracle"] = a.oracle[0]
        report["certified"] = report["certified"] or a.oracle[0] == lb
    if args.trace:
        report["trace"] = _trace_to_dict(trace)
    if args.json or args.trace:
        _dump(report)
        return 0

    print(f"instance: {inst.num_messages} messages, {inst.num_senders} senders")
    print(f"V_out: {report['v_out']}")
    leaves = [entry for entry in report["sccs"] if entry["leaf"]]
    print("leaf SCCs:")
    for entry in leaves:
        print(f"  {{{','.join(map(str, entry['vertices']))}}}: {entry['class']}")
    if not leaves:
        print("  (none)")
    print(f"n_connected: {trace.n_connected}")
    print(f"n_remaining: {trace.n_remaining}")
    print(f"n_iv: {trace.n_iv}")
    print(f"lower_bound: {lb}")
    print(f"N_tree: {report['n_tree']}")
    print(f"upper_bound: {ub}")
    if "oracle" in report:
        print(f"oracle: {report['oracle']}")
    print(f"certified: {'true' if report['certified'] else 'false'}")
    return 0


def _final_state(doc: dict, at: str) -> tuple[GraphPair, int]:
    """The final graphs and dummy mask of a trace document, whose fields are
    named ``at`` + field in errors.  Every field is checked here, so no
    vertex index reaches the graph kernel unchecked."""
    check_schema(doc, f"{at}schema")
    where = f"{at}final"
    final = doc.get("final")
    if not isinstance(final, dict):
        raise InstanceError(where, "missing final state")
    for key in ("n", "arcs", "edges", "dummies"):
        if key not in final:
            raise InstanceError(f"{where}.{key}", "missing required field")
    n = final["n"]
    if not _is_int(n) or n < 1:
        raise InstanceError(f"{where}.n", "expected a positive integer")

    def vertices(raw, at: str, pair: bool = False) -> tuple[int, ...]:
        if (not isinstance(raw, list) or (pair and len(raw) != 2)
                or not all(_is_int(v) and 1 <= v <= n for v in raw)):
            what = "a pair" if pair else "a list"
            raise InstanceError(at, f"expected {what} of vertices in 1..{n}")
        return tuple(raw)

    def pairs(key: str, ordered: bool) -> frozenset[tuple[int, int]]:
        if not isinstance(final[key], list):
            raise InstanceError(f"{where}.{key}", "expected a list")
        out = set()
        for k, raw in enumerate(final[key]):
            at = f"{where}.{key}[{k}]"
            i, j = vertices(raw, at, pair=True)
            if i == j or (not ordered and i > j):
                raise InstanceError(at, "expected two distinct vertices"
                                    + ("" if ordered else " in increasing order"))
            out.add((i, j))
        return frozenset(out)

    arcs, edges = pairs("arcs", True), pairs("edges", False)
    try:
        g = GraphPair(n=n, arcs=arcs, edges=edges)
    except (MemoryError, OverflowError) as exc:
        raise verify.GuardError(f"{where}.n: {n} vertices do not fit in memory") from exc
    return g, mask_of(vertices(final["dummies"], f"{where}.dummies"))


def cmd_dot(args) -> int:
    doc = _load_json(args.instance)
    at = f"{args.instance}:"
    if "steps" not in doc and "trace" in doc:
        # the whole document that `bound --trace` or `report --trace` prints
        doc, at = doc["trace"], f"{at}trace."
        if not isinstance(doc, dict):
            raise InstanceError(f"{args.instance}:trace",
                                "expected a JSON object")
    if "steps" in doc:
        g, dummies = _final_state(doc, at)
        print(graphs.to_dot(g, dummies=dummies), end="")
        return 0
    print(graphs.to_dot(analyze(parse_instance(doc)).graphs), end="")
    return 0


def _int_at_least(low: int):
    """An argparse type for integers of at least ``low``."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    parse.__name__ = "int"  # argparse's message for a non-integer names the type
    return parse


_JSON = {"--json": "machine-readable output"}
_TRACE = {"--trace": "include the full step log (implies --json)"}
_POSITIONAL_HELP = {"instance": "instance JSON file", "code": "code JSON file"}

# each command's handler, help, positionals, and options with their help;
# every option is a flag except --max-len, which takes an integer
_COMMANDS = {
    "validate": (cmd_validate, "parse and validate an instance", ("instance",), _JSON),
    "simplify": (cmd_simplified, "drop messages nobody wants", ("instance",), _JSON),
    "classify": (cmd_classify, "SCC decomposition and leaf-SCC classes", ("instance",),
                 _JSON),
    "bound": (cmd_bound, "lower bound by breaking all leaf SCCs", ("instance",),
              {**_JSON, "--exhaustive": "search all arbitrary choices for the best bound",
               **_TRACE}),
    "code": (cmd_code, "construct the tree-based XOR code", ("instance",), _JSON),
    "verify": (cmd_verify, "check a code decodes for every receiver",
               ("instance", "code"), _JSON),
    "oracle": (cmd_oracle, "brute-force minimum linear codelength", ("instance",),
               {**_JSON, "--max-len": "stop after this codelength"}),
    "report": (cmd_report, "full pipeline report", ("instance",),
               {**_JSON, "--oracle": "include the brute-force linear optimum",
                "--exhaustive": "use the exhaustive bound search", **_TRACE}),
    "dot": (cmd_dot, "DOT rendering of an instance or a trace file", ("instance",), _JSON),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


@functools.cache
def _parsers() -> tuple[_Parser, dict[str, _Parser]]:
    """The parser and its subparser per command, built from ``_COMMANDS``
    on first use and reused: parsing keeps no state in them."""
    parser = _Parser(prog="msindex",
                     description="bounds and codes for multi-sender index coding")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (run, help_text, positionals, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for positional in positionals:
            p.add_argument(positional, help=_POSITIONAL_HELP[positional])
        for option, option_help in options.items():
            if option == "--max-len":
                p.add_argument(option, type=_int_at_least(0), help=option_help)
            else:
                p.add_argument(option, action="store_true", help=option_help)
        p.set_defaults(func=run)
    return parser, sub.choices


def _spelled_out(argv: list[str]) -> argparse.Namespace | None:
    """The namespace argparse gives a command line made of a command name,
    its positionals (tokens not starting with "-") and its options spelled
    in full, ``--max-len`` followed by its value; None for any other command
    line.  A ``--max-len`` value that does not convert raises argparse's
    usage error."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    run, _, positionals, options = _COMMANDS[argv[0]]
    values = {option[2:].replace("-", "_"): None if option == "--max-len" else False
              for option in options}
    given, max_lens = [], []
    tokens = iter(argv[1:])
    for token in tokens:
        if token[:1] != "-":
            given.append(token)
        elif token not in options:
            return None
        elif token != "--max-len":
            values[token[2:]] = True
        else:
            # argparse takes a negative number as the value, not an option
            value = next(tokens, None)
            if value is None or value[:1] == "-" and not (
                    value[1:].isdecimal() and value.isascii()):
                return None
            max_lens.append(value)
    if len(given) != len(positionals):
        return None
    # argparse reads every token before a value converts, so a value fails
    # only on a command line that is spelled out throughout
    for value in max_lens:
        try:
            values["max_len"] = _int_at_least(0)(value)
        except argparse.ArgumentTypeError as exc:
            raise _UsageError(f"argument --max-len: {exc}") from exc
        except ValueError as exc:
            raise _UsageError(f"argument --max-len: invalid int value: {value!r}") from exc
    return argparse.Namespace(func=run, **dict(zip(positionals, given)), **values)


def _argparsed(argv: list[str]) -> argparse.Namespace:
    """The namespace argparse gives ``argv``, or ``_UsageError`` with its
    message.  The arguments after a command name go to that command's
    parser, as the top-level parser would hand them on."""
    parser, commands = _parsers()
    if argv and argv[0] in commands:
        parser, argv = commands[argv[0]], argv[1:]
    args = parser.parse_args(argv)
    # argparse stores [] for a value that is a literal "--"
    for dest, value in vars(args).items():
        if value == []:
            if dest == "max_len":
                raise _UsageError("argument --max-len: invalid int value: '--'")
            setattr(args, dest, "--")
    return args


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _spelled_out(argv) or _argparsed(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except verify.GuardError as exc:
        print(f"guard: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except (InstanceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
