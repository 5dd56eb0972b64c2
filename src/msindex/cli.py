"""Command-line front end: it reads the files, writes the documents that
their types build, and parses the command line.

Exit codes: 0 success, 1 usage error, 2 unreadable or malformed input,
3 size-guard violation; a reader that closes the output early, as
``head`` does, ends the command quietly with 0.  All outputs are
deterministic for fixed inputs and flags.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import warnings
from types import SimpleNamespace
from json.encoder import encode_basestring_ascii as _escape

from . import bound, graphs, verify
from .analysis import Analysis, analyze
from .code import LinearIndexCode
from .model import GuardError, InstanceError, SCHEMA_VERSION, parse_instance

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


def cmd_validate(args) -> int:
    inst = parse_instance(_load_json(args.instance))
    out = {"schema": SCHEMA_VERSION, "ok": True,
           "num_messages": inst.num_messages, "num_senders": inst.num_senders}
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
    table = graphs.scc_table(_analyze(args.instance).graphs)
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
        out["trace"] = trace.to_document()
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
    _dump(_analyze(args.instance).planned.to_document())
    return 0


def cmd_verify(args) -> int:
    simple = _analyze(args.instance).simple
    c = LinearIndexCode.from_document(_load_json(args.code), args.code)
    if c.num_messages != simple.num_messages:
        raise InstanceError(f"{args.code}:num_messages",
                            f"code is for {c.num_messages} messages, "
                            f"instance has {simple.num_messages}")
    try:
        result = verify.rank_decodable(c, simple)
    except InstanceError as exc:
        raise InstanceError(f"{args.code}:{exc.path}", exc.message) from exc
    _dump(result.to_document())
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
           "code": best.to_document()}
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
    report = {"schema": SCHEMA_VERSION,
              "instance": {"num_messages": inst.num_messages,
                           "num_senders": inst.num_senders, "removed": sorted(a.removed)},
              "v_out": graphs.num_out_vertices(a.graphs),
              "sccs": graphs.scc_table(a.graphs), "n_connected": trace.n_connected,
              "n_remaining": trace.n_remaining, "n_iv": trace.n_iv, "lower_bound": lb,
              "n_tree": len(a.trees), "upper_bound": ub, "certified": lb == ub}
    if args.oracle:
        report["oracle"] = a.oracle[0]
        report["certified"] = report["certified"] or a.oracle[0] == lb
    if args.trace:
        report["trace"] = trace.to_document()
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


def cmd_dot(args) -> int:
    doc = _load_json(args.instance)
    at = f"{args.instance}:"
    if "steps" not in doc and "trace" in doc:
        # the whole document that `bound --trace` or `report --trace` prints
        doc, at = doc["trace"], f"{at}trace."
        if not isinstance(doc, dict):
            raise InstanceError(f"{args.instance}:trace",
                                "expected a JSON object")
    elif "steps" not in doc:
        print(graphs.to_dot(analyze(parse_instance(doc)).graphs), end="")
        return 0
    g, dummies = bound.final_state(doc, at)
    print(graphs.to_dot(g, dummies=dummies), end="")
    return 0


def _int_at_least(low: int):
    """An argparse type for integers of at least ``low``."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            from argparse import ArgumentTypeError
            raise ArgumentTypeError(f"must be at least {low}, got {value}")
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


@functools.cache
def _parsers():
    """The parser and its subparser per command, built from ``_COMMANDS``
    on first use and reused: parsing keeps no state in them.  Only a
    command line off the fast path imports argparse."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        def error(self, message):
            raise _UsageError(message)

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


def _spelled_out(argv: list[str]) -> SimpleNamespace | None:
    """The attributes argparse gives a command line made of a command name,
    its positionals (tokens not starting with "-") and its flags spelled
    in full; None for any other command line, and for any that holds
    ``--max-len``, whose value argparse converts."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    run, _, positionals, options = _COMMANDS[argv[0]]
    values = {option[2:].replace("-", "_"): None if option == "--max-len" else False
              for option in options}
    given = []
    for token in argv[1:]:
        if token[:1] != "-":
            given.append(token)
        elif token not in options or token == "--max-len":
            return None
        else:
            values[token[2:]] = True
    if len(given) != len(positionals):
        return None
    return SimpleNamespace(func=run, **dict(zip(positionals, given)), **values)


def _argparsed(argv: list[str]):
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
    except GuardError as exc:
        print(f"guard: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except BrokenPipeError:
        return 0  # the reader stopped early, as `head` does
    except (InstanceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


def entry() -> None:
    """``main`` as a command: a warning shows as one line, ``warning: <message>``."""
    warnings.formatwarning = lambda message, *_: f"warning: {message}\n"
    status = main()
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        # the rest goes nowhere, so the flush at exit raises no second error
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(status)


if __name__ == "__main__":
    entry()
