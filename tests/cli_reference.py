"""The argparse front end that ``msindex.cli`` had before its command table,
kept frozen as the judge of the one that replaced it.

``_build_parser`` and ``main`` are kept as they were, over the same command
handlers.  A differential test holds ``msindex.cli.main`` to the same exit
code, output and messages on any argv, help text included: that judges both
the fast path for spelled-out command lines and the parser that
``msindex.cli`` builds from its command table.
"""

from __future__ import annotations

import argparse
import functools
import sys

from msindex import verify
from msindex.cli import (EXIT_GUARD, EXIT_PARSE, EXIT_USAGE, _int_at_least,
                         cmd_bound, cmd_classify, cmd_code, cmd_dot, cmd_oracle,
                         cmd_report, cmd_simplified, cmd_validate, cmd_verify)
from msindex.model import InstanceError


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


@functools.cache
def _build_parser() -> tuple[_Parser, dict[str, _Parser]]:
    """The parser and its subparser per command, built on the first
    ``main`` call and reused: parsing keeps no state in them."""
    parser = _Parser(prog="msindex",
                     description="bounds and codes for multi-sender index coding")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, *, code_arg=False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("instance", help="instance JSON file")
        if code_arg:
            p.add_argument("code", help="code JSON file")
        p.add_argument("--json", action="store_true",
                       help="machine-readable output")
        p.set_defaults(func=func)
        return p

    add("validate", cmd_validate, "parse and validate an instance")
    add("simplify", cmd_simplified, "drop messages nobody wants")
    add("classify", cmd_classify, "SCC decomposition and leaf-SCC classes")

    p = add("bound", cmd_bound, "lower bound by breaking all leaf SCCs")
    p.add_argument("--exhaustive", action="store_true",
                   help="search all arbitrary choices for the best bound")
    p.add_argument("--trace", action="store_true",
                   help="include the full step log (implies --json)")

    add("code", cmd_code, "construct the tree-based XOR code")
    add("verify", cmd_verify, "check a code decodes for every receiver",
        code_arg=True)

    p = add("oracle", cmd_oracle, "brute-force minimum linear codelength")
    p.add_argument("--max-len", type=_int_at_least(0), default=None,
                   help="stop after this codelength")

    p = add("report", cmd_report, "full pipeline report")
    p.add_argument("--oracle", action="store_true",
                   help="include the brute-force linear optimum")
    p.add_argument("--exhaustive", action="store_true",
                   help="use the exhaustive bound search")
    p.add_argument("--trace", action="store_true",
                   help="include the full step log (implies --json)")

    add("dot", cmd_dot, "DOT rendering of an instance or a trace file")
    return parser, sub.choices


def main(argv=None) -> int:
    parser, commands = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    # a command's own parser reads its arguments as the top-level parser
    # would hand them on; help, no command or an unknown one go to the top
    if argv and argv[0] in commands:
        parser, argv = commands[argv[0]], argv[1:]
    try:
        args = parser.parse_args(argv)
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
