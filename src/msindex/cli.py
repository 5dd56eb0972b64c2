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

from . import bound, code, graphs, verify
from .analysis import Analysis, analyze
from .model import (GraphPair, InstanceError, SCHEMA_VERSION, check_schema,
                    parse_instance)

EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_GUARD = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_json(path: str) -> dict:
    try:
        doc = json.loads(_read(path))
    except json.JSONDecodeError as exc:
        raise InstanceError(path, f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InstanceError(path, "expected a JSON object")
    return doc


def _analyze(path: str, exhaustive: bool = False) -> Analysis:
    return analyze(parse_instance(_load_json(path)), exhaustive)


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _dump(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


def _step_to_dict(step: tuple) -> dict:
    tag = step[0]
    if tag == "i":
        return {"step": tag, "scc": list(step[1]), "vertex": step[2],
                "removed_arcs": [list(a) for a in step[3]]}
    if tag == "ii":
        return {"step": tag, "scc": list(step[1]), "source": step[2],
                "dummy": step[3]}
    if tag in ("iii-a", "iii-b"):
        return {"step": tag, "scc": list(step[1]), "part": list(step[2]),
                "cover": list(step[3]), "source": step[4], "target": step[5]}
    if tag == "iv-a":
        return {"step": tag, "scc": list(step[1])}
    if tag == "iv-b":
        return {"step": tag, "scc": list(step[1]),
                "added_edges": [list(e) for e in step[2]]}
    return {"step": tag}


def _trace_to_dict(trace: bound.GroundingTrace) -> dict:
    g = trace.graphs
    return {
        "schema": SCHEMA_VERSION,
        "mode": trace.mode,
        "fell_back": trace.fell_back,
        "steps": [_step_to_dict(s) for s in trace.log],
        "n_connected": trace.n_connected,
        "n_remaining": trace.n_remaining,
        "n_iv": trace.n_iv,
        "dummy_count": trace.dummy_count,
        "final": {
            "n": g.n,
            "n_real": trace.n_real,
            "arcs": sorted([i, j] for (i, j) in g.arcs),
            "edges": sorted([i, j] for (i, j) in g.edges),
            "dummies": sorted(trace.dummies),
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
        if (not isinstance(coeffs, list) or len(coeffs) != m
                or any(not _is_int(c) or c not in (0, 1) for c in coeffs)):
            raise InstanceError(where, f"coeffs must be a 0/1 list of length {m}")
        mask = sum(bit << pos for pos, bit in enumerate(coeffs))
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
        entry = {"vertices": sorted(scc), "leaf": k in report.leaf_sccs,
                 "class": None}
        if k in report.leaf_sccs:
            entry["class"] = report.classes[k].value
            witness = report.witnesses.get(k)
            if witness is not None:
                entry["witness"] = {"part": sorted(witness.part),
                                    "cover": sorted(witness.cover),
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
    if args.max_len is None:
        result = a.oracle
    else:
        result = verify.oracle_min_linear(a.simple, max_len=args.max_len)
    if result is None:
        out = {"schema": SCHEMA_VERSION, "exhausted": True,
               "max_len": args.max_len}
        if args.json:
            _dump(out)
        else:
            print(f"exhausted: no linear code of length <= {args.max_len}")
        return 0
    length, best = result
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


def _final_state(doc: dict, at: str) -> tuple[GraphPair, frozenset[int]]:
    """The final graphs and dummies of a trace document, whose fields are
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

    g = GraphPair(n=n, arcs=pairs("arcs", True), edges=pairs("edges", False))
    return g, frozenset(vertices(final["dummies"], f"{where}.dummies"))


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


@functools.cache
def _build_parser() -> _Parser:
    """The parser, built on the first ``main`` call and reused: parsing
    keeps no state in it."""
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
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
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


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
