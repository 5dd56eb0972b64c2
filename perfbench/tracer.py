"""Per-layer tracing of msindex from outside the program.

The tracer replaces each listed public function with a wrapper, under every
name an ``msindex`` module (or ``find_gaps``) binds it to, and puts the
originals back on ``uninstall``.  A wrapper counts calls and self time: its
duration minus the time its traced callees ran.  Spans (name, start, end,
parent span, instance id) are kept in memory for every function outside
``COUNT_ONLY``; those are called up to hundreds of thousands of times per
instance, so they get calls and self time but no stored span.  A function
missing from its module raises ``AttributeError`` on install, so a rename
fails loudly instead of reading zero.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

TRACED = {
    "model": ("parse_instance", "simplify", "build_graphs"),
    "graphs": ("scc_decompose", "classify_all", "classify_leaf_scc",
               "iter_degeneracy_witnesses", "check_degeneracy_witness",
               "u_components", "leaf_vertices", "is_leaf_scc"),
    "bound": ("run_grounding", "lower_bound"),
    "code": ("find_connecting_trees", "plan_code", "assign_senders",
             "upper_bound"),
    "verify": ("rank_decodable", "oracle_min_linear"),
    "cli": ("main",),
}

COUNT_ONLY = frozenset({
    "graphs.scc_decompose", "graphs.iter_degeneracy_witnesses",
    "graphs.check_degeneracy_witness", "graphs.u_components",
    "graphs.leaf_vertices", "graphs.is_leaf_scc",
})

TRACED_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)


def _bound_stats(counters: Counter, trace) -> None:
    counters["bound.log_steps"] += len(trace.log)
    counters["bound.n_iv"] += trace.n_iv
    counters["bound.fallbacks"] += bool(trace.fell_back)


def _tree_stats(counters: Counter, trees) -> None:
    counters["code.trees"] += len(trees)


def _oracle_stats(counters: Counter, result) -> None:
    if result is not None:
        counters["verify.oracle.lengths_scanned"] += result[0] + 1


ON_RETURN = {
    "bound.run_grounding": _bound_stats,
    "code.find_connecting_trees": _tree_stats,
    "verify.oracle_min_linear": _oracle_stats,
}


class Tracer:
    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counters: Counter = Counter()
        self.spans: list[list] = []   # [name, start, end, parent, instance]
        self.instance = None
        self._stack: list[list] = []  # [child seconds, span index or None]
        self._patched: list[tuple] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = [mod for name, mod in list(sys.modules.items())
                   if name == "msindex" or name.startswith("msindex.")
                   or name == "find_gaps"]
        try:
            for name in TRACED_NAMES:
                mod_name, fn_name = name.split(".")
                original = getattr(sys.modules[f"msindex.{mod_name}"], fn_name)
                wrapper = self._wrap(name, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, attr, wrapper)
            graph_pair = sys.modules["msindex.model"].GraphPair
            self._patch(graph_pair, "__post_init__",
                        self._count(graph_pair.__post_init__,
                                    "model.GraphPair.constructions"))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    # -- wrappers -----------------------------------------------------------

    def _count(self, fn, counter: str):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[counter] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _enter(self, name: str) -> list:
        frame = [0.0, None]
        if name not in COUNT_ONLY:
            frame[1] = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self._open_span(),
                               self.instance])
        self._stack.append(frame)
        return frame

    def _leave(self, name: str, frame: list, start: float, end: float) -> None:
        self._stack.pop()
        duration = end - start
        self.self_s[name] += duration - frame[0]
        if self._stack:
            self._stack[-1][0] += duration
        if frame[1] is not None:
            self.spans[frame[1]][1:3] = (start, end)

    def _open_span(self):
        for frame in reversed(self._stack):
            if frame[1] is not None:
                return frame[1]
        return None

    def _wrap(self, name: str, fn):
        clock = time.perf_counter
        on_return = ON_RETURN.get(name)

        if inspect.isgeneratorfunction(fn):
            # Self time of a generator is the time spent inside its resumes.
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                self.calls[name] += 1
                gen = fn(*args, **kwargs)
                try:
                    while True:
                        frame = self._enter(name)
                        start = clock()
                        try:
                            item = next(gen)
                        except StopIteration:
                            return
                        finally:
                            self._leave(name, frame, start, clock())
                        self.counters[f"{name}.yields"] += 1
                        yield item
                finally:
                    gen.close()
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            frame = self._enter(name)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._leave(name, frame, start, clock())
            if on_return is not None:
                on_return(self.counters, result)
            return result
        return wrapper

    # -- output -------------------------------------------------------------

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, (name, start, end, parent, instance) in enumerate(self.spans):
                fh.write(json.dumps({"id": span_id, "name": name,
                                     "start": start, "end": end,
                                     "parent": parent,
                                     "instance": instance}) + "\n")
