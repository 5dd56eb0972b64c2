"""Acceptance suite: one test per criterion, exact tolerances, timed."""

import random
import time

import pytest

from msindex.bound import lower_bound, run_grounding
from msindex.code import (CodeRow, LinearIndexCode, find_connecting_trees,
                          upper_bound)
from msindex.generate import (random_cycle_instance, random_instance,
                              random_partitioned_instance)
from msindex.graphs import (LeafClass, classify_all, grounded_set,
                            is_grounded_digraph, num_out_vertices,
                            scc_decompose)
from msindex.model import build_graphs, mask_of, parse_instance, simplify
from msindex.verify import DecodeCertificate, oracle_min_linear, rank_decodable

from decode_closure import check_decode_closure, verify_exhaustive

THREE_PAIRS = "instances/three_pairs_overlapping_senders.json"


def _prepare(inst):
    simple, _ = simplify(inst)
    return simple, build_graphs(simple)


def _draw_instance(rng, max_m):
    m = rng.randint(1, max_m)
    if rng.random() < 0.5:
        return random_instance(rng, m)
    return random_cycle_instance(rng, m, sender_size=rng.randint(2, 3))


@pytest.fixture(scope="module")
def suite_m7():
    """200 random instances with m <= 7 plus their deterministic runs."""
    start = time.perf_counter()
    rng = random.Random(231)
    rows = []
    for _ in range(200):
        inst = _draw_instance(rng, 7)
        simple, g = _prepare(inst)
        rows.append((simple, g, run_grounding(g)))
    return rows, time.perf_counter() - start


@pytest.fixture(scope="module")
def suite_m5():
    """100 random instances with m <= 5: exhaustive runs, exact trees,
    and the oracle."""
    start = time.perf_counter()
    rng = random.Random(757)
    rows = []
    for _ in range(100):
        inst = _draw_instance(rng, 5)
        simple, g = _prepare(inst)
        trace = run_grounding(g, "exhaustive")
        trees = find_connecting_trees(g)
        length, oracle_code = oracle_min_linear(simple)
        rows.append((simple, g, trace, trees, length, oracle_code))
    return rows, time.perf_counter() - start


def test_criterion_1_worked_example():
    start = time.perf_counter()
    inst = parse_instance(open(THREE_PAIRS).read())
    simple, g = _prepare(inst)

    trace = run_grounding(g, "deterministic")
    assert lower_bound(trace) == 4

    trees = find_connecting_trees(g)
    assert len(trees) == 1
    assert upper_bound(g, trees) == 5

    length, _ = oracle_min_linear(simple)
    assert length == 4

    sender_xors = LinearIndexCode(6, tuple(
        CodeRow(s, mask_of(ms)) for s, ms in enumerate(simple.senders, 1)))
    assert sender_xors.length == 4
    assert isinstance(rank_decodable(sender_xors, simple), DecodeCertificate)
    assert verify_exhaustive(sender_xors, simple)

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    print(f"\nACCEPTANCE 1 (worked example end-to-end, {elapsed:.2f}s): PASS")


def test_criterion_2_counting_identity(suite_m7):
    rows, build_time = suite_m7
    for simple, g, trace in rows:
        final_v_out = num_out_vertices(trace.graphs, exclude=trace.dummies)
        assert final_v_out == (num_out_vertices(g)
                               - trace.n_connected - trace.n_iv)
    assert build_time < 10.0, f"took {build_time:.2f}s"
    print(f"\nACCEPTANCE 2 (counting identity on 200 runs, "
          f"{build_time:.2f}s): PASS")


def test_criterion_3_sandwich(suite_m5):
    rows, build_time = suite_m5
    for simple, g, trace, trees, oracle_len, _ in rows:
        lb = lower_bound(trace)
        ub = upper_bound(g, trees)
        assert lb <= oracle_len <= ub
        assert trace.n_iv >= len(trees)
    assert build_time < 60.0, f"took {build_time:.2f}s"
    print(f"\nACCEPTANCE 3 (sandwich on 100 instances, "
          f"{build_time:.2f}s): PASS")


def test_criterion_4_partitioned_senders():
    rng = random.Random(424)
    for _ in range(100):
        inst = random_partitioned_instance(rng, rng.randint(1, 5))
        simple, g = _prepare(inst)
        report = classify_all(g)
        for k in report.leaf_sccs:
            assert report.classes[k] in (LeafClass.MESSAGE_CONNECTED,
                                         LeafClass.MESSAGE_DISCONNECTED)
        trace = run_grounding(g, "exhaustive")
        assert trace.n_remaining == 0
        assert all(step["step"] in ("i", "ii") for step in trace.log)
        trees = find_connecting_trees(g)
        target = num_out_vertices(g) - trace.n_connected
        assert lower_bound(trace) == target
        assert upper_bound(g, trees) == target
        assert oracle_min_linear(simple)[0] == target
    print("\nACCEPTANCE 4 (partitioned senders meet at "
          "V_out - N_connected): PASS")


def test_criterion_5_no_remaining_means_tight(suite_m7, suite_m5):
    hits = 0
    for simple, g, trace in suite_m7[0]:
        if trace.n_remaining != 0:
            continue
        hits += 1
        target = num_out_vertices(g) - trace.n_connected
        assert lower_bound(trace) == target
        assert upper_bound(g, find_connecting_trees(g)) == target
    for simple, g, trace, trees, _, _ in suite_m5[0]:
        if trace.n_remaining != 0:
            continue
        hits += 1
        target = num_out_vertices(g) - trace.n_connected
        assert lower_bound(trace) == target
        assert upper_bound(g, trees) == target
    assert hits > 0
    print(f"\nACCEPTANCE 5 (bounds meet when nothing remains, "
          f"{hits} cases): PASS")


def test_criterion_6_closure_on_oracle_codes(suite_m5):
    for simple, _, _, _, _, oracle_code in suite_m5[0]:
        report = check_decode_closure(oracle_code, simple)
        assert report.ok, report.violations
    print("\nACCEPTANCE 6 (decode-closure facts on oracle codes): PASS")


def test_criterion_7_rank_vs_exhaustive():
    rng = random.Random(777)
    for _ in range(500):
        inst = random_instance(rng, rng.randint(1, 5))
        rows = []
        for _ in range(rng.randint(0, 6)):
            s = rng.randint(1, inst.num_senders)
            owned = sorted(inst.senders[s - 1])
            if not owned:
                continue
            support = rng.sample(owned, rng.randint(1, len(owned)))
            rows.append(CodeRow(s, mask_of(support)))
        code = LinearIndexCode(inst.num_messages, tuple(rows))
        linear_ok = isinstance(rank_decodable(code, inst), DecodeCertificate)
        assert linear_ok == verify_exhaustive(code, inst)
    print("\nACCEPTANCE 7 (rank vs exhaustive on 500 pairs): PASS")


def test_criterion_8_termination_and_groundedness(suite_m7):
    for simple, g, trace in suite_m7[0]:
        assert trace.complete
        final = trace.graphs
        assert not scc_decompose(final).leaf_sccs
        direct = grounded_set(final) == mask_of(final.vertices())
        via_condensation = not scc_decompose(final).leaf_sccs
        assert direct and via_condensation
        assert is_grounded_digraph(final)
    print("\nACCEPTANCE 8 (termination and groundedness on 200 runs): PASS")
