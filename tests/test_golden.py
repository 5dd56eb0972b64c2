"""Golden reports: ``msindex report --json --trace`` must not change a byte.

``golden_reports.json`` holds a fixed corpus of instances and the sha256
of every report they produced under the arc-scanning graph queries that
the bitmask graph kernel replaced; that implementation is the reference.
The corpus is the bundled ``instances/*.json`` plus seeded draws from the
four generator families (``msindex.generate`` and the pairing generator
of ``scripts/find_gaps.py``): m in 4..8 in deterministic and exhaustive
mode, and m in {16, 32} in deterministic mode only.

Regenerate the file (only for a change that declares new output) from the
repository root with ``PYTHONPATH=src:scripts python tests/test_golden.py``.
"""

import contextlib
import hashlib
import io
import json
import random
import sys
import warnings
from pathlib import Path

from msindex.cli import main

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))

GOLDEN = Path(__file__).with_name("golden_reports.json")
MODES = ((), ("--exhaustive",))
FAMILIES = ("plain", "cycle", "partitioned", "pairing")
SMALL_M, LARGE_M = (4, 5, 6, 7, 8), (16, 32)


def _report(path, flags) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rc = main(["report", str(path), "--json", "--trace", *flags])
    return rc, out.getvalue()


def _draw(family, rng, m):
    from msindex import generate
    from find_gaps import random_pairing_instance

    if family == "plain":
        return generate.random_instance(rng, m)
    if family == "cycle":
        return generate.random_cycle_instance(rng, m, sender_size=rng.randint(2, 3))
    if family == "partitioned":
        return generate.random_partitioned_instance(rng, m)
    return random_pairing_instance(rng, m)


def build_cases() -> list[dict]:
    root = Path(__file__).resolve().parent.parent
    cases = [{"id": f"{path.stem}{''.join(flags)}", "flags": list(flags),
              "instance": json.loads(path.read_text(encoding="utf-8"))}
             for path in sorted((root / "instances").glob("*.json"))
             for flags in MODES]
    for family in FAMILIES:
        for m, count, modes in ([(m, 5, MODES) for m in SMALL_M]
                                + [(m, 2, MODES[:1]) for m in LARGE_M]):
            rng = random.Random(f"golden/{family}/{m}")
            for k in range(count):
                doc = _draw(family, rng, m).to_document()
                cases.extend({"id": f"{family}-m{m}-{k}{''.join(flags)}",
                              "flags": list(flags), "instance": doc}
                             for flags in modes)
    return cases


def pytest_generate_tests(metafunc):
    if "case" in metafunc.fixturenames:
        cases = json.loads(GOLDEN.read_text(encoding="utf-8"))["cases"]
        metafunc.parametrize("case", cases, ids=[case["id"] for case in cases])


def test_report_matches_golden(case, tmp_path):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(case["instance"]), encoding="utf-8")
    rc, out = _report(path, case["flags"])
    assert rc == 0
    summary = json.loads(out)
    assert {key: summary[key] for key in case["summary"]} == case["summary"]
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == case["sha256"]



def test_generators_reproduce_the_stored_instances():
    """The stored corpus is what the generators draw today, so a change
    to a generator's draws fails here, not as a digest mismatch."""
    stored = json.loads(GOLDEN.read_text(encoding="utf-8"))["cases"]
    assert len(stored) == 222
    assert ([(case["id"], case["flags"], case["instance"]) for case in build_cases()]
            == [(case["id"], case["flags"], case["instance"]) for case in stored])

if __name__ == "__main__":
    import tempfile

    cases = build_cases()
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "instance.json"
        for case in cases:
            path.write_text(json.dumps(case["instance"]), encoding="utf-8")
            rc, out = _report(path, case["flags"])
            if rc != 0:
                raise SystemExit(f"{case['id']}: exit code {rc}")
            doc = json.loads(out)
            case["summary"] = {key: doc[key] for key in (
                "lower_bound", "upper_bound", "n_iv", "n_tree")}
            case["sha256"] = hashlib.sha256(out.encode("utf-8")).hexdigest()
    GOLDEN.write_text(json.dumps({"cases": cases}, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
    print(f"wrote {len(cases)} cases to {GOLDEN}")
