"""Golden oracle outputs: ``msindex oracle --json`` (the witness code) and
``msindex report --json --oracle`` must not change a byte.

``oracle_golden.json`` holds a fixed corpus of instances and the sha256 of
both outputs as produced by the frozenset-span oracle search that the
echelon-basis search replaced; that implementation is the reference.  The
corpus is the bundled ``instances/*.json`` plus seeded draws from the four
generator families (``msindex.generate`` and the pairing generator of
``scripts/find_gaps.py``): five per family at each m in 4..6, and five
pairing draws at m = 8.

Regenerate the file (only for a change that declares new output) from the
repository root with ``PYTHONPATH=src:scripts python tests/test_oracle_golden.py``.
"""

import contextlib
import hashlib
import io
import json
import random
from pathlib import Path

from msindex.cli import main

GOLDEN = Path(__file__).with_name("oracle_golden.json")
COMMANDS = {"oracle": ("oracle", "--json"), "report": ("report", "--json", "--oracle")}
FAMILIES = ("plain", "cycle", "partitioned", "pairing")
SMALL_M = (4, 5, 6)


def _run(path, command) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main([command[0], str(path), *command[1:]])
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
    cases = [{"id": path.stem,
              "instance": json.loads(path.read_text(encoding="utf-8"))}
             for path in sorted((root / "instances").glob("*.json"))]
    cells = [(family, m) for family in FAMILIES for m in SMALL_M] + [("pairing", 8)]
    for family, m in cells:
        rng = random.Random(f"oracle-golden/{family}/{m}")
        cases.extend({"id": f"{family}-m{m}-{k}",
                      "instance": _draw(family, rng, m).to_document()}
                     for k in range(5))
    return cases


def pytest_generate_tests(metafunc):
    if "case" in metafunc.fixturenames:
        cases = json.loads(GOLDEN.read_text(encoding="utf-8"))["cases"]
        metafunc.parametrize("case", cases, ids=[case["id"] for case in cases])


def test_oracle_outputs_match_golden(case, tmp_path):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(case["instance"]), encoding="utf-8")
    for name, command in COMMANDS.items():
        rc, out = _run(path, command)
        assert rc == 0, name
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == case[name], name
    assert json.loads(out)["oracle"] == case["length"]


if __name__ == "__main__":
    import tempfile

    cases = build_cases()
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "instance.json"
        for case in cases:
            path.write_text(json.dumps(case["instance"]), encoding="utf-8")
            for name, command in COMMANDS.items():
                rc, out = _run(path, command)
                if rc != 0:
                    raise SystemExit(f"{case['id']} {name}: exit code {rc}")
                case[name] = hashlib.sha256(out.encode("utf-8")).hexdigest()
            case["length"] = json.loads(out)["oracle"]
    GOLDEN.write_text(json.dumps({"cases": cases}, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
    print(f"wrote {len(cases)} cases to {GOLDEN}")
