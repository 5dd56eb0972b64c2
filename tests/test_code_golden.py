"""Golden codes: ``msindex code`` must not change a byte.

The report goldens pin ``n_tree`` but not which connecting trees are
chosen; the printed code names every tree edge, so its digest pins the
tree family, the spanning trees and the sender assignment.
``golden_code.json`` holds the sha256 of ``msindex code`` stdout for every
instance of the report golden corpus (``golden_reports.json``; the code
does not depend on the grounding mode, so each instance appears once), as
produced by the subset-enumerating tree search that the condensation
search replaced; that implementation is the reference.

Regenerate the file (only for a change that declares new output) from the
repository root with ``PYTHONPATH=src python tests/test_code_golden.py``.
"""

import contextlib
import hashlib
import io
import json
import warnings
from pathlib import Path

from msindex.cli import main

HERE = Path(__file__).parent
GOLDEN = HERE / "golden_code.json"


def corpus() -> list[dict]:
    """The instances of the report golden corpus, once each."""
    cases = json.loads((HERE / "golden_reports.json").read_text(encoding="utf-8"))
    return [{"id": case["id"], "instance": case["instance"]}
            for case in cases["cases"] if not case["flags"]]


def _digest(instance, path) -> str:
    """The sha256 of ``msindex code`` stdout, with ``instance`` written to
    ``path``."""
    path.write_text(json.dumps(instance), encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main(["code", str(path)]) == 0
    return hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


def pytest_generate_tests(metafunc):
    if "case" in metafunc.fixturenames:
        cases = corpus()
        metafunc.parametrize("case", cases, ids=[case["id"] for case in cases])


def test_code_matches_golden(case, tmp_path):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))[case["id"]]
    assert _digest(case["instance"], tmp_path / "instance.json") == expected


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "instance.json"
        digests = {case["id"]: _digest(case["instance"], path) for case in corpus()}
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
    print(f"wrote {len(digests)} digests to {GOLDEN}")
