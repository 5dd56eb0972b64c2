"""Golden certificates: ``msindex verify`` must not change a byte.

``golden_verify.json`` holds the sha256 of ``msindex verify`` stdout for
the planned code (``msindex code``) of every instance of the report golden
corpus (``golden_reports.json``, each instance once), as produced by the
rank check that built every certificate entry eagerly; that
implementation is the reference.  The printed certificate names, per
(receiver, wanted) pair, the rows a decoder XORs and whether it uses its
prior, so the digest pins the entries and their order.

Regenerate the file (only for a change that declares new output) from the
repository root with ``PYTHONPATH=src python tests/test_verify_golden.py``.
"""

import contextlib
import hashlib
import io
import json
import warnings
from pathlib import Path

from msindex.cli import main

from test_code_golden import corpus

HERE = Path(__file__).parent
GOLDEN = HERE / "golden_verify.json"


def _run(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main(argv) == 0
    return out.getvalue()


def _digest(instance, folder) -> str:
    """The sha256 of ``msindex verify`` stdout on the planned code of
    ``instance``, with both files written to ``folder``."""
    inst_path, code_path = folder / "instance.json", folder / "code.json"
    inst_path.write_text(json.dumps(instance), encoding="utf-8")
    code_path.write_text(_run(["code", str(inst_path)]), encoding="utf-8")
    stdout = _run(["verify", str(inst_path), str(code_path)])
    return hashlib.sha256(stdout.encode("utf-8")).hexdigest()


def pytest_generate_tests(metafunc):
    if "case" in metafunc.fixturenames:
        cases = corpus()
        metafunc.parametrize("case", cases, ids=[case["id"] for case in cases])


def test_verify_matches_golden(case, tmp_path):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))[case["id"]]
    assert _digest(case["instance"], tmp_path) == expected


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as folder:
        digests = {case["id"]: _digest(case["instance"], Path(folder))
                   for case in corpus()}
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
    print(f"wrote {len(digests)} digests to {GOLDEN}")
