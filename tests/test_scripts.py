"""The gap hunter end to end, run in-process.

The golden output was recorded before the script moved onto
``msindex.analyze``; it must keep matching byte for byte.
"""

import hashlib
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))
import find_gaps  # noqa: E402

GAPS_GOLDEN = """\
# lower-gap: lower=6 linear-optimal=7 upper=7
{"num_messages": 8, "schema": 1, "senders": [[3, 4, 6, 8], [1, 5], [2, 5, 6, 7]], "wants": [[4], [8], [5], [1], [3], [7], [6], [2]]}
# upper-gap: lower=4 linear-optimal=4 upper=5
{"num_messages": 6, "schema": 1, "senders": [[1, 5, 6], [2, 3], [1, 6], [2, 3, 4], [1, 2, 4], [3, 4, 6]], "wants": [[3], [6], [1], [5], [4], [2]]}
# scanned 39 instances, printed 2 gaps
"""


def _stdout(capsys, script, *argv) -> str:
    assert script.main(list(argv)) == 0
    return capsys.readouterr().out


def test_find_gaps_golden(capsys):
    out = _stdout(capsys, find_gaps, "--max-m", "8", "--count", "600",
                  "--seed", "8", "--stop-after", "2")
    assert out == GAPS_GOLDEN
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "3a4503487fb817f78754fd8fd651667fd9147b85410da6fbc2878886140b3346")


def test_find_gaps_skips_the_oracle_past_its_guard(capsys):
    # seed 276 at --max-m 10: draw 0 has equal bounds, draw 1 has m = 10
    # and unequal bounds, so it reaches the oracle guard
    start = time.perf_counter()
    out = _stdout(capsys, find_gaps, "--max-m", "10", "--count", "2",
                  "--seed", "276")
    assert time.perf_counter() - start < 2
    assert out == ("# scanned 2 instances, printed 0 gaps, "
                   "1 past the oracle guard (m > 8)\n")


@pytest.mark.parametrize("argv, message", [
    (["--count", "0"], "argument --count: must be at least 1, got 0"),
    (["--count", "-2"], "argument --count: must be at least 1, got -2"),
    (["--max-m", "3"], "argument --max-m: must be at least 4, got 3"),
    (["--stop-after", "0"], "argument --stop-after: must be at least 1, got 0"),
], ids=["gaps-count-0", "gaps-count-negative", "gaps-max-m-3",
        "gaps-stop-after-0"])
def test_out_of_range_arguments_are_usage_errors(capsys, argv, message):
    # each would otherwise crash or misbehave only after drawing instances:
    # an empty scan has no last index, and randint(4, 3) has no value
    with pytest.raises(SystemExit) as exc:
        find_gaps.main(["--count", "3", *argv])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage: ") and err.endswith(f"error: {message}\n")
