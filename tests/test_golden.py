"""Golden-output test: the exact stdout bytes of a small fixed CLI grid.

Each case's expected stdout is stored in ``tests/golden/<name>.out``, or,
for the digest cases, whose output runs to hundreds of kilobytes, its
SHA-256 in ``tests/golden/<name>.sha256``, as ``sha256sum`` writes it for
stdin.  A refactor that keeps the JSON documents byte-identical passes;
any change to a value, an ordering or the formatting fails here.  To
regenerate the files after an intended output change, run from the
repository root:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import sys
from pathlib import Path

import pytest

from tracecodes.cli import main

GOLDEN = Path(__file__).parent / "golden"

# one build per (m parity, p | m) regime: 1: (3,6); 2: (5,4), (7,4); 3: (3,3);
# 4: (5,3), (3,5)
CASES = {
    "build-3-6": ["build", "--p", "3", "--m", "6"],
    "build-5-4-b2": ["build", "--p", "5", "--m", "4", "--b", "2"],
    "build-3-3-modulus": ["build", "--p", "3", "--m", "3", "--modulus", "2,0,1,1"],
    "build-5-3-workers2": ["build", "--p", "5", "--m", "3", "--workers", "2"],
    "build-3-5-d1": ["build", "--p", "3", "--m", "5", "--defining-set", "d1"],
    "build-7-4-b3-modulus": ["build", "--p", "7", "--m", "4", "--b", "3", "--modulus", "3,5,0,0,1"],
    "build-3-4-text": ["build", "--p", "3", "--m", "4", "--format", "text"],
    # d2 reads no b, so its params carry none
    "build-3-4-d2": ["build", "--p", "3", "--m", "4", "--defining-set", "d2"],
    "predict-3-4": ["predict", "--p", "3", "--m", "4"],
    "verify-3-4-all": ["verify", "--p", "3", "--m", "4", "--scope", "all"],
    "verify-5-4-equivalence": ["verify", "--p", "5", "--m", "4", "--scope", "equivalence"],
    "verify-5-3-b2-cwe": ["verify", "--p", "5", "--m", "3", "--b", "2", "--scope", "cwe"],
    "verify-5-4-sums-modulus": ["verify", "--p", "5", "--m", "4", "--scope", "sums",
                                "--samples", "300", "--modulus", "3,0,0,0,1"],
    "verify-3-5-all-modulus": ["verify", "--p", "3", "--m", "5", "--scope", "all",
                               "--samples", "250", "--modulus", "2,2,0,0,0,1"],
    # the Gauss sign-convention verdicts at p = 5 and 7 mod 8, where the
    # quartic reading deviates at odd m, and at p = 1 mod 8, where it agrees
    "verify-13-3-sums": ["verify", "--p", "13", "--m", "3", "--scope", "sums"],
    "verify-7-3-sums": ["verify", "--p", "7", "--m", "3", "--scope", "sums"],
    "verify-17-3-sums": ["verify", "--p", "17", "--m", "3", "--scope", "sums"],
    # 2(p - 1) > 255: the recurrence fills go through list windows
    "verify-131-2-sums": ["verify", "--p", "131", "--m", "2", "--scope", "sums"],
    "sweep-3-5-7-b2": ["sweep", "--p-list", "3,5,7", "--m-list", "3", "--b", "2"],
    # compact lines whose counts reach two digits, with a comparison block
    "sweep-11-13-d1": ["sweep", "--p-list", "11,13", "--m-list", "3",
                       "--compare-defining-set", "d1"],
}

# lines with p >= 17, whose CWE terms take the closed forms' row-level path
DIGEST_CASES = {
    "sweep-29-31-37-b5": ["sweep", "--p-list", "29,31,37", "--m-list", "3", "--b", "5"],
}


def _digest_line(out: str) -> str:
    return f"{hashlib.sha256(out.encode()).hexdigest()}  -\n"


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden_bytes(capsys, name):
    assert main(CASES[name]) == 0
    out = capsys.readouterr().out
    assert out.encode() == (GOLDEN / f"{name}.out").read_bytes()


@pytest.mark.parametrize("name", sorted(DIGEST_CASES))
def test_stdout_matches_golden_digest(capsys, name):
    assert main(DIGEST_CASES[name]) == 0
    out = capsys.readouterr().out
    assert _digest_line(out) == (GOLDEN / f"{name}.sha256").read_text()


if __name__ == "__main__":
    import contextlib
    import io

    GOLDEN.mkdir(exist_ok=True)
    for name, argv in [*CASES.items(), *DIGEST_CASES.items()]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = main(argv)
        if rc != 0:
            sys.exit(f"{name}: exit {rc}")
        if name in DIGEST_CASES:
            path = GOLDEN / f"{name}.sha256"
            path.write_text(_digest_line(buf.getvalue()))
        else:
            path = GOLDEN / f"{name}.out"
            path.write_bytes(buf.getvalue().encode())
        print(f"wrote {path.name}", file=sys.stderr)
