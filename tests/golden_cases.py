"""The golden cases: the CLI calls whose exact output is pinned in
``tests/golden``, and the command that regenerates those files.

Each case's expected stdout is stored in ``tests/golden/<name>.out``, or,
for the digest cases, whose output runs to hundreds of kilobytes, its
SHA-256 in ``tests/golden/<name>.sha256``, as ``sha256sum`` writes it for
stdin.  The help texts (stdout) and the parse errors (stderr) are pinned
the same way, at COLUMNS=80.  ``test_golden.py`` checks every case.  This
module imports no test framework, so that the files can be regenerated on
any interpreter.  To regenerate them after an intended output change, run
from the repository root:

    PYTHONPATH=src python tests/golden_cases.py

and to replay every case through the ``tracecodes`` script on PATH, as
the CI workflow does after installing the package:

    python tests/golden_cases.py --replay
"""

import contextlib
import hashlib
import io
import os
import subprocess
import sys
from pathlib import Path

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
    # p does not divide m: the walk takes one codeword per coset of F_p
    "build-7-5-b3": ["build", "--p", "7", "--m", "5", "--b", "3"],
    "build-3-4-text": ["build", "--p", "3", "--m", "4", "--format", "text"],
    # d2 reads no b, so its params carry none
    "build-3-4-d2": ["build", "--p", "3", "--m", "4", "--defining-set", "d2"],
    # the expanded closed-form CWE in each regime: 1, 2, 3 and 4
    "predict-3-6": ["predict", "--p", "3", "--m", "6"],
    "predict-3-4": ["predict", "--p", "3", "--m", "4"],
    "predict-3-3": ["predict", "--p", "3", "--m", "3"],
    "predict-7-3": ["predict", "--p", "7", "--m", "3"],
    "verify-3-4-all": ["verify", "--p", "3", "--m", "4", "--scope", "all"],
    # the counts check in regimes 1 and 4, which no other golden reaches
    "verify-3-6-counts": ["verify", "--p", "3", "--m", "6", "--scope", "counts"],
    "verify-7-3-counts": ["verify", "--p", "7", "--m", "3", "--scope", "counts"],
    # the counts check in regime 3 (odd m, p | m), with its trace-pair and S_mix branches
    "verify-5-5-counts": ["verify", "--p", "5", "--m", "5", "--scope", "counts"],
    "verify-5-4-equivalence": ["verify", "--p", "5", "--m", "4", "--scope", "equivalence"],
    "verify-5-3-b2-cwe": ["verify", "--p", "5", "--m", "3", "--b", "2", "--scope", "cwe"],
    "verify-5-4-sums-modulus": ["verify", "--p", "5", "--m", "4", "--scope", "sums",
                                "--samples", "300", "--modulus", "3,0,0,0,1"],
    "verify-3-5-all-modulus": ["verify", "--p", "3", "--m", "5", "--scope", "all",
                               "--samples", "250", "--modulus", "2,2,0,0,0,1"],
    # the default (3,8) modulus given explicitly: check_modulus runs the
    # Frobenius test, and alpha = 38 lies beyond p^2 = 9
    "verify-3-8-counts-modulus": ["verify", "--p", "3", "--m", "8", "--scope", "counts",
                                  "--modulus", "2,0,1,0,0,0,0,0,1"],
    # the Gauss sign-convention verdicts at p = 5 and 7 mod 8, where the
    # quartic reading deviates at odd m, and at p = 1 mod 8, where it agrees
    "verify-13-3-sums": ["verify", "--p", "13", "--m", "3", "--scope", "sums"],
    "verify-7-3-sums": ["verify", "--p", "7", "--m", "3", "--scope", "sums"],
    "verify-17-3-sums": ["verify", "--p", "17", "--m", "3", "--scope", "sums"],
    # 2(p - 1) > 255: the recurrence fills widen byte windows into 4-byte slots
    "verify-131-2-sums": ["verify", "--p", "131", "--m", "2", "--scope", "sums"],
    # the quadratic sums at m = 3 and p >= 29, which no smaller case reaches
    "verify-37-3-sums": ["verify", "--p", "37", "--m", "3", "--scope", "sums"],
    "verify-101-3-sums": ["verify", "--p", "101", "--m", "3", "--scope", "sums"],
    # p >= 256: trace_exp is a list, and the cyclotomic scan widens it by array
    "verify-257-2-sums": ["verify", "--p", "257", "--m", "2", "--scope", "sums"],
    # Gauss-sum ladders to m = 12 and m = 8, past every other case's m <= 6
    "verify-3-12-sums": ["verify", "--p", "3", "--m", "12", "--scope", "sums"],
    "verify-5-8-sums": ["verify", "--p", "5", "--m", "8", "--scope", "sums"],
    # m = 1: a 1 x 1 form, one-variable counts, a list trace_exp and 100 closed
    # values rotated from G's counts
    "verify-1031-1-sums": ["verify", "--p", "1031", "--m", "1", "--scope", "sums"],
    "sweep-3-5-7-b2": ["sweep", "--p-list", "3,5,7", "--m-list", "3", "--b", "2"],
    # compact lines whose counts reach two digits, with a comparison block
    "sweep-11-13-d1": ["sweep", "--p-list", "11,13", "--m-list", "3",
                       "--compare-defining-set", "d1"],
}

DIGEST_CASES = {
    # lines with p >= 17, whose CWE terms take the closed forms' row-level path
    "sweep-29-31-37-b5": ["sweep", "--p-list", "29,31,37", "--m-list", "3", "--b", "5"],
    # p >= 256: the d1 set is read off a list trace_exp; compositions of 257 symbols
    "build-257-2-d1": ["build", "--p", "257", "--m", "2", "--defining-set", "d1"],
    # 10,201 terms: the largest fold of moved compositions and sort of keys
    "sweep-101-3": ["sweep", "--p-list", "101", "--m-list", "3"],
}


# argparse writes these, with COLUMNS=80, and exits 0
HELP_CASES = {
    "help": ["--help"],
    "help-build": ["build", "--help"],
    "help-predict": ["predict", "--help"],
    "help-verify": ["verify", "--help"],
    "help-sweep": ["sweep", "--help"],
}

# rejected at parse time: stderr bytes in tests/golden/<name>.err, exit 2
ERROR_CASES = {
    "error-build-p-x": ["build", "--p", "x", "--m", "3"],
    "error-verify-scope-bogus": ["verify", "--p", "3", "--m", "4", "--scope", "bogus"],
    "error-sweep-no-m-list": ["sweep", "--p-list", "3"],
    "error-build-bogus-flag": ["build", "--p", "3", "--m", "4", "--bogus", "1"],
    "error-verify-samples-0": ["verify", "--p", "3", "--m", "4", "--samples", "0"],
}


def digest_line(out: str) -> str:
    return f"{hashlib.sha256(out.encode()).hexdigest()}  -\n"


def regenerate() -> None:
    """Write every golden file from the current code, and exit with an
    error naming the first case whose exit code is not the expected one."""
    GOLDEN.mkdir(exist_ok=True)
    os.environ["COLUMNS"] = "80"
    for name, argv, code, suffix in [
            *((n, a, 0, "out") for n, a in HELP_CASES.items()),
            *((n, a, 2, "err") for n, a in ERROR_CASES.items())]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                main(argv)
            except SystemExit as exc:
                rc = exc.code
            else:
                rc = None
        if rc != code:
            sys.exit(f"{name}: exit {rc}, expected {code}")
        path = GOLDEN / f"{name}.{suffix}"
        path.write_bytes((out if suffix == "out" else err).getvalue().encode())
        print(f"wrote {path.name}", file=sys.stderr)
    for name, argv in [*CASES.items(), *DIGEST_CASES.items()]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = main(argv)
        if rc != 0:
            sys.exit(f"{name}: exit {rc}")
        if name in DIGEST_CASES:
            path = GOLDEN / f"{name}.sha256"
            path.write_text(digest_line(buf.getvalue()))
        else:
            path = GOLDEN / f"{name}.out"
            path.write_bytes(buf.getvalue().encode())
        print(f"wrote {path.name}", file=sys.stderr)


def replay() -> None:
    """Run every case through the ``tracecodes`` script on PATH and compare
    the pinned stream, stdout or, for the parse errors, stderr, with its
    golden file and the exit code with the expected one; exit with an
    error naming every case that differs."""
    env = {**os.environ, "COLUMNS": "80"}
    failed = []
    for name, argv, code, suffix in [
            *((n, a, 0, "out") for n, a in [*CASES.items(), *HELP_CASES.items()]),
            *((n, a, 0, "sha256") for n, a in DIGEST_CASES.items()),
            *((n, a, 2, "err") for n, a in ERROR_CASES.items())]:
        proc = subprocess.run(["tracecodes", *argv], capture_output=True, env=env)
        got = proc.stderr if suffix == "err" else proc.stdout
        if suffix == "sha256":
            got = digest_line(got.decode()).encode()
        ok = proc.returncode == code and got == (GOLDEN / f"{name}.{suffix}").read_bytes()
        if not ok:
            failed.append(name)
        print(f"{'ok' if ok else 'FAIL'} {name}", file=sys.stderr)
    if failed:
        sys.exit(f"{len(failed)} golden cases differ: {', '.join(failed)}")


if __name__ == "__main__":
    if sys.argv[1:] == ["--replay"]:
        replay()
    elif sys.argv[1:]:
        sys.exit("usage: golden_cases.py [--replay]")
    else:
        regenerate()
