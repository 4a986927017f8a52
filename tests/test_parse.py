"""The command line's fast path against argparse.

``cli._fast_parse`` fills the namespace of a well-formed call without
loading argparse.  Wherever it returns one, ``build_parser().parse_args``
must accept the same argv and return equal values; where it returns
None, ``main`` hands the call to argparse, which writes the help and
the errors (their bytes are pinned in test_golden.py).
"""

import importlib.util
import os
import re
import shlex
import subprocess
import sys
from itertools import chain
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracecodes import cli

from golden_cases import CASES, DIGEST_CASES, ERROR_CASES, HELP_CASES

ROOT = Path(__file__).resolve().parents[1]
PARSER = cli.build_parser()

COMMANDS = list(cli._COMMANDS)
FLAGS = sorted({row[0] for _, flags, _ in cli._COMMANDS.values() for row in flags})
PREFIXES = sorted({flag[:k] for flag in FLAGS for k in range(3, len(flag))} - set(FLAGS))
VALUES = ["3", "-1", "0", "2,0,1", "x", "", "json", "d1", "all"]
ODD_TOKENS = [*PREFIXES, *(f"{flag}={value}" for flag in FLAGS for value in ("3", "json", "all")),
              "-h", "--help", "--"]


def _takes(row, value: str) -> bool:
    """Whether the flag's type and choices accept value: it only steers
    the draws towards well-formed calls; argparse is the oracle."""
    try:
        converted = value if row[1] is None else row[1](value)
    except Exception:
        return False
    return row[3] is None or converted in row[3]


@st.composite
def argvs(draw):
    """A command and (flag, value) pairs: its required flags (or not),
    then mostly its other flags with values they take, with the odd
    flag, value and stray token mixed in."""
    command = draw(st.sampled_from(COMMANDS))
    rows = cli._COMMANDS[command][1]
    pairs = [(row[0], "3") for row in rows if row[4] and draw(st.integers(0, 7))]
    for _ in range(draw(st.integers(0, 5))):
        unused = [row for row in rows if row[0] not in dict(pairs)]
        if unused and draw(st.integers(0, 5)):
            row = draw(st.sampled_from(unused))
            good = [value for value in VALUES if value[:1] != "-" and _takes(row, value)]
            pairs.append((row[0], draw(st.sampled_from(good if draw(st.integers(0, 5))
                                                       else VALUES))))
        else:
            pairs.append((draw(st.sampled_from(FLAGS + ODD_TOKENS)),
                          draw(st.sampled_from(VALUES))))
    argv = [command, *chain.from_iterable(pairs)]
    if draw(st.integers(0, 5)) == 0:  # a stray token, often last
        argv.insert(draw(st.sampled_from([len(argv), draw(st.integers(0, len(argv)))])),
                    draw(st.sampled_from(COMMANDS + FLAGS + ODD_TOKENS + VALUES)))
    return argv


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(st.one_of(argvs(), st.lists(st.sampled_from(COMMANDS + FLAGS + ODD_TOKENS + VALUES),
                                   max_size=7)))
def test_fast_parse_agrees_with_argparse(argv):
    args = cli._fast_parse(argv)
    if args is not None:
        assert vars(args) == vars(PARSER.parse_args(argv))


def _ci_argvs() -> list[list[str]]:
    """The argv of every tracecodes call in the CI workflow."""
    found = []
    for line in (ROOT / ".github" / "workflows" / "tests.yml").read_text().splitlines():
        call = re.match(r"\s*(?:COLUMNS=\d+ )?(?:python [^|]*-m )?tracecodes ([^|>]*)", line)
        if call:
            found.append(shlex.split(call.group(1)))
    return found


def _benchmark_argvs() -> list[list[str]]:
    """The argv of every benchmark job for seeds 0-3, read from
    perfbench/workloads.py without writing its bytecode."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # dataclasses looks its module up
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(workloads)
    finally:
        sys.dont_write_bytecode = dont_write
        del sys.modules[spec.name]
    return [list(inv.argv) for name in workloads.FULL for seed in range(4)
            for inv in workloads.make_job(name, seed)]


WELL_FORMED = [*CASES.values(), *DIGEST_CASES.values(), *_benchmark_argvs(),
               *(argv for argv in _ci_argvs() if "--help" not in argv)]


def test_the_call_lists_are_read():
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    assert len(_ci_argvs()) == len(re.findall(r"tracecodes (?:build|predict|verify|sweep) ",
                                              workflow)) > 20
    assert len(_benchmark_argvs()) == 4 * (3 + 4 + 3)


@pytest.mark.parametrize("argv", WELL_FORMED, ids=" ".join)
def test_every_golden_ci_and_benchmark_call_takes_the_fast_path(argv):
    args = cli._fast_parse(argv)
    assert args is not None
    assert vars(args) == vars(PARSER.parse_args(argv))


@pytest.mark.parametrize("argv", [*HELP_CASES.values(), *ERROR_CASES.values(),
                                  *(argv for argv in _ci_argvs() if "--help" in argv)],
                         ids=" ".join)
def test_help_and_errors_go_to_argparse(argv):
    assert cli._fast_parse(argv) is None


def test_a_well_formed_call_loads_no_argparse():
    """-S keeps site's own imports out; help still loads argparse and
    prints through it."""
    code = ("import sys\n"
            "from tracecodes import cli\n"
            "for argv in (['build', '--p', '3', '--m', '4', '--workers', '2'],\n"
            "             ['predict', '--p', '3', '--m', '4', '--format', 'text'],\n"
            "             ['verify', '--p', '3', '--m', '4', '--samples', '5'],\n"
            "             ['sweep', '--p-list', '3,5', '--m-list', '3']):\n"
            "    assert cli.main(argv) == 0, argv\n"
            "loaded = {'argparse', 'gettext'} & set(sys.modules)\n"
            "assert not loaded, sorted(loaded)\n"
            "try:\n"
            "    cli.main(['build', '--help'])\n"
            "except SystemExit as exc:\n"
            "    assert exc.code == 0, exc.code\n"
            "else:\n"
            "    raise AssertionError('--help did not exit')\n"
            "assert 'argparse' in sys.modules\n")
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "usage: tracecodes build [-h] --p P --m M" in proc.stdout
