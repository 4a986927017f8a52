"""Golden-output test: the exact stdout bytes of a small fixed CLI grid.

The cases and their files are described in ``golden_cases.py``.  A
refactor that keeps the JSON documents byte-identical passes; any change
to a value, an ordering or the formatting fails here.  The help texts
and the parse errors are pinned too, so that a change to how the command
line is parsed keeps every byte a user sees.  To regenerate the files
after an intended output change, run from the repository root:

    PYTHONPATH=src python tests/golden_cases.py
"""

import pytest

from tracecodes.cli import main

from golden_cases import CASES, DIGEST_CASES, ERROR_CASES, GOLDEN, HELP_CASES, digest_line


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden_bytes(capsys, name):
    assert main(CASES[name]) == 0
    out = capsys.readouterr().out
    assert out.encode() == (GOLDEN / f"{name}.out").read_bytes()


@pytest.mark.parametrize("name", sorted(DIGEST_CASES))
def test_stdout_matches_golden_digest(capsys, name):
    assert main(DIGEST_CASES[name]) == 0
    out = capsys.readouterr().out
    assert digest_line(out) == (GOLDEN / f"{name}.sha256").read_text()


def _exit_code(argv) -> int:
    with pytest.raises(SystemExit) as exc:
        main(argv)
    return exc.value.code


@pytest.mark.parametrize("name", sorted(HELP_CASES))
def test_help_matches_golden_bytes(capsys, monkeypatch, name):
    monkeypatch.setenv("COLUMNS", "80")
    assert _exit_code(HELP_CASES[name]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out.encode() == (GOLDEN / f"{name}.out").read_bytes()


@pytest.mark.parametrize("name", sorted(ERROR_CASES))
def test_parse_error_matches_golden_bytes(capsys, monkeypatch, name):
    monkeypatch.setenv("COLUMNS", "80")
    assert _exit_code(ERROR_CASES[name]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.encode() == (GOLDEN / f"{name}.err").read_bytes()
