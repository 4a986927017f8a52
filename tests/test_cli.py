import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tracecodes.cli import main
from tracecodes.report import cwe_monomial_string, weight_poly_string
from tracecodes.verification import Verdict, exit_code_for

from expected_enumerators import WE_STRING_3_6, WE_STRING_5_3, WE_STRING_5_4


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_build_json(capsys):
    rc, out, _ = run(capsys, "build", "--p", "5", "--m", "4")
    assert rc == 0
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    assert (doc["summary"]["n"], doc["summary"]["k"], doc["summary"]["d"]) == (20, 4, 14)
    assert doc["params"]["in_closed_form_scope"] is True
    comps = [tuple(e["composition"]) for e in doc["cwe"]]
    assert comps == sorted(comps)
    assert sum(e["frequency"] for e in doc["cwe"]) == 5**4


def test_build_text_weight_enumerator_line(capsys):
    rc, out, _ = run(capsys, "build", "--p", "3", "--m", "6", "--format", "text")
    assert rc == 0
    lines = out.splitlines()
    assert WE_STRING_3_6 in lines
    assert "162 z0^33 z1^24 z2^24" in lines


def test_build_rejects_even_characteristic(capsys):
    rc, _, err = run(capsys, "build", "--p", "2", "--m", "4")
    assert rc == 2
    assert "odd" in err


def test_build_rejects_small_degree(capsys):
    rc, _, err = run(capsys, "build", "--p", "5", "--m", "2")
    assert rc == 2


def test_build_rejects_an_empty_defining_set(capsys):
    for p, m in [(3, 1), (5, 2)]:  # no nonzero x of F_p^m has Tr(x^2) = 0
        rc, out, err = run(capsys, "build", "--p", str(p), "--m", str(m),
                           "--defining-set", "d2")
        assert rc == 2
        assert out == ""
        assert err == (f"error: defining set {{Tr(x^2)=0, x!=0}} is empty over "
                       f"F_{p}^{m}: no code to build\n")


def test_build_budget_exceeded(capsys):
    rc, _, err = run(capsys, "build", "--p", "3", "--m", "6", "--budget", "100")
    assert rc == 3
    assert "budget" in err


def test_build_d1_and_d2(capsys):
    rc, out, _ = run(capsys, "build", "--p", "3", "--m", "6", "--defining-set", "d1")
    assert rc == 0
    doc = json.loads(out)
    assert (doc["summary"]["n"], doc["summary"]["k"], doc["summary"]["d"]) == (243, 6, 162)
    rc, out, _ = run(capsys, "build", "--p", "5", "--m", "4", "--defining-set", "d2")
    doc = json.loads(out)
    assert (doc["summary"]["n"], doc["summary"]["k"], doc["summary"]["d"]) == (104, 4, 80)


def test_predict(capsys):
    rc, out, _ = run(capsys, "predict", "--p", "5", "--m", "4")
    assert rc == 0
    doc = json.loads(out)
    assert (doc["summary"]["n"], doc["summary"]["k"], doc["summary"]["d"]) == (20, 4, 14)
    assert doc["params"]["regime"] == 2
    assert doc["params"]["pair_reading"] == "unordered"


def test_verify_all_small_field(capsys):
    rc, out, _ = run(capsys, "verify", "--p", "5", "--m", "3", "--scope", "all")
    assert rc == 0
    doc = json.loads(out)
    assert doc["all_passed"] is True
    names = {v["name"] for v in doc["verification"]}
    assert any(n.startswith("cwe") for n in names)
    assert any(n.startswith("trace-pair-counts") for n in names)
    assert any(n.startswith("scaled-set-equivalence") for n in names)


def test_verify_all_enumerates_once(capsys, monkeypatch):
    from tracecodes import codes
    calls = []
    original = codes.exhaustive_cwe

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(codes, "exhaustive_cwe", counting)
    rc, out, _ = run(capsys, "verify", "--p", "3", "--m", "4", "--scope", "all")
    assert rc == 0
    assert json.loads(out)["all_passed"] is True
    assert len(calls) == 1


def test_verify_sums_flags_sign_convention(capsys):
    rc, out, _ = run(capsys, "verify", "--p", "5", "--m", "1", "--scope", "sums")
    assert rc == 0
    doc = json.loads(out)
    conv = [v for v in doc["verification"]
            if v["name"].startswith("gauss-sum-sign-convention")]
    assert conv and conv[0]["data"]["deviates"] is True


def test_verify_code_scope_needs_degree(capsys):
    rc, _, err = run(capsys, "verify", "--p", "5", "--m", "1", "--scope", "cwe")
    assert rc == 2


def test_sweep(capsys):
    rc, out, err = run(capsys, "sweep", "--p-list", "3,5,7", "--m-list", "3")
    assert rc == 0
    lines = [line for line in out.splitlines() if line.strip()]
    assert len(lines) == 3
    for line in lines:
        doc = json.loads(line)
        assert doc["summary"]["mds"] is True
        assert all(v["passed"] for v in doc["verification"])
    assert "sweep summary" in err


def test_sweep_with_comparison_sets(capsys):
    rc, out, _ = run(capsys, "sweep", "--p-list", "3", "--m-list", "6",
                     "--compare-defining-set", "d1")
    assert rc == 0
    doc = json.loads(out.splitlines()[0])
    comp = doc["comparison"]["summary"]
    assert (comp["n"], comp["k"], comp["d"]) == (243, 6, 162)
    rc, out, _ = run(capsys, "sweep", "--p-list", "5", "--m-list", "4",
                     "--compare-defining-set", "d2")
    doc = json.loads(out.splitlines()[0])
    comp = doc["comparison"]["summary"]
    assert (comp["n"], comp["k"], comp["d"]) == (104, 4, 80)


def test_modulus_override_gives_same_cwe(capsys):
    rc, out_default, _ = run(capsys, "build", "--p", "5", "--m", "3")
    assert rc == 0
    rc, out_alt, _ = run(capsys, "build", "--p", "5", "--m", "3",
                         "--modulus", "4,1,0,1")
    assert rc == 0
    d0, d1 = json.loads(out_default), json.loads(out_alt)
    assert d0["params"]["modulus"] != d1["params"]["modulus"]
    assert d0["cwe"] == d1["cwe"]
    assert d0["weight_distribution"] == d1["weight_distribution"]


def test_json_output_is_byte_stable(capsys):
    _, out1, _ = run(capsys, "build", "--p", "5", "--m", "3")
    _, out2, _ = run(capsys, "build", "--p", "5", "--m", "3")
    assert out1 == out2
    _, out3, _ = run(capsys, "build", "--p", "5", "--m", "3", "--workers", "2")
    assert out1 == out3


def test_exit_code_aggregation():
    good = Verdict(name="a", passed=True, details="")
    bad = Verdict(name="b", passed=False, details="")
    assert exit_code_for([good, good]) == 0
    assert exit_code_for([good, bad]) == 1


def test_render_helpers():
    from tracecodes.codes import WeightDistribution
    wd = WeightDistribution(n=6, k=3, counts={0: 1, 4: 60, 5: 24, 6: 40})
    assert weight_poly_string(wd) == WE_STRING_5_3
    wd = WeightDistribution(n=20, k=4,
                            counts={0: 1, 14: 120, 15: 96, 16: 300, 19: 80, 20: 28})
    assert weight_poly_string(wd) == WE_STRING_5_4
    assert cwe_monomial_string((33, 24, 24), 162) == "162 z0^33 z1^24 z2^24"


def test_sweep_rejects_b_divisible_by_p(capsys, monkeypatch):
    from tracecodes import cli
    built = []
    monkeypatch.setattr(cli, "make_field", lambda *a, **k: built.append(a))
    for m_list in ("4", "3"):
        rc, out, err = run(capsys, "sweep", "--p-list", "3,5", "--m-list", m_list, "--b", "5")
        assert rc == 2
        assert out == ""
        assert "p=5" in err
    assert built == []


def test_predict_rejects_bad_modulus(capsys):
    for modulus in ("1,1,1", "1,0,1,0,1", "2,1,0,0,2"):  # wrong degree, reducible, not monic
        rc, out, err = run(capsys, "predict", "--p", "3", "--m", "4", "--modulus", modulus)
        assert rc == 2
        assert out == ""
        assert "modulus" in err
    with pytest.raises(SystemExit) as exc:  # argparse rejects it
        main(["predict", "--p", "3", "--m", "4", "--modulus", "x,1"])
    assert exc.value.code == 2


def test_predict_echoes_valid_modulus(capsys):
    rc, out, _ = run(capsys, "predict", "--p", "3", "--m", "4", "--modulus", "2,1,0,0,1")
    assert rc == 0
    assert json.loads(out)["params"]["modulus"] == [2, 1, 0, 0, 1]


def test_predict_rejects_even_or_composite_p(capsys):
    for p in ("2", "9"):
        rc, out, _ = run(capsys, "predict", "--p", p, "--m", "4")
        assert rc == 2
        assert out == ""


def test_predict_rejects_b_divisible_by_p(capsys, monkeypatch):
    from tracecodes import closedform
    predicted = []
    monkeypatch.setattr(closedform, "prediction", lambda *a: predicted.append(a))
    for b in ("0", "5", "-10"):
        rc, out, err = run(capsys, "predict", "--p", "5", "--m", "4", "--b", b)
        assert rc == 2
        assert out == ""
        assert "p=5" in err
    assert predicted == []


def test_predict_echoes_nonzero_b(capsys):
    rc, out, _ = run(capsys, "predict", "--p", "5", "--m", "4", "--b", "3")
    assert rc == 0
    doc = json.loads(out)
    assert doc["params"]["b"] == 3
    assert (doc["summary"]["n"], doc["summary"]["k"], doc["summary"]["d"]) == (20, 4, 14)


def test_verify_enumerates_the_set_of_b(capsys, monkeypatch):
    from tracecodes import codes
    enumerated = []
    original = codes.exhaustive_cwe

    def recording(ctx, dset, **kwargs):
        enumerated.append(dset.trace_value)
        return original(ctx, dset, **kwargs)

    monkeypatch.setattr(codes, "exhaustive_cwe", recording)
    rc, out, _ = run(capsys, "verify", "--p", "5", "--m", "3", "--b", "2", "--scope", "cwe")
    assert rc == 0
    assert json.loads(out)["all_passed"] is True
    assert enumerated == [2]


def test_verify_rejects_b_divisible_by_p(capsys):
    for scope in ("cwe", "griesmer", "all"):
        for b in ("0", "5"):
            rc, out, err = run(capsys, "verify", "--p", "5", "--m", "3", "--b", b,
                               "--scope", scope)
            assert rc == 2
            assert out == ""
            assert "p=5" in err


@pytest.mark.parametrize("argv", [
    ["predict", "--p", "3", "--m", "4", "--size-cap", "5"],
    ["predict", "--p", "3", "--m", "4", "--budget", "1"],
    ["predict", "--p", "3", "--m", "4", "--workers", "9"],
    ["sweep", "--p-list", "3", "--m-list", "3", "--modulus", "9,9,9"],
    ["sweep", "--p-list", "3", "--m-list", "3", "--format", "text"],
])
def test_unhonoured_flags_are_rejected(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("scope,flags,named", [
    ("counts", ["--b", "0", "--budget", "1", "--samples", "0"], "--b"),
    ("counts", ["--budget", "1"], "--budget"),
    ("sums", ["--b", "2"], "--b"),
    ("sums", ["--workers", "2"], "--workers"),
    ("equivalence", ["--budget", "100"], "--budget"),
    ("equivalence", ["--samples", "5"], "--samples"),
    ("cwe", ["--samples", "5"], "--samples"),
    ("griesmer", ["--samples", "5"], "--samples"),
])
def test_verify_rejects_flags_its_scope_never_reads(capsys, monkeypatch, scope, flags, named):
    from tracecodes import cli
    built = []
    monkeypatch.setattr(cli, "make_field", lambda *a, **k: built.append(a))
    rc, out, err = run(capsys, "verify", "--p", "5", "--m", "3", "--scope", scope, *flags)
    assert rc == 2
    assert out == ""
    assert named in err
    assert built == []


def test_verify_accepts_flags_its_scope_reads(capsys):
    for scope, flags in [("sums", ["--samples", "5"]),
                         ("all", ["--samples", "5", "--b", "2", "--budget", "1000",
                                  "--workers", "1"]),
                         ("cwe", ["--b", "3", "--budget", "1000", "--workers", "1"])]:
        rc, out, _ = run(capsys, "verify", "--p", "5", "--m", "3", "--scope", scope, *flags)
        assert rc == 0
        assert json.loads(out)["all_passed"] is True


def test_budget_fires_before_any_field_is_built(capsys, monkeypatch):
    from tracecodes import cli

    def no_field(*args, **kwargs):
        raise AssertionError("make_field called")

    monkeypatch.setattr(cli, "make_field", no_field)
    for argv in (["build", "--p", "3", "--m", "12", "--budget", "1000"],
                 ["build", "--p", "3", "--m", "12", "--defining-set", "d2", "--budget", "1000"],
                 ["verify", "--p", "3", "--m", "12", "--scope", "cwe", "--budget", "1000"]):
        rc, out, err = run(capsys, *argv)
        assert rc == 3
        assert out == ""
        assert "budget" in err


def test_sweep_budget_fires_before_any_field_is_built(capsys, monkeypatch):
    from tracecodes import cli, codes

    def no_field(*args, **kwargs):
        raise AssertionError("make_field called")

    monkeypatch.setattr(cli, "make_field", no_field)
    main_cost = codes._orbit_count(3, 5) * cli._set_size(3, 5, "main", 1)
    d2_cost = codes._orbit_count(3, 5) * cli._set_size(3, 5, "d2", 1)
    for argv, pair, cost, budget in [
            (["--m-list", "12", "--budget", "1000"], "(3,12)", 1311891633, 1000),
            # the main set fits, the comparison set does not
            (["--m-list", "5", "--compare-defining-set", "d2", "--budget", str(main_cost)],
             "(3,5)", d2_cost, main_cost)]:
        rc, out, err = run(capsys, "sweep", "--p-list", "3", *argv)
        assert rc == 1
        assert out == ""
        assert f"sweep pair {pair}: {cost} symbol evaluations exceed the budget of {budget}" in err


def test_sweep_sizes_its_pool_from_enumeration_cost(capsys, monkeypatch, fields):
    from tracecodes import cli, codes
    costs = []
    monkeypatch.setattr(cli, "_resolve_workers", lambda args, cost: costs.append(cost) or 1)
    rc, _, _ = run(capsys, "sweep", "--p-list", "3,5", "--m-list", "3,4",
                   "--compare-defining-set", "d1")
    assert rc == 0
    assert costs == [sum(codes.enumeration_cost(ctx, cli._build_dset(ctx, kind, 1))
                         for ctx in (fields(p, m) for p in (3, 5) for m in (3, 4))
                         for kind in ("main", "d1"))]


@pytest.mark.parametrize("p,m", [(3, 3), (3, 4), (3, 5), (3, 6), (5, 3), (5, 4),
                                 (5, 5), (7, 3), (7, 4), (11, 3), (13, 3)])
def test_cost_before_field_equals_enumeration_cost(fields, p, m):
    from tracecodes import cli, codes
    ctx = fields(p, m)
    for kind in ("main", "d1", "d2"):
        for b in range(p):
            want = codes.enumeration_cost(ctx, cli._build_dset(ctx, kind, b))
            assert codes._orbit_count(p, m) * cli._set_size(p, m, kind, b) == want, (kind, b)


def test_budget_keeps_the_small_degree_and_size_cap_exits(capsys):
    rc, _, err = run(capsys, "build", "--p", "5", "--m", "2", "--budget", "1")
    assert rc == 2 and "m > 2" in err
    rc, _, err = run(capsys, "build", "--p", "3", "--m", "16", "--budget", "1")
    assert rc == 2 and "size cap" in err


def test_cli_import_leaves_the_process_pool_out():
    """Neither importing the CLI nor a build that forks loads a pool module."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = ("import os, sys, tracecodes.cli\n"
            "pools = ('concurrent.futures', 'multiprocessing')\n"
            "assert not any(name in sys.modules for name in pools)\n"
            "forks, fork = [], os.fork\n"
            "os.fork = lambda: forks.append(1) or fork()\n"
            "assert tracecodes.cli.main(['build', '--p', '3', '--m', '5', '--workers', '2']) == 0\n"
            "assert forks == [1]\n"
            "assert not any(name in sys.modules for name in pools)\n")
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("command", [["build", "--p", "3", "--m", "4"],
                                     ["verify", "--p", "3", "--m", "4", "--scope", "cwe"],
                                     ["sweep", "--p-list", "3", "--m-list", "4"]])
def test_workers_below_one_are_rejected(capsys, monkeypatch, command):
    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", no_fork)
    for workers in ("0", "-5"):
        with pytest.raises(SystemExit) as exc:
            main(command + ["--workers", workers])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""


def test_workers_above_one_need_fork(capsys, monkeypatch):
    from tracecodes import cli
    monkeypatch.delattr(os, "fork")
    with pytest.raises(SystemExit) as exc:
        main(["build", "--p", "3", "--m", "4", "--workers", "2"])
    assert exc.value.code == 2
    assert "os.fork" in capsys.readouterr().err
    rc, out, _ = run(capsys, "build", "--p", "3", "--m", "4", "--workers", "1")
    assert rc == 0 and out
    args = cli.build_parser().parse_args(["build", "--p", "3", "--m", "4"])
    assert cli._resolve_workers(args, 10 * cli._PARALLEL_THRESHOLD) == 1


def test_sweep_is_the_same_for_every_worker_count(capsys):
    argv = ["sweep", "--p-list", "3,5,7,2", "--m-list", "3", "--compare-defining-set", "d1"]
    serial = run(capsys, *argv, "--workers", "1")
    assert serial[0] == 1  # p = 2 fails; the other pairs still print
    assert len(serial[1].splitlines()) == 3
    assert "sweep summary:" in serial[2]
    assert run(capsys, *argv, "--workers", "2") == serial
