import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracecodes import report
from tracecodes.cli import main
from tracecodes.codes import CodeSummary, CompleteWeightEnumerator, WeightDistribution
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
    assert doc["schema_version"] == 3
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


def test_build_rejects_a_defining_set_of_only_zero(capsys):
    for p in (3, 5):  # over F_p, Tr(x) = x: D = {0} and every codeword is zero
        rc, out, err = run(capsys, "build", "--p", str(p), "--m", "1",
                           "--defining-set", "d1", "--b", "0")
        assert rc == 2
        assert out == ""
        assert err == f"error: defining set {{Tr(x)=0}} holds only 0 over F_{p}^1: no code to build\n"


def test_build_budget_exceeded(capsys):
    rc, _, err = run(capsys, "build", "--p", "3", "--m", "6", "--budget", "100")
    assert rc == 3
    assert "budget" in err


def test_build_d2_rejects_b(capsys, monkeypatch):
    from tracecodes import cli
    built = []
    monkeypatch.setattr(cli, "make_field", lambda *a, **k: built.append(a))
    for b in ("0", "1"):  # d2 is {x != 0 : Tr(x^2) = 0}, whatever the value
        rc, out, err = run(capsys, "build", "--p", "3", "--m", "4", "--defining-set", "d2",
                           "--b", b)
        assert rc == 2
        assert out == ""
        assert "--b" in err
    assert built == []


def test_build_d1_and_d2(capsys):
    rc, out, _ = run(capsys, "build", "--p", "3", "--m", "6", "--defining-set", "d1")
    assert rc == 0
    doc = json.loads(out)
    assert (doc["summary"]["n"], doc["summary"]["k"], doc["summary"]["d"]) == (243, 6, 162)
    assert doc["params"]["b"] == 1
    rc, out, _ = run(capsys, "build", "--p", "5", "--m", "4", "--defining-set", "d2")
    doc = json.loads(out)
    assert (doc["summary"]["n"], doc["summary"]["k"], doc["summary"]["d"]) == (104, 4, 80)
    assert "b" not in doc["params"]  # d2 reads no b


def test_predict(capsys):
    rc, out, _ = run(capsys, "predict", "--p", "5", "--m", "4")
    assert rc == 0
    doc = json.loads(out)
    assert (doc["summary"]["n"], doc["summary"]["k"], doc["summary"]["d"]) == (20, 4, 14)
    assert doc["params"]["regime"] == 2


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
    original = codes.orbit_compositions

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(codes, "orbit_compositions", counting)
    rc, out, _ = run(capsys, "verify", "--p", "3", "--m", "4", "--scope", "all")
    assert rc == 0
    assert json.loads(out)["all_passed"] is True
    assert len(calls) == 1


def test_verify_griesmer_fails_on_frequencies_no_code_has(capsys, monkeypatch):
    from tracecodes import codes
    original = codes.cwe_from_compositions

    def dropping(*args, **kwargs):
        cwe = original(*args, **kwargs)
        del cwe.terms[3, 3, 0]  # 73 codewords: no power of 3
        return cwe

    monkeypatch.setattr(codes, "cwe_from_compositions", dropping)
    for scope in ("griesmer", "all"):
        rc, out, _ = run(capsys, "verify", "--p", "3", "--m", "4", "--scope", scope)
        assert rc == 1, scope
        verdicts = {v["name"]: v for v in json.loads(out)["verification"]}
        griesmer = verdicts["griesmer p=3 m=4"]
        assert griesmer["passed"] is False
        assert "is not a power of 3" in griesmer["details"]


def test_verify_griesmer_reports_both_summaries_on_a_mismatch(capsys, monkeypatch):
    from tracecodes import closedform
    from tracecodes.codes import CodeSummary
    wrong = CodeSummary(n=6, k=4, d=3, griesmer_sum=6, griesmer_optimal=True, mds=False)
    monkeypatch.setattr(closedform, "classify_optimality", lambda p, m: wrong)
    rc, out, _ = run(capsys, "verify", "--p", "3", "--m", "4", "--scope", "griesmer")
    assert rc == 1
    [verdict] = json.loads(out)["verification"]
    assert verdict["passed"] is False
    keys = ["n", "k", "d", "griesmer_sum", "griesmer_optimal", "mds"]
    assert list(verdict["data"]) == ["brute", "closed"]
    assert list(verdict["data"]["brute"]) == keys and list(verdict["data"]["closed"]) == keys
    assert verdict["data"]["brute"] == {"n": 6, "k": 4, "d": 2, "griesmer_sum": 5,
                                        "griesmer_optimal": False, "mds": False}
    assert verdict["data"]["closed"] == {"n": 6, "k": 4, "d": 3, "griesmer_sum": 6,
                                         "griesmer_optimal": True, "mds": False}


def test_verify_text_names_the_field(capsys):
    rc, out, _ = run(capsys, "verify", "--p", "3", "--m", "4", "--scope", "all",
                     "--format", "text")
    assert rc == 0
    assert out.splitlines()[:2] == ["verify p=3 m=4 scope=all", "verification:"]


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


# text with what JSON escapes (the quote, the backslash, every C0 control
# character) and what it writes as is under ensure_ascii=False
json_text = st.text(st.sampled_from(['"', "\\", *map(chr, range(0x20))]) | st.characters(),
                    max_size=20)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | json_text,
    lambda inner: st.lists(inner, max_size=3) | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(json_text | st.integers(), inner, max_size=3),
    max_leaves=10)


@st.composite
def code_documents(draw):
    """Code documents as a sweep line holds them: counts of several
    digits, zero to a few CWE terms, verdicts with and without data, and
    sometimes a comparison block or a key with any other JSON value:
    empty lists and dicts, nested tuples, escaped text."""
    p = draw(st.sampled_from([3, 5, 7]))
    n = draw(st.integers(1, 2000))
    counts = st.integers(0, 2000)
    terms = draw(st.dictionaries(st.tuples(*[counts] * p), st.integers(1, 10**12), max_size=4))
    wd = WeightDistribution(n=n, k=3, counts=draw(st.dictionaries(counts, counts, max_size=4)))
    summaries = st.builds(CodeSummary, n=counts, k=counts, d=counts, griesmer_sum=counts,
                          griesmer_optimal=st.booleans(), mds=st.booleans())
    params = {"p": p, "m": 3, "modulus": draw(st.lists(counts, max_size=4)),
              "b": draw(st.integers(1, p - 1)), "defining_set": draw(json_text),
              "in_closed_form_scope": draw(st.booleans())}
    tables = st.dictionaries(counts, counts, max_size=4)  # keyed by int weight
    data = st.none() | st.fixed_dictionaries({"composition": st.lists(counts, max_size=p),
                                              "brute": counts, "closed": counts}) \
        | st.fixed_dictionaries({"brute": tables, "closed": tables})
    verdicts = st.lists(st.builds(Verdict, name=json_text, passed=st.booleans(),
                                  details=json_text, data=data), max_size=3)
    extra = {}
    if draw(st.booleans()):
        extra["verification"] = [v.as_dict() for v in draw(verdicts)]
    if draw(st.booleans()):
        extra["comparison"] = {"defining_set": draw(json_text),
                               "summary": report.summary_dict(draw(summaries))}
    if draw(st.booleans()):
        extra[draw(json_text.filter(lambda key: key != "cwe"))] = draw(json_values)
    return report.code_document(params=params, summary=draw(summaries),
                                cwe=CompleteWeightEnumerator(p=p, n=n, terms=terms), wd=wd,
                                extra=extra)


@settings(max_examples=200, deadline=None)
@given(code_documents())
def test_compact_json_is_json_dumps(doc):
    assert report.render_json(doc, compact=True) == \
        json.dumps(doc, ensure_ascii=False, separators=(",", ":"))


@settings(max_examples=200, deadline=None)
@given(code_documents())
def test_indented_json_is_json_dumps(doc):
    assert report.render_json(doc) == json.dumps(doc, ensure_ascii=False, indent=2)


def test_json_escapes_every_control_character():
    doc = {"text": '"\\' + "".join(map(chr, range(0x20))) + "\x7f\u00e9\u2028\U0001f600",
           "empty": [[], {}, ()], "nested": ((1, (2, ())), [{"k": (None, True)}])}
    assert report.render_json(doc) == json.dumps(doc, ensure_ascii=False, indent=2)
    assert report.render_json(doc, compact=True) == \
        json.dumps(doc, ensure_ascii=False, separators=(",", ":"))


@pytest.mark.parametrize("value", [0.5, {1, 2}, frozenset(), b"x", {0.5: 1}, {(1,): 2}])
@pytest.mark.parametrize("compact", [False, True])
def test_json_writer_rejects_other_types(value, compact):
    """No float ever enters a document, so the writer has no float
    format to get wrong: it refuses one, as it does a set, and a float or
    tuple key."""
    with pytest.raises(TypeError):
        report.render_json({"params": [value]}, compact=compact)


def test_json_writer_writes_non_str_keys_as_json_does():
    doc = {"brute": {0: 1, 48: 162, -3: 2}, "flags": {True: 1, False: 0, None: []}}
    assert report.render_json(doc) == json.dumps(doc, ensure_ascii=False, indent=2)
    assert report.render_json(doc, compact=True) == \
        json.dumps(doc, ensure_ascii=False, separators=(",", ":"))


@pytest.mark.parametrize("argv", [
    ["verify", "--p", "3", "--m", "4", "--scope", "cwe"],
    ["verify", "--p", "3", "--m", "4", "--scope", "all"],
    ["sweep", "--p-list", "3,5", "--m-list", "3"]])
def test_a_weight_table_mismatch_is_written_and_exits_1(capsys, monkeypatch, argv):
    """The failing weight-distribution verdict carries both tables keyed
    by int weight; the document holding them is written whole."""
    from tracecodes import closedform
    original = closedform.prediction

    def bumped(p, m):
        pred = original(p, m)
        counts = dict(pred.wd.counts)
        counts[max(counts)] += 1
        pred.wd = WeightDistribution(n=pred.wd.n, k=pred.wd.k, counts=counts)
        return pred

    docs = []
    render = report.render_json

    def recording(doc, compact=False):
        docs.append((doc, compact))
        return render(doc, compact)

    monkeypatch.setattr(closedform, "prediction", bumped)
    monkeypatch.setattr(report, "render_json", recording)
    rc, out, _ = run(capsys, *argv)
    assert rc == 1
    assert docs and out == "".join(
        json.dumps(doc, ensure_ascii=False,
                   **({"separators": (",", ":")} if compact else {"indent": 2})) + "\n"
        for doc, compact in docs)
    for doc, _ in docs:
        verdicts = {v["name"]: v for v in doc["verification"]}
        table = verdicts["weight-distribution"]
        assert table["passed"] is False
        assert all(type(w) is int for w in table["data"]["brute"])
        assert sum(table["data"]["closed"].values()) == sum(table["data"]["brute"].values()) + 1


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
    original = codes.orbit_compositions

    def recording(ctx, dset, *args, **kwargs):
        enumerated.append(dset.trace_value)
        return original(ctx, dset, *args, **kwargs)

    monkeypatch.setattr(codes, "orbit_compositions", recording)
    for scope in ("cwe", "counts"):
        rc, out, _ = run(capsys, "verify", "--p", "5", "--m", "3", "--b", "2", "--scope", scope)
        assert rc == 0
        assert json.loads(out)["all_passed"] is True
    assert enumerated == [2, 2]


def test_verify_counts_reads_b_budget_and_workers(capsys):
    for flags in (["--b", "2"], ["--b", "3", "--budget", "1000", "--workers", "2"]):
        rc, out, _ = run(capsys, "verify", "--p", "5", "--m", "4", "--scope", "counts", *flags)
        assert rc == 0
        verdicts = json.loads(out)["verification"]
        assert [v["name"] for v in verdicts] == [
            "trace-pair-counts p=5 m=4", "discriminant-pair-counts p=5 m_p=4",
            "symbol-count-decomposition p=5 m=4"]
        assert all(v["passed"] for v in verdicts)


@pytest.mark.parametrize("scope,flags,b", [
    ("counts", ["--b", "2"], 2), ("cwe", ["--b", "3"], 3), ("griesmer", ["--b", "4"], 4),
    ("all", ["--b", "2", "--samples", "5"], 2), ("all", ["--samples", "5"], 1),
    ("sums", ["--samples", "5"], None), ("equivalence", [], None),
])
def test_verify_params_carry_b_when_the_scope_enumerates(capsys, scope, flags, b):
    rc, out, _ = run(capsys, "verify", "--p", "5", "--m", "3", "--scope", scope, *flags)
    assert rc == 0
    want = [("p", 5), ("m", 3)] + ([] if b is None else [("b", b)]) + [("scope", scope)]
    assert list(json.loads(out)["params"].items()) == want


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
    ("counts", ["--samples", "5"], "--samples"),
    # the flags counts reads do not hide one it never reads
    ("counts", ["--b", "2", "--budget", "1000", "--samples", "5"], "--samples"),
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
                 ["verify", "--p", "3", "--m", "12", "--scope", "cwe", "--budget", "1000"],
                 ["verify", "--p", "3", "--m", "12", "--scope", "counts", "--budget", "1000"],
                 # the single-constraint sets are priced at m <= 2 as well
                 ["build", "--p", "2999", "--m", "2", "--defining-set", "d1", "--budget", "1"],
                 ["build", "--p", "2999", "--m", "2", "--defining-set", "d2", "--budget", "1"]):
        rc, out, err = run(capsys, *argv)
        assert rc == 3
        assert out == ""
        assert "budget" in err


def test_sweep_budget_fires_before_any_field_is_built(capsys, monkeypatch):
    from tracecodes import cli, codes

    def no_field(*args, **kwargs):
        raise AssertionError("make_field called")

    monkeypatch.setattr(cli, "make_field", no_field)
    # at (11,3) the main set walks symbol by symbol and d2 by bits, dearer
    main_cost = codes.enumeration_cost(11, 3, cli._set_size(11, 3, "main", 1))
    d2_cost = codes.enumeration_cost(11, 3, cli._set_size(11, 3, "d2", 1))
    for argv, pair, cost, budget in [
            (["--p-list", "3", "--m-list", "12", "--budget", "1000"], "(3,12)", 36902437, 1000),
            # the main set fits, the comparison set does not
            (["--p-list", "11", "--m-list", "3", "--compare-defining-set", "d2",
              "--budget", str(main_cost)], "(11,3)", d2_cost, main_cost)]:
        rc, out, err = run(capsys, "sweep", *argv)
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
    assert costs == [sum(codes.enumeration_cost(p, m, len(cli._build_dset(fields(p, m), kind, 1)))
                         for p in (3, 5) for m in (3, 4) for kind in ("main", "d1"))]


@pytest.mark.parametrize("p,m", [(3, 3), (3, 4), (3, 5), (3, 6), (5, 3), (5, 4),
                                 (5, 5), (7, 3), (7, 4), (11, 3), (13, 3)])
def test_cost_before_field_equals_enumeration_cost(fields, p, m):
    """The gate prices enumeration_cost(p, m, n) at the closed-form n,
    so it is the walk's cost when that n is the built set's size."""
    from tracecodes import cli
    ctx = fields(p, m)
    for kind in ("main", "d1", "d2"):
        for b in range(p):
            assert cli._set_size(p, m, kind, b) == len(cli._build_dset(ctx, kind, b)), \
                (kind, b)


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_cost_before_field_sizes_single_constraint_sets_at_degree_2(fields, p):
    from tracecodes import cli
    ctx = fields(p, 2)
    for kind in ("d1", "d2"):
        for b in range(p):
            assert cli._set_size(p, 2, kind, b) == len(cli._build_dset(ctx, kind, b)), \
                (kind, b)


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


def test_cli_import_loads_no_dataclasses_inspect_or_typing():
    """Each CLI call is a fresh interpreter, so what importing the package
    pulls in is paid on every call; -S keeps site's own imports out."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = ("import sys, tracecodes.cli\n"
            "bad = {'dataclasses', 'inspect', 'typing', 'signal', 'json'} & set(sys.modules)\n"
            "assert not bad, sorted(bad)\n")
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True)
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


def test_out_of_range_samples_and_budget_are_rejected(capsys, monkeypatch):
    from tracecodes import cli
    built = []
    monkeypatch.setattr(cli, "make_field", lambda *a, **k: built.append(a))
    for samples in ("0", "-3"):
        for scope in ("sums", "all"):
            rc, out, err = run(capsys, "verify", "--p", "3", "--m", "4", "--scope", scope,
                               "--samples", samples)
            assert rc == 2
            assert out == ""
            assert f"--samples must be at least 1, got {samples}" in err
    for argv in (["build", "--p", "3", "--m", "4"],
                 ["verify", "--p", "3", "--m", "4", "--scope", "cwe"],
                 ["sweep", "--p-list", "3", "--m-list", "4"]):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--budget", "-1"])
        assert exc.value.code == 2
        assert "must be at least 0, got -1" in capsys.readouterr().err
    assert built == []


def test_sweep_fails_on_a_wrong_prediction(capsys, monkeypatch):
    from tracecodes import closedform
    original = closedform.prediction
    bumped = []

    def off_by_one(p, m):
        pred = original(p, m)
        key = max(pred.cwe.terms)
        pred.cwe.terms[key] += 1
        bumped.append(key)
        return pred

    monkeypatch.setattr(closedform, "prediction", off_by_one)
    rc, out, err = run(capsys, "sweep", "--p-list", "3", "--m-list", "3")
    assert rc == 1
    key, = bumped
    verdicts = {v["name"]: v for v in json.loads(out)["verification"]}
    assert verdicts["cwe"]["passed"] is False
    assert verdicts["cwe"]["data"]["composition"] == list(key)
    assert verdicts["cwe"]["data"]["closed"] == verdicts["cwe"]["data"]["brute"] + 1
    assert verdicts["weight-distribution"]["passed"] is True


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


def _module_run(*args):
    src = str(Path(__file__).resolve().parents[1] / "src")
    return subprocess.run([sys.executable, *args], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True)


@pytest.mark.parametrize("argv,code", [
    (["predict", "--p", "3", "--m", "4"], 0),
    (["sweep", "--p-list", "3,5,7,2", "--m-list", "3"], 1),  # p = 2 fails
    (["build", "--p", "4", "--m", "3"], 2),
    (["build", "--p", "3", "--m", "13"], 3)])
def test_module_entry_point_exits_as_main(capsys, argv, code):
    """python -m tracecodes goes through cli.run, which freezes the heap
    before the interpreter exits: same code and stdout as main()."""
    proc = _module_run("-m", "tracecodes", *argv)
    rc, out, _ = run(capsys, *argv)
    assert rc == code
    assert (proc.returncode, proc.stdout) == (rc, out), proc.stderr


def test_run_freezes_and_main_does_not(capsys):
    import gc
    before = gc.get_freeze_count()
    for enabled in (True, False):  # main() leaves the collector as it found it
        (gc.enable if enabled else gc.disable)()
        try:
            assert run(capsys, "predict", "--p", "3", "--m", "4")[0] == 0
            assert gc.isenabled() is enabled
        finally:
            gc.enable()
    assert gc.get_freeze_count() == before
    code = ("import gc, sys\n"
            "from tracecodes.cli import run\n"
            "sys.argv = ['tracecodes', 'predict', '--p', '3', '--m', '4']\n"
            "assert gc.isenabled()\n"
            "assert run() == 0\n"
            "assert gc.get_freeze_count() > 0\n"
            "assert not gc.isenabled()\n")
    proc = _module_run("-c", code)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("argv,head", [
    # over 300 kB, more than the pipe holds: the sweep is still writing
    # when the pipe closes, and a write fails
    (["sweep", "--p-list", "29,31,37", "--m-list", "3"], 100),
    # a few kB, all still in stdout's buffer when the pipe closes: run()'s
    # flush fails, and the exit-time flush must not try again
    (["predict", "--p", "3", "--m", "4"], 0)])
def test_a_closed_stdout_exits_quietly(argv, head):
    """A reader that stops early, as ``head -c`` does, ends the call with
    EXIT_BROKEN_PIPE and no traceback.  stdout is block-buffered, as it is
    for a pipe unless PYTHONUNBUFFERED is set."""
    from tracecodes.cli import EXIT_BROKEN_PIPE
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    proc = subprocess.Popen([sys.executable, "-m", "tracecodes", *argv],
                            env={**env, "PYTHONPATH": src},
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert len(proc.stdout.read(head)) == head
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == EXIT_BROKEN_PIPE == 120
    assert "Traceback" not in err and "Exception ignored" not in err, err


def test_profiling_the_module_still_prints_its_stats(capsys):
    """run() leaves through the normal shutdown, so cProfile, which prints
    after the module's SystemExit, still reports."""
    proc = _module_run("-m", "cProfile", "-m", "tracecodes", "predict", "--p", "3", "--m", "4")
    _, out, _ = run(capsys, "predict", "--p", "3", "--m", "4")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith(out)
    assert "function calls" in proc.stdout[len(out):]
