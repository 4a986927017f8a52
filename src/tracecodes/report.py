"""Canonical result documents and their JSON / text renderings.

Documents are plain dicts with a fixed key order; compositions are
sorted lexicographically and weights ascend, so serialization is
byte-stable across runs and worker counts.  Timings are deliberately
kept out of the documents (they go to stderr) to preserve that
stability.
"""

from __future__ import annotations

import json

from .codes import CodeSummary, CompleteWeightEnumerator, DefiningSet, WeightDistribution

SCHEMA_VERSION = 3


def weight_poly_string(wd: WeightDistribution) -> str:
    """Ascending-weight polynomial string, e.g. ``1+60x^4+24x^5+40x^6``."""
    parts = []
    for w in sorted(wd.counts):
        c = wd.counts[w]
        if c == 0:
            continue
        parts.append(str(c) if w == 0 else f"{c}x^{w}")
    return "+".join(parts)


def cwe_monomial_string(comp: tuple[int, ...], freq: int) -> str:
    factors = [f"z{j}^{e}" for j, e in enumerate(comp) if e]
    return " ".join([str(freq)] + factors)


def optimality_tags(summary: dict) -> list[str]:
    """The griesmer-optimal and MDS tags a summary dict earns."""
    return [tag for tag, key in (("griesmer-optimal", "griesmer_optimal"), ("MDS", "mds"))
            if summary[key]]


def summary_dict(summary: CodeSummary) -> dict:
    return {
        "n": summary.n,
        "k": summary.k,
        "d": summary.d,
        "griesmer_sum": summary.griesmer_sum,
        "griesmer_optimal": summary.griesmer_optimal,
        "mds": summary.mds,
    }


def cwe_list(cwe: CompleteWeightEnumerator) -> list[dict]:
    """The terms in ascending composition order; a composition stays a
    tuple, which ``json`` writes as an array."""
    return [{"composition": comp, "frequency": freq}
            for comp, freq in sorted(cwe.terms.items())]


def wd_list(wd: WeightDistribution) -> list[dict]:
    return [{"weight": w, "count": wd.counts[w]} for w in sorted(wd.counts)]


def params_dict(p: int, m: int, modulus, b: int | None = None,
                defining_set: DefiningSet | None = None) -> dict:
    out = {"p": p, "m": m, "modulus": list(modulus)}
    if b is not None:
        out["b"] = b
    if defining_set is not None:
        out["defining_set"] = defining_set.label
        out["in_closed_form_scope"] = defining_set.in_closed_form_scope
    return out


def code_document(*, params: dict, summary: CodeSummary,
                  cwe: CompleteWeightEnumerator, wd: WeightDistribution,
                  extra: dict | None = None) -> dict:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "params": params,
        "summary": summary_dict(summary),
        "cwe": cwe_list(cwe),
        "weight_distribution": wd_list(wd),
    }
    if extra:
        doc.update(extra)
    return doc


class _DigitStrings(dict):
    """str(k) for each int k asked for, each made once."""

    def __missing__(self, k: int) -> str:
        text = self[k] = str(k)
        return text


_compact_dumps = json.JSONEncoder(ensure_ascii=False, separators=(",", ":")).encode


def _compact_cwe(entries: list[dict]) -> str:
    """The compact JSON of a :func:`cwe_list`, one join per term over
    cached digit strings: a CWE holds thousands of small counts, and few
    distinct ones."""
    digit = _DigitStrings().__getitem__
    return "[" + ",".join([
        f'{{"composition":[{",".join(map(digit, e["composition"]))}],'
        f'"frequency":{e["frequency"]}}}' for e in entries]) + "]"


def render_json(doc: dict, compact: bool = False) -> str:
    """Indented JSON, or one compact line, the same bytes as
    ``json.dumps(doc, ensure_ascii=False, separators=(",", ":"))``; a
    compact ``"cwe"`` array is written by :func:`_compact_cwe`."""
    if not compact:
        return json.dumps(doc, ensure_ascii=False, indent=2)
    return "{" + ",".join(
        f"{_compact_dumps(key)}:"
        f"{_compact_cwe(value) if key == 'cwe' else _compact_dumps(value)}"
        for key, value in doc.items()) + "}"


def render_text(doc: dict) -> str:
    lines = []
    params = doc.get("params", {})
    summ = doc.get("summary")
    if summ:
        tags = optimality_tags(summ)
        tag_str = f"  ({', '.join(tags)})" if tags else ""
        lines.append(f"[{summ['n']},{summ['k']},{summ['d']}] code over F_{params.get('p')}"
                     f" (p={params.get('p')}, m={params.get('m')}){tag_str}")
        if "defining_set" in params:
            lines.append(f"defining set: {params['defining_set']}")
        lines.append(f"griesmer sum: {summ['griesmer_sum']}")
    elif "scope" in params:
        lines.append(f"verify p={params['p']} m={params['m']} scope={params['scope']}")
    if "weight_distribution" in doc:
        wd = WeightDistribution(n=summ["n"] if summ else 0, k=summ["k"] if summ else 0,
                                counts={e["weight"]: e["count"]
                                        for e in doc["weight_distribution"]})
        lines.append("weight enumerator:")
        lines.append(weight_poly_string(wd))
    if "cwe" in doc:
        lines.append("complete weight enumerator:")
        for entry in doc["cwe"]:
            lines.append(cwe_monomial_string(tuple(entry["composition"]),
                                             entry["frequency"]))
    if "verification" in doc:
        lines.append("verification:")
        for v in doc["verification"]:
            status = "ok" if v["passed"] else "FAIL"
            lines.append(f"  [{status}] {v['name']}: {v['details']}")
    if "comparison" in doc:
        comp = doc["comparison"]
        lines.append(f"comparison code ({comp['defining_set']}): "
                     f"[{comp['summary']['n']},{comp['summary']['k']},{comp['summary']['d']}]"
                     f"  rate {comp['summary']['k']}/{comp['summary']['n']}")
    return "\n".join(lines)
