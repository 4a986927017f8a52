"""Canonical result documents and their JSON / text renderings.

Documents are plain dicts with a fixed key order; compositions are
sorted lexicographically and weights ascend, so serialization is
byte-stable across runs and worker counts.  Timings are deliberately
kept out of the documents (they go to stderr) to preserve that
stability.
"""

from __future__ import annotations

from operator import itemgetter

from .codes import CodeSummary, CompleteWeightEnumerator, DefiningSet, WeightDistribution

SCHEMA_VERSION = 3
_first = itemgetter(0)


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
    tuple, which :func:`render_json` writes as an array.  The items are
    sorted by their keys alone, tuples of ints, which ``list.sort``
    compares on its fast path; (composition, frequency) items take the
    slow one, and a lookup per sorted key would hash each key again."""
    return [{"composition": comp, "frequency": freq}
            for comp, freq in sorted(cwe.terms.items(), key=_first)]


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


# json's escapes under ensure_ascii=False: the quote, the backslash and
# every C0 control character
_ESCAPES = str.maketrans({**{chr(c): f"\\u{c:04x}" for c in range(0x20)},
                          '"': '\\"', "\\": "\\\\", "\b": "\\b", "\f": "\\f",
                          "\n": "\\n", "\r": "\\r", "\t": "\\t"})


def _json_string(text: str) -> str:
    return '"' + text.translate(_ESCAPES) + '"'


def _json_key(key) -> str:
    """A dict key as JSON writes it: a string, an int or a bool or None
    made one (a weight distribution's counts are keyed by int weight)."""
    if isinstance(key, str):
        return _json_string(key)
    if key is None or isinstance(key, int):
        return '"' + _json(key, None) + '"'
    raise TypeError(f"keys must be str, int, bool or None, not {type(key).__name__}")


def _json(value, nl: str | None) -> str:
    """``value`` as JSON, the bytes of ``json.dumps`` with
    ensure_ascii=False and either compact separators, when ``nl`` is
    None, or indent=2, when ``nl`` is the newline and indent of the line
    that ``value`` starts on.  Takes dicts with str, int, bool or None
    keys, lists, tuples, str, int, bool and None; anything else raises
    TypeError."""
    if isinstance(value, str):
        return _json_string(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = None if nl is None else nl + "  "
    comma, colon = (",", ":") if nl is None else ("," + inner, ": ")
    if isinstance(value, dict):
        if not value:
            return "{}"
        body = comma.join([f"{_json_key(key)}{colon}{_json(item, inner)}"
                           for key, item in value.items()])
        return "{" + body + "}" if nl is None else "{" + inner + body + nl + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        # a composition is p ints: write them without a call each
        body = comma.join([int.__repr__(item) if type(item) is int else _json(item, inner)
                           for item in value])
        return "[" + body + "]" if nl is None else "[" + inner + body + nl + "]"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _compact_cwe(entries: list[dict]) -> str:
    """The compact JSON of a :func:`cwe_list`, one join per term over
    cached digit strings: a CWE holds thousands of small counts, and few
    distinct ones."""
    digit = _DigitStrings().__getitem__
    return "[" + ",".join([
        f'{{"composition":[{",".join(map(digit, e["composition"]))}],'
        f'"frequency":{e["frequency"]}}}' for e in entries]) + "]"


def render_json(doc: dict, compact: bool = False) -> str:
    """Indented JSON, the bytes of ``json.dumps(doc, ensure_ascii=False,
    indent=2)``, or one compact line, those of ``json.dumps(doc,
    ensure_ascii=False, separators=(",", ":"))``, both by :func:`_json`
    but for a compact ``"cwe"`` array, which :func:`_compact_cwe` writes."""
    if not compact:
        return _json(doc, "\n")
    return "{" + ",".join(
        f"{_json_string(key)}:{_compact_cwe(value) if key == 'cwe' else _json(value, None)}"
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
    return "\n".join(lines)
