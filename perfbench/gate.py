"""Correctness gate on the CLI's outputs, run outside the timed region.

An invocation fails on a wrong exit code, unparsable output or any check
below.  The expected enumerators come from the closed forms, which
depend on neither ``--b`` nor ``--modulus``, so every seed has an exact
answer.
"""

from __future__ import annotations

import json


def verify_families(p: int, m: int) -> set[str]:
    """Check families that ``verify --scope all`` emits at (p, m): the
    verdict name up to its first space."""
    families = {"gauss-sum", "gauss-sum-magnitude", "gauss-sum-sign-convention",
                "quadratic-sum", "cyclotomic-numbers", "trace-pair-counts",
                "symbol-count-decomposition", "cwe", "weight-distribution",
                "griesmer", "scaled-set-equivalence"}
    if m % p:
        families.add("discriminant-pair-counts")
    return families


class Gate:
    """Checks outputs against closed-form predictions, computed once per
    (p, m) with the package under test."""

    def __init__(self, closedform):
        self._closedform = closedform
        self._expected: dict[tuple[int, int], tuple[dict, tuple[int, int, int]]] = {}

    def expected(self, p: int, m: int):
        if (p, m) not in self._expected:
            pred = self._closedform.prediction(p, m)
            terms = {tuple(k): v for k, v in pred.cwe.terms.items()}
            nkd = (pred.summary.n, pred.summary.k, pred.summary.d)
            self._expected[(p, m)] = (terms, nkd)
        return self._expected[(p, m)]

    def _check_code(self, doc: dict, p: int, m: int, b: int) -> list[str]:
        errors = []
        params = doc["params"]
        if (params["p"], params["m"], params.get("b")) != (p, m, b):
            errors.append(f"params {params} are not p={p} m={m} b={b}")
        terms, nkd = self.expected(p, m)
        got = {tuple(t["composition"]): t["frequency"] for t in doc["cwe"]}
        if got != terms:
            errors.append(f"({p},{m}): CWE differs from the closed form")
        s = doc["summary"]
        if (s["n"], s["k"], s["d"]) != nkd:
            errors.append(f"({p},{m}): [n,k,d]={[s['n'], s['k'], s['d']]} "
                          f"expected {list(nkd)}")
        return errors

    def check(self, inv, returncode: int, stdout: str) -> list[str]:
        """Failure messages for one invocation; empty when it passed."""
        if returncode != 0:
            return [f"exit code {returncode}"]
        argv = list(inv.argv)
        b = int(argv[argv.index("--b") + 1]) if "--b" in argv else 1
        try:
            if inv.command == "build":
                (p, m), = inv.pairs
                return self._check_code(json.loads(stdout), p, m, b)
            if inv.command == "verify":
                (p, m), = inv.pairs
                return self._check_verify(json.loads(stdout), p, m)
            return self._check_sweep(stdout, inv.pairs, b)
        except (ValueError, KeyError, TypeError) as exc:
            return [f"malformed output: {exc!r}"]

    def _check_verify(self, doc: dict, p: int, m: int) -> list[str]:
        verdicts = doc["verification"]
        errors = []
        if not verdicts:
            errors.append("empty verdict list")
        failed = [v["name"] for v in verdicts if not v["passed"]]
        if failed or not doc["all_passed"]:
            errors.append(f"failed verdicts: {failed}")
        missing = verify_families(p, m) - {v["name"].split(" ")[0] for v in verdicts}
        if missing:
            errors.append(f"missing check families: {sorted(missing)}")
        return errors

    def _check_sweep(self, stdout: str, pairs, b: int) -> list[str]:
        lines = stdout.splitlines()
        if len(lines) != len(pairs):
            return [f"{len(lines)} sweep lines for {len(pairs)} pairs"]
        errors = []
        for line, (p, m) in zip(lines, pairs):
            doc = json.loads(line)
            errors += self._check_code(doc, p, m, b)
            passed = {v["name"] for v in doc["verification"] if v["passed"]}
            if not {"cwe", "weight-distribution"} <= passed:
                errors.append(f"({p},{m}): cwe/weight-distribution verdicts "
                              f"not both passed")
        return errors
