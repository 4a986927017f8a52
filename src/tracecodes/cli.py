"""Command-line front end.

Subcommands: ``build`` (exhaustive enumeration of one code),
``predict`` (closed forms only, no enumeration), ``verify``
(brute-force versus closed-form comparisons) and ``sweep`` (a grid of
builds with verification, streamed as JSON lines).

Exit codes: 0 success / everything verified, 1 verification mismatch,
2 invalid input, 3 resource budget exceeded.  Results go to stdout,
diagnostics and timings to stderr.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Optional, Sequence

from . import closedform, codes, report, verification
from .errors import BudgetExceededError, EmptyDefiningSetError, TraceCodesError
from .fields import (
    DEFAULT_SIZE_CAP,
    check_characteristic,
    check_modulus,
    check_size,
    make_field,
)
from .parallel import fork_map

SCOPES = ("cwe", "sums", "counts", "griesmer", "equivalence", "all")
CODE_SCOPES = {"cwe", "counts", "griesmer", "equivalence"}
DEFAULT_SAMPLES = 100


def _parse_modulus(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(c) for c in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad modulus {text!r}: {exc}")


def _worker_count(text: str) -> int:
    count = int(text)
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {count}")
    if count > 1 and not hasattr(os, "fork"):
        raise argparse.ArgumentTypeError("more than 1 needs os.fork, which this platform lacks")
    return count


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tracecodes",
        description="Trace-defined linear codes: exhaustive complete weight "
                    "enumerators, closed-form predictions and verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_field(sp):
        sp.add_argument("--p", type=int, required=True, help="odd prime characteristic")
        sp.add_argument("--m", type=int, required=True, help="extension degree")
        sp.add_argument("--b", type=int, default=1,
                        help="defining trace value (default 1)")
        sp.add_argument("--format", choices=("json", "text"), default="json")
        sp.add_argument("--modulus", type=_parse_modulus, default=None,
                        help="comma-separated modulus coefficients, low degree first")

    def add_limits(sp):
        sp.add_argument("--size-cap", type=int, default=DEFAULT_SIZE_CAP,
                        help="maximum field size p^m")
        sp.add_argument("--budget", type=int, default=codes.DEFAULT_BUDGET,
                        help="maximum symbol evaluations for enumeration: one "
                             "codeword of length n per orbit representative; "
                             "exceeding it exits 3 before enumerating")
        sp.add_argument("--workers", type=_worker_count, default=None,
                        help="processes, this one included, that split one "
                             "enumeration or the pairs of a sweep; more than 1 "
                             "forks, so it needs os.fork (default: all cores for "
                             "large jobs, 1 for small ones)")

    sp = sub.add_parser("build", help="enumerate one code exhaustively")
    add_field(sp)
    add_limits(sp)
    sp.add_argument("--defining-set", choices=("main", "d1", "d2"), default="main",
                    help="main: Tr(x)=b and Tr(x^2)=0; d1: Tr(x)=b; "
                         "d2: x nonzero with Tr(x^2)=0")

    sp = sub.add_parser("predict", help="closed-form prediction, no enumeration")
    add_field(sp)

    sp = sub.add_parser("verify", help="brute force versus closed forms")
    add_field(sp)
    add_limits(sp)
    sp.add_argument("--scope", choices=SCOPES, default="all")
    sp.add_argument("--samples", type=int, default=None,
                    help=f"random quadratics for the exponential-sum identity "
                         f"(default {DEFAULT_SAMPLES}; sums and all scopes only)")
    # None tells an explicit flag from the default: a scope that never
    # reads --b, --budget, --workers or --samples rejects it
    sp.set_defaults(b=None, budget=None)

    sp = sub.add_parser("sweep", help="grid of builds with verification (JSON lines)")
    sp.add_argument("--b", type=int, default=1,
                    help="defining trace value (default 1)")
    add_limits(sp)
    sp.add_argument("--p-list", type=str, required=True,
                    help="comma-separated characteristics")
    sp.add_argument("--m-list", type=str, required=True,
                    help="comma-separated extension degrees")
    sp.add_argument("--compare-defining-set", choices=("d1", "d2"), default=None,
                    help="also build a single-constraint comparison code")
    return parser


_PARALLEL_THRESHOLD = 10**6  # symbol evaluations; below this forking only adds overhead


def _resolve_workers(args, cost: int) -> int:
    if args.workers is not None:
        return args.workers
    if cost < _PARALLEL_THRESHOLD or not hasattr(os, "fork"):
        return 1
    return os.cpu_count() or 1


def _make_ctx(args):
    return make_field(args.p, args.m, modulus=args.modulus, size_cap=args.size_cap)


def _set_size(p: int, m: int, kind: str, b: int) -> int:
    """|D| of the --defining-set ``kind``, m > 2, from the closed
    trace-pair counts: no field is built."""
    if kind == "d1":
        return p ** (m - 1)
    if kind == "main":
        return closedform.trace_pair_count_closed(p, m, 0, b)
    return sum(closedform.trace_pair_count_closed(p, m, 0, t) for t in range(p)) - 1


def _check_budget_before_field(p: int, m: int, size_cap: int, kind: str, b: int,
                               budget: int) -> int:
    """Raise BudgetExceededError before any field is built when the
    enumeration would exceed ``budget``, and return its cost,
    codes.enumeration_cost of the set, from p, m and b alone.  Degrees
    m <= 2 keep their own exit paths and the check in exhaustive_cwe,
    and count 0 here."""
    if m <= 2:
        return 0
    check_size(p, m, size_cap)
    cost = codes._orbit_count(p, m) * _set_size(p, m, kind, b)
    codes.check_budget(cost, budget)
    return cost


def _build_dset(ctx, kind: str, b: int):
    if kind == "main":
        return codes.build_defining_set(ctx, b)
    if kind == "d1":
        return codes.build_defining_set_general(ctx, trace_value=b)
    return codes.build_defining_set_general(ctx, trace_square_value=0, exclude_zero=True)


def _b_vanishes(command: str, b: int, p: int, err) -> bool:
    """Report and return whether --b is 0 in F_p, where no closed form applies."""
    if b % p:
        return False
    print(f"{command} --b {b} is divisible by p={p}: the closed forms "
          f"need b nonzero in F_{p}", file=err)
    return True


def _emit(doc: dict, fmt: str, out) -> None:
    if fmt == "json":
        print(report.render_json(doc), file=out)
    else:
        print(report.render_text(doc), file=out)


def cmd_build(args, out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    t0 = time.perf_counter()
    check_characteristic(args.p)
    _check_budget_before_field(args.p, args.m, args.size_cap, args.defining_set, args.b,
                               args.budget)
    ctx = _make_ctx(args)
    dset = _build_dset(ctx, args.defining_set, args.b)
    if not dset.elements:
        raise EmptyDefiningSetError(
            f"defining set {{{dset.label}}} is empty over F_{args.p}^{args.m}: no code to build")
    workers = _resolve_workers(args, codes.enumeration_cost(ctx, dset))
    cwe = codes.exhaustive_cwe(ctx, dset, budget=args.budget, workers=workers)
    summary = codes.summarize(cwe, ctx.p)
    doc = report.code_document(
        params=report.params_dict(args.p, args.m, ctx.modulus, b=args.b,
                                  defining_set=dset),
        summary=summary, cwe=cwe, wd=cwe.weight_distribution())
    _emit(doc, args.format, out)
    print(f"build p={args.p} m={args.m}: {time.perf_counter() - t0:.3f}s", file=err)
    return 0


def cmd_predict(args, out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    check_characteristic(args.p)
    if _b_vanishes(args.command, args.b, args.p, err):
        return 2
    pred = closedform.prediction(args.p, args.m)
    modulus = () if args.modulus is None else check_modulus(args.p, args.m, args.modulus)
    params = report.params_dict(args.p, args.m, modulus, b=args.b)
    params["regime"] = pred.regime.index
    params["pair_reading"] = pred.pair_reading
    doc = report.code_document(params=params, summary=pred.summary, cwe=pred.cwe, wd=pred.wd)
    _emit(doc, args.format, out)
    return 0


def cmd_verify(args, out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    scope = args.scope
    if scope in CODE_SCOPES and args.m <= 2:
        print(f"scope {scope!r} needs extension degree m > 2", file=err)
        return 2
    check_characteristic(args.p)
    enumerates = scope in ("cwe", "griesmer", "all") and args.m > 2
    sums = scope in ("sums", "all")
    for flag, value, read in (("--b", args.b, enumerates), ("--budget", args.budget, enumerates),
                              ("--workers", args.workers, enumerates),
                              ("--samples", args.samples, sums)):
        if value is not None and not read:
            print(f"verify --scope {scope} at m={args.m} does not read {flag}", file=err)
            return 2
    b = 1 if args.b is None else args.b
    budget = codes.DEFAULT_BUDGET if args.budget is None else args.budget
    if enumerates and _b_vanishes(args.command, b, args.p, err):
        return 2
    verdicts: list[verification.Verdict] = []
    t0 = time.perf_counter()
    if enumerates:
        _check_budget_before_field(args.p, args.m, args.size_cap, "main", b, budget)
    ctx = _make_ctx(args)
    cwe = None
    if enumerates:
        # one enumeration serves both the cwe and the griesmer checks
        dset = codes.build_defining_set(ctx, b)
        workers = _resolve_workers(args, codes.enumeration_cost(ctx, dset))
        cwe = codes.exhaustive_cwe(ctx, dset, budget=budget, workers=workers)
    if sums:
        verdicts += verification.verify_gauss_sums(ctx)
        verdicts += verification.verify_quadratic_sums(
            ctx, samples=DEFAULT_SAMPLES if args.samples is None else args.samples)
        verdicts += verification.verify_cyclotomic_numbers(ctx)
    if args.m > 2:
        if scope in ("counts", "all"):
            verdicts += verification.verify_counts(ctx)
        if scope in ("cwe", "all"):
            verdicts += verification.verify_cwe(ctx, cwe=cwe)
        if scope in ("griesmer", "all"):
            verdicts += verification.verify_griesmer(ctx, cwe=cwe)
        if scope in ("equivalence", "all"):
            verdicts += verification.verify_equivalence(ctx)
    doc = {
        "schema_version": report.SCHEMA_VERSION,
        "params": {"p": args.p, "m": args.m, "scope": scope},
        "verification": [v.as_dict() for v in verdicts],
        "all_passed": all(v.passed for v in verdicts),
    }
    _emit(doc, args.format, out)
    print(f"verify p={args.p} m={args.m} scope={scope}: "
          f"{time.perf_counter() - t0:.3f}s", file=err)
    return verification.exit_code_for(verdicts)


def _sweep_pair(args, p: int, m: int) -> tuple[dict, bool]:
    ctx = make_field(p, m, size_cap=args.size_cap)
    dset = codes.build_defining_set(ctx, args.b)
    cwe = codes.exhaustive_cwe(ctx, dset, budget=args.budget)
    summary = codes.summarize(cwe, p)
    pred = closedform.prediction(p, m)
    brute_wd = cwe.weight_distribution()
    verdicts = [
        verification.Verdict(
            name="cwe", passed=pred.cwe.terms == cwe.terms,
            details="closed-form enumerator matches" if pred.cwe.terms == cwe.terms
            else "closed-form enumerator differs"),
        verification.Verdict(
            name="weight-distribution", passed=pred.wd.counts == brute_wd.counts,
            details="closed-form weight table matches" if pred.wd.counts == brute_wd.counts
            else "closed-form weight table differs"),
    ]
    doc = report.code_document(
        params=report.params_dict(p, m, ctx.modulus, b=args.b, defining_set=dset),
        summary=summary, cwe=cwe, wd=brute_wd,
        extra={"verification": [v.as_dict() for v in verdicts]})
    if args.compare_defining_set:
        comp_set = _build_dset(ctx, args.compare_defining_set, args.b)
        comp_cwe = codes.exhaustive_cwe(ctx, comp_set, budget=args.budget)
        comp_summary = codes.summarize(comp_cwe, p)
        doc["comparison"] = {
            "defining_set": comp_set.label,
            "summary": report.summary_dict(comp_summary),
        }
    return doc, all(v.passed for v in verdicts)


def _sweep_pair_cost(args, p: int, m: int) -> int:
    """Check p, the size cap and the budget of every set of one sweep
    pair before its field is built; return their enumeration cost."""
    check_characteristic(p)
    kinds = ["main"] + ([args.compare_defining_set] if args.compare_defining_set else [])
    return sum(_check_budget_before_field(p, m, args.size_cap, kind, args.b, args.budget)
               for kind in kinds)


def _sweep_pair_safe(args, p: int, m: int):
    """Per-pair failures are recorded, not raised, so a sweep continues
    past bad pairs."""
    try:
        doc, ok = _sweep_pair(args, p, m)
        return doc, ok, None
    except TraceCodesError as exc:
        return None, False, str(exc)


def cmd_sweep(args, out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    try:
        p_list = [int(x) for x in args.p_list.split(",")]
        m_list = [int(x) for x in args.m_list.split(",")]
    except ValueError as exc:
        print(f"bad sweep lists: {exc}", file=err)
        return 2
    for p in p_list:
        if p > 1 and _b_vanishes(args.command, args.b, p, err):
            return 2
    pairs = [(p, m) for p in p_list for m in m_list]
    results = {}
    cost = 0
    for pair in pairs:
        try:
            cost += _sweep_pair_cost(args, *pair)
        except TraceCodesError as exc:
            results[pair] = (None, False, str(exc))
    todo = [pair for pair in pairs if pair not in results]
    workers = max(1, min(_resolve_workers(args, cost), len(todo)))
    chunks = [todo[i::workers] for i in range(workers)]
    done = fork_map(lambda chunk: [_sweep_pair_safe(args, *pair) for pair in chunk], chunks)
    for chunk, found in zip(chunks, done):
        results.update(zip(chunk, found))
    any_failed = False
    rows = []
    for p, m in pairs:
        doc, ok, error = results[(p, m)]
        if error is not None:
            print(f"sweep pair ({p},{m}): {error}", file=err)
            any_failed = True
            continue
        any_failed = any_failed or not ok
        print(report.render_json(doc, compact=True), file=out)
        s = doc["summary"]
        tags = []
        if s["griesmer_optimal"]:
            tags.append("griesmer-optimal")
        if s["mds"]:
            tags.append("MDS")
        rows.append(f"  p={p} m={m}: [{s['n']},{s['k']},{s['d']}] "
                    f"{' '.join(tags) if tags else '-'}")
    print("sweep summary:", file=err)
    for row in rows:
        print(row, file=err)
    return 1 if any_failed else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "build":
            return cmd_build(args)
        if args.command == "predict":
            return cmd_predict(args)
        if args.command == "verify":
            return cmd_verify(args)
        return cmd_sweep(args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (TraceCodesError, ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
