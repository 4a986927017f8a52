"""Command-line front end.

Subcommands: ``build`` (exhaustive enumeration of one code),
``predict`` (closed forms only, no enumeration), ``verify``
(brute-force versus closed-form comparisons) and ``sweep`` (a grid of
builds with verification, streamed as JSON lines).

Exit codes: 0 success / everything verified, 1 verification mismatch,
2 invalid input, 3 resource budget exceeded, 120 stdout closed by its
reader before the output was written.  Results go to stdout,
diagnostics and timings to stderr.
"""

from __future__ import annotations

import gc
import os
import sys
import time
from collections.abc import Sequence
from types import SimpleNamespace

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
# the status CPython itself exits with when flushing stdout fails at exit
EXIT_BROKEN_PIPE = 120
# enumeration cost below which forking only adds overhead: cold CLI builds
# with two workers (2-core box, Python 3.11) always cost more CPU, and
# break even in wall time between (11,5) at 3.9*10^5, still a loss, and
# (37,4) at 4.8*10^5, a clear gain
_PARALLEL_THRESHOLD = 4 * 10**5


def _int_list(what: str):
    def parse(text: str) -> tuple[int, ...]:
        try:
            return tuple(int(c) for c in text.split(","))
        except ValueError as exc:
            from argparse import ArgumentTypeError
            raise ArgumentTypeError(f"bad {what} {text!r}: {exc}")
    return parse


def _at_least(low: int):
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            from argparse import ArgumentTypeError
            raise ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return parse


def _worker_count(text: str) -> int:
    count = _at_least(1)(text)
    if count > 1 and not hasattr(os, "fork"):
        from argparse import ArgumentTypeError
        raise ArgumentTypeError("more than 1 needs os.fork, which this platform lacks")
    return count


# The command line, described once and read by build_parser and
# _fast_parse.  Each flag is a row (flag, type, default, choices,
# required, help), its dest the flag with dashes as underscores; each
# command has its help line, its flags in help order, and the defaults
# that override its flags' own, as argparse's set_defaults does.
_B = ("--b", int, 1, None, False, "defining trace value (default 1)")
_FIELD = (
    ("--p", int, None, None, True, "odd prime characteristic"),
    ("--m", int, None, None, True, "extension degree"),
    _B,
    ("--format", None, "json", ("json", "text"), False, None),
    ("--modulus", _int_list("modulus"), None, None, False,
     "comma-separated modulus coefficients, low degree first"),
)
_LIMITS = (
    ("--size-cap", int, DEFAULT_SIZE_CAP, None, False, "maximum field size p^m"),
    ("--budget", _at_least(0), codes.DEFAULT_BUDGET, None, False,
     "maximum enumeration cost in symbol evaluations: the orbit representatives walked "
     "(for a set in Tr(x) = b with p not dividing m, those in ker Tr alone, one codeword "
     "per coset of F_p) times, per representative, n, or the bitset walk's "
     "(p - 1) * 2(r - 1)/64 mask words / 20 when fewer; exceeding it exits 3"),
    ("--workers", _worker_count, None, None, False,
     "processes, this one included, that split one enumeration or the pairs of a sweep; "
     "an enumeration uses at most one per two orbit representatives, and a sweep at most "
     "one per pair; more than 1 forks, so it needs os.fork; below an enumeration cost of "
     f"{_PARALLEL_THRESHOLD} symbol evaluations (a sweep's summed over its pairs) any "
     "count runs as 1, as forking costs more than it saves there (default: all usable "
     "cores at or above that cost)"),
)
_COMMANDS = {
    "build": ("enumerate one code exhaustively", (
        *_FIELD, *_LIMITS,
        ("--defining-set", None, "main", ("main", "d1", "d2"), False,
         "main: Tr(x)=b and Tr(x^2)=0; d1: Tr(x)=b; "
         "d2: x nonzero with Tr(x^2)=0, which reads no --b"),
    ), {"b": None}),  # None tells an explicit --b, which d2 rejects
    "predict": ("closed-form prediction, no enumeration", _FIELD, {}),
    # None tells an explicit flag from the default: a scope that never
    # reads --b, --budget, --workers or --samples rejects it
    "verify": ("brute force versus closed forms", (
        *_FIELD, *_LIMITS,
        ("--scope", None, "all", SCOPES, False, None),
        # below 1 no sample is drawn, and the identity would pass vacuously
        ("--samples", _at_least(1), None, None, False,
         f"random quadratics for the exponential-sum identity "
         f"(default {DEFAULT_SAMPLES}; sums and all scopes only)"),
    ), {"b": None, "budget": None}),
    "sweep": ("grid of builds with verification (JSON lines)", (
        _B, *_LIMITS,
        ("--p-list", _int_list("p list"), None, None, True,
         "comma-separated characteristics"),
        ("--m-list", _int_list("m list"), None, None, True,
         "comma-separated extension degrees"),
        ("--compare-defining-set", None, None, ("d1", "d2"), False,
         "also build a single-constraint comparison code"),
    ), {}),
}


def build_parser():
    """The argparse parser of the command line in _COMMANDS.  main()
    needs it only where _fast_parse declines: for help and for errors."""
    import argparse
    parser = argparse.ArgumentParser(
        prog="tracecodes",
        description="Trace-defined linear codes: exhaustive complete weight "
                    "enumerators, closed-form predictions and verification.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (summary, flags, defaults) in _COMMANDS.items():
        sp = sub.add_parser(command, help=summary)
        for flag, convert, default, choices, required, text in flags:
            sp.add_argument(flag, type=convert, default=default, choices=choices,
                            required=required, help=text)
        sp.set_defaults(**defaults)
    return parser


def _fast_parse(argv: Sequence[str]):
    """What build_parser().parse_args(argv) returns, without argparse,
    where argv reads ``<command> (--flag value)*``: each flag of that
    command under its exact name and at most once, each value not
    starting with "-", taken by the flag's type and inside its choices,
    and every required flag given.  None for anything else, which
    argparse parses, so that it alone writes the help and the errors."""
    if len(argv) % 2 == 0 or argv[0] not in _COMMANDS:
        return None
    command = argv[0]
    _, flags, defaults = _COMMANDS[command]
    rows = {row[0]: row for row in flags}
    given = {}
    for flag, text in zip(argv[1::2], argv[2::2]):
        row = rows.get(flag)
        if row is None or flag in given or text.startswith("-"):
            return None
        _, convert, _, choices, _, _ = row
        try:
            value = text if convert is None else convert(text)
        except Exception:  # argparse calls it again and reports the failure
            return None
        if choices is not None and value not in choices:
            return None
        given[flag] = value
    args = SimpleNamespace(command=command)
    for flag, _, default, _, required, _ in flags:
        if required and flag not in given:
            return None
        dest = flag[2:].replace("-", "_")
        setattr(args, dest, given[flag] if flag in given else defaults.get(dest, default))
    return args


def _resolve_workers(args, cost: int) -> int:
    """The processes that split a job of enumeration cost ``cost``: 1
    below _PARALLEL_THRESHOLD or without os.fork, else --workers, or,
    when the flag is not given, the cores this process may run on: its
    CPU affinity where the platform has one, else all cores."""
    if cost < _PARALLEL_THRESHOLD or not hasattr(os, "fork"):
        return 1
    if args.workers:
        return args.workers
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _make_ctx(args):
    return make_field(args.p, args.m, modulus=args.modulus, size_cap=args.size_cap)


def _set_size(p: int, m: int, kind: str, b: int) -> int:
    """|D| of the --defining-set ``kind``, m >= 2 (m > 2 for main), from
    the closed trace-pair counts: no field is built."""
    if kind == "d1":
        return p ** (m - 1)
    if kind == "main":
        return closedform.trace_pair_count_closed(p, m, 0, b)
    return sum(closedform.trace_pair_count_closed(p, m, 0, t) for t in range(p)) - 1


def _check_budget_before_field(p: int, m: int, size_cap: int, kind: str, b: int,
                               budget: int) -> int:
    """Raise BudgetExceededError before any field is built when the
    enumeration would exceed ``budget``, and return its cost,
    codes.enumeration_cost of the set, from p, m and b alone.  A main set
    at m <= 2 keeps its own exit path, build_defining_set's, and counts 0
    here; so does every set at m <= 1, which holds at most one element and
    whose empty-set exits come first."""
    if m <= 1 or kind == "main" and m <= 2:
        return 0
    check_size(p, m, size_cap)
    cost = codes.enumeration_cost(p, m, _set_size(p, m, kind, b), kind != "d2")
    codes.check_budget(cost, budget)
    return cost


def _build_dset(ctx, kind: str, b: int):
    if kind == "main":
        return codes.build_defining_set(ctx, b)
    if kind == "d1":
        return codes.build_defining_set_general(ctx, trace_value=b)
    return codes.build_defining_set_general(ctx, trace_square_value=0, exclude_zero=True)


def _b_vanishes(command: str, b: int, p: int) -> bool:
    """Report and return whether --b is 0 in F_p, where no closed form applies."""
    if b % p:
        return False
    print(f"{command} --b {b} is divisible by p={p}: the closed forms "
          f"need b nonzero in F_{p}", file=sys.stderr)
    return True


def _emit(doc: dict, fmt: str) -> None:
    if fmt == "json":
        print(report.render_json(doc))
    else:
        print(report.render_text(doc))


def cmd_build(args) -> int:
    t0 = time.perf_counter()
    if args.defining_set == "d2" and args.b is not None:
        print("build --defining-set d2 does not read --b", file=sys.stderr)
        return 2
    b = 1 if args.b is None else args.b
    check_characteristic(args.p)
    cost = _check_budget_before_field(args.p, args.m, args.size_cap, args.defining_set, b,
                                      args.budget)
    ctx = _make_ctx(args)
    dset = _build_dset(ctx, args.defining_set, b)
    if not dset.logs:  # with no nonzero element every codeword is zero
        what = "holds only 0" if dset.has_zero else "is empty"
        raise EmptyDefiningSetError(
            f"defining set {{{dset.label}}} {what} over F_{args.p}^{args.m}: no code to build")
    workers = _resolve_workers(args, cost)
    cwe = codes.exhaustive_cwe(ctx, dset, budget=args.budget, workers=workers)
    wd = cwe.weight_distribution()
    doc = report.code_document(
        params=report.params_dict(args.p, args.m, ctx.modulus,
                                  b=None if args.defining_set == "d2" else b, defining_set=dset),
        summary=wd.summary(ctx.p), cwe=cwe, wd=wd)
    _emit(doc, args.format)
    print(f"build p={args.p} m={args.m} cost={cost} workers={workers}: "
          f"{time.perf_counter() - t0:.3f}s", file=sys.stderr)
    return 0


def cmd_predict(args) -> int:
    check_characteristic(args.p)
    if _b_vanishes(args.command, args.b, args.p):
        return 2
    pred = closedform.prediction(args.p, args.m)
    modulus = () if args.modulus is None else check_modulus(args.p, args.m, args.modulus)
    params = report.params_dict(args.p, args.m, modulus, b=args.b)
    params["regime"] = pred.regime
    doc = report.code_document(params=params, summary=pred.summary, cwe=pred.cwe, wd=pred.wd)
    _emit(doc, args.format)
    return 0


def cmd_verify(args) -> int:
    scope = args.scope
    if scope in CODE_SCOPES and args.m <= 2:
        print(f"scope {scope!r} needs extension degree m > 2", file=sys.stderr)
        return 2
    check_characteristic(args.p)
    enumerates = scope in ("counts", "cwe", "griesmer", "all") and args.m > 2
    sums = scope in ("sums", "all")
    for flag, value, read in (("--b", args.b, enumerates), ("--budget", args.budget, enumerates),
                              ("--workers", args.workers, enumerates),
                              ("--samples", args.samples, sums)):
        if value is not None and not read:
            print(f"verify --scope {scope} at m={args.m} does not read {flag}", file=sys.stderr)
            return 2
    b = 1 if args.b is None else args.b
    budget = codes.DEFAULT_BUDGET if args.budget is None else args.budget
    if enumerates and _b_vanishes(args.command, b, args.p):
        return 2
    verdicts: list[verification.Verdict] = []
    t0 = time.perf_counter()
    if enumerates:
        cost = _check_budget_before_field(args.p, args.m, args.size_cap, "main", b, budget)
        workers = _resolve_workers(args, cost)
    ctx = _make_ctx(args)
    if enumerates:
        # one walk of D_b serves the counts, cwe and griesmer checks
        dset = codes.build_defining_set(ctx, b)
        comps = codes.orbit_compositions(ctx, dset, workers)
        cwe = codes.cwe_from_compositions(ctx.p, len(dset), comps,
                                          shift=codes.translation_shift(dset))
    if sums:
        verdicts += verification.verify_gauss_sums(ctx)
        verdicts += verification.verify_quadratic_sums(
            ctx, samples=DEFAULT_SAMPLES if args.samples is None else args.samples)
        verdicts += verification.verify_cyclotomic_numbers(ctx)
    if args.m > 2:
        if scope in ("counts", "all"):
            verdicts += verification.verify_counts(ctx, dset, comps)
        if scope in ("cwe", "all"):
            verdicts += verification.verify_cwe(ctx, cwe=cwe)
        if scope in ("griesmer", "all"):
            verdicts += verification.verify_griesmer(ctx, cwe=cwe)
        if scope in ("equivalence", "all"):
            verdicts += verification.verify_equivalence(ctx)
    doc = {
        "schema_version": report.SCHEMA_VERSION,
        "params": {"p": args.p, "m": args.m, **({"b": b} if enumerates else {}), "scope": scope},
        "verification": [v.as_dict() for v in verdicts],
        "all_passed": all(v.passed for v in verdicts),
    }
    _emit(doc, args.format)
    walked = f" cost={cost} workers={workers}" if enumerates else ""
    print(f"verify p={args.p} m={args.m} scope={scope}{walked}: "
          f"{time.perf_counter() - t0:.3f}s", file=sys.stderr)
    return verification.exit_code_for(verdicts)


def _sweep_pair(args, p: int, m: int) -> tuple[dict, bool]:
    ctx = make_field(p, m, size_cap=args.size_cap)
    dset = codes.build_defining_set(ctx, args.b)
    cwe = codes.exhaustive_cwe(ctx, dset, budget=args.budget)
    wd = cwe.weight_distribution()
    verdicts = verification.verify_cwe(ctx, cwe, wd)
    doc = report.code_document(
        params=report.params_dict(p, m, ctx.modulus, b=args.b, defining_set=dset),
        summary=wd.summary(p), cwe=cwe, wd=wd,
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
    # at m <= 2 the main set fails before the comparison set is built
    compare = args.compare_defining_set and m > 2
    kinds = ["main"] + ([args.compare_defining_set] if compare else [])
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


def cmd_sweep(args) -> int:
    for p in args.p_list:
        if p > 1 and _b_vanishes(args.command, args.b, p):
            return 2
    pairs = [(p, m) for p in args.p_list for m in args.m_list]
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
            print(f"sweep pair ({p},{m}): {error}", file=sys.stderr)
            any_failed = True
            continue
        any_failed = any_failed or not ok
        print(report.render_json(doc, compact=True))
        s = doc["summary"]
        tags = report.optimality_tags(s)
        rows.append(f"  p={p} m={m}: [{s['n']},{s['k']},{s['d']}] "
                    f"{' '.join(tags) if tags else '-'}")
    print("sweep summary:", file=sys.stderr)
    for row in rows:
        print(row, file=sys.stderr)
    return 1 if any_failed else 0


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _fast_parse(argv)
    if args is None:
        args = build_parser().parse_args(argv)
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


def run() -> int:
    """The console entry point: :func:`main`'s exit code.  The cyclic
    collector is off for the whole call, since one short command frees
    what it builds by reference counting and its young-generation passes
    only cost time; at exit every object left alive is frozen into the
    permanent generation, so that interpreter shutdown does not walk and
    free each module's reference cycles.  ``atexit`` handlers still run.
    :func:`main` itself leaves the collector alone, as callers that stay
    alive after it returns, tests and benchmarks among them, still want it.

    A reader that closes stdout early, such as ``head``, ends the call
    with EXIT_BROKEN_PIPE and no traceback: stdout is pointed at
    ``os.devnull``, so that the exit-time flush of what is left in its
    buffer has nowhere to fail."""
    gc.disable()
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_BROKEN_PIPE
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
