"""tracecodes benchmark: times the real CLI and traces its layers.

    python3 perfbench/run.py --workload enumerate|verify|sweep|all \
        --seed N --seconds S --trace 0|1 [--quick]

Run from the root of a source checkout; the package is imported from
``src/``. With ``--trace 0`` each job of the workload runs as fresh
``python -m tracecodes`` processes, repeated for ``--seconds``, and the
end-to-end metrics are reported, scaled by an interleaved calibration
probe so that the drifting speed of a shared host cancels out. With
``--trace 1`` the same job runs in this process through
``tracecodes.cli.main``, once untraced and once with every layer
wrapped, and the per-layer metrics are reported. Outputs are checked
outside the timed region (see gate.py). The last line of standard output
is one JSON object: correct, attempted, failed, metrics. See README.md
for the metric-to-workload map.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from gate import Gate  # noqa: E402

clock = time.perf_counter  # CLOCK_MONOTONIC, shared with child processes
PROBES_PER_ROUND = 3
MIN_PROBES = 15
HARD_LIMIT_S = 170  # every run must end within 180 s

SETUP_PROBE = ("import time\n"
               "from tracecodes import cli\n"
               "cli.build_parser()\n"
               "print(repr(time.perf_counter()))\n")

# Fixed work of the same kind as a CLI call: interpreter start, stdlib
# imports, then table building and dict counts as in make_field.  It runs
# with -I, so it cannot import the package and no version of the package
# changes its time.  Sampled through every run, it measures the speed the
# shared host gives at that moment.
CALIBRATION_PROBE = ("import time\n"
                     "import argparse, cmath, concurrent.futures, dataclasses, json, random\n"
                     "p = 20011\n"
                     "table = [0] * p\n"
                     "x = 1\n"
                     "for i in range(p):\n"
                     "    table[i] = x\n"
                     "    x = x * 3 % p\n"
                     "counts = {}\n"
                     "for i in range(p):\n"
                     "    k = table[i * i % p]\n"
                     "    counts[k] = counts.get(k, 0) + 1\n"
                     "print(repr(time.perf_counter()))\n")
# Scaled times read as seconds on a box where the calibration probe takes
# this long; it is about the probe's median on the 2-core box of README.md.
CALIBRATION_S = 0.1


class Bench:
    def __init__(self, seconds: float):
        self.started = clock()
        self.seconds = seconds
        # Bytecode caches on, as for an installed package: the warm-up
        # probe writes them under src/, so set-up time excludes compiling.
        self.env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
        import tracecodes.cli
        import tracecodes.closedform
        self.cli = tracecodes.cli
        self.gate = Gate(tracecodes.closedform)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def remaining(self) -> float:
        return HARD_LIMIT_S - (clock() - self.started)

    def spawn(self, args: list[str]) -> tuple[int, str, float, resource.struct_rusage]:
        """Run one interpreter; kill its whole process group on timeout.
        Returns its exit code, stdout, wall time and resource usage: its
        own and that of the children it reaped, pool workers included."""
        t0 = clock()
        proc = subprocess.Popen([sys.executable] + args, env=self.env, cwd=ROOT,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                text=True, start_new_session=True)
        timer = threading.Timer(max(1.0, self.remaining()), kill_group, (proc.pid,))
        timer.start()
        try:
            err: list[str] = []
            reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
            reader.start()
            out = proc.stdout.read()
            reader.join()
            # wait4 rather than communicate: it returns this child's usage.
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = clock() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        proc.stderr.close()
        if proc.returncode != 0:
            text = err[0].strip() if err else ""
            self.errors.append(text.splitlines()[-1] if text else "")
        return proc.returncode, out, wall, usage

    def record(self, inv, returncode: int, stdout: str) -> None:
        self.attempted += 1
        problems = self.gate.check(inv, returncode, stdout)
        if problems:
            self.failed += 1
            self.errors.append(f"{' '.join(inv.argv)}: {'; '.join(problems)}")

    def probe(self, args: list[str], probes: int) -> list[float]:
        """Spawn-to-last-line times of fresh interpreters running a probe:
        the set-up probe, or the calibration probe."""
        samples = []
        for _ in range(probes):
            t0 = clock()
            rc, out, _, _ = self.spawn(args)
            if rc != 0:
                raise RuntimeError("probe failed")
            samples.append(float(out.strip().splitlines()[-1]) - t0)
        return samples

    # -- end-to-end (trace 0) -------------------------------------------

    def end_to_end(self, job) -> tuple[dict, dict]:
        """Each invocation's median wall and CPU time over the run, summed
        over the job, and the median set-up time; all three scaled by
        CALIBRATION_S / median calibration probe time.  Other tenants of a
        shared host change its speed by up to a third over minutes; the
        calibration probes, interleaved with the job, slow down with it,
        so the scaled times reflect the program, not the moment."""
        self.spawn(["-c", SETUP_PROBE])  # warm-up: writes bytecode caches
        setup: list[float] = []
        calibration: list[float] = []
        walls: list[list[float]] = [[] for _ in job]
        cpus: list[list[float]] = [[] for _ in job]
        peak_mb = 0.0
        deadline = clock() + self.seconds
        while True:
            # Probes spread over the run, so that set-up and job samples
            # meet the same changes of machine speed.
            setup += self.probe(["-c", SETUP_PROBE], PROBES_PER_ROUND)
            calibration += self.probe(["-I", "-c", CALIBRATION_PROBE], PROBES_PER_ROUND)
            outputs = []
            t0 = clock()
            for i, inv in enumerate(job):
                rc, out, w, usage = self.spawn(["-m", "tracecodes", *inv.argv])
                walls[i].append(w)
                cpus[i].append(usage.ru_utime + usage.ru_stime)
                # ru_maxrss: the largest single process of the invocation's
                # tree, pool workers included (KiB on Linux).
                peak_mb = max(peak_mb, usage.ru_maxrss / 1024)
                outputs.append((inv, rc, out))
            round_s = clock() - t0
            for inv, rc, out in outputs:
                self.record(inv, rc, out)
            if clock() + round_s > deadline or self.remaining() < 2 * round_s:
                break
        extra = max(0, MIN_PROBES - len(setup))
        setup += self.probe(["-c", SETUP_PROBE], extra)
        calibration += self.probe(["-I", "-c", CALIBRATION_PROBE], extra)
        scale = CALIBRATION_S / statistics.median(calibration)
        metrics = {
            "wall_s": (scale * sum(map(statistics.median, walls)), "s"),
            "cpu_s": (scale * sum(map(statistics.median, cpus)), "s"),
            "peak_rss_mb": (peak_mb, "MB"),
            "setup_s": (scale * statistics.median(setup), "s"),
        }
        samples = {"wall_s": [sum(r) for r in zip(*walls)],
                   "cpu_s": [sum(r) for r in zip(*cpus)], "setup_s": setup,
                   "calibration_s": calibration}
        return metrics, samples

    # -- per-layer (trace 1) ---------------------------------------------

    def in_process(self, job) -> tuple[float, list]:
        """Run the job through cli.main in this process; return its wall
        and the (invocation, exit code, stdout) of each call."""
        results = []
        wall = 0.0
        for inv in job:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                t0 = clock()
                try:
                    rc = self.cli.main(list(inv.argv))
                except SystemExit as exc:  # argparse rejects bad arguments
                    rc = exc.code if isinstance(exc.code, int) else 2
                except Exception:  # a crash fails this invocation, not the run
                    self.errors.append(traceback.format_exc(limit=3))
                    rc = 1
                wall += clock() - t0
            results.append((inv, rc, out.getvalue()))
        return wall, results

    def per_layer(self, job) -> tuple[dict, dict]:
        import tracer as tr
        rounds = []
        walls, overheads = [], []
        deadline = clock() + self.seconds
        while True:
            untraced, results = self.in_process(job)
            t = tr.Tracer(clock)
            t.install()
            try:
                traced, traced_results = self.in_process(job)
            finally:
                t.uninstall()
            for inv, rc, out in results + traced_results:
                self.record(inv, rc, out)
            m = tr.layer_metrics(t, traced)
            m.update(self.parallel_metrics(t))
            m.update(verdict_metrics(traced_results))
            rounds.append(m)
            walls.append(traced)
            overheads.append(traced - untraced)
            if clock() + 2 * traced > deadline or self.remaining() < 4 * traced:
                break
        counts = tr.count_field_ops(lambda: self.in_process(job))
        metrics = {k: statistics.median(r[k] for r in rounds) for k in rounds[0]}
        metrics["fields.add.calls"] = counts["add"]
        metrics["fields.mul.calls"] = counts["mul"]
        metrics["trace.overhead_s"] = statistics.median(overheads)
        samples = {"trace.wall_s": walls, "trace.overhead_s": overheads}
        return {k: (v, unit_of(k)) for k, v in metrics.items()}, samples

    def parallel_metrics(self, t) -> dict:
        """Serial time of every parallel exhaustive_cwe call of the pass,
        from one extra workers=1 call each, outside the traced wall."""
        codes = sys.modules["tracecodes.codes"]
        if not t.parallel_calls:
            serial = sum(s[2] - s[1] for s in t.spans if s[0] == "codes.exhaustive_cwe")
            return {"codes.exhaustive_cwe.serial_s": serial,
                    "codes.exhaustive_cwe.parallel_speedup": 1.0}
        serial = parallel = 0.0
        for ctx, dset, budget, idx in t.parallel_calls:
            t0 = clock()
            codes.exhaustive_cwe(ctx, dset, budget=budget, workers=1)
            serial += clock() - t0
            parallel += t.spans[idx][2] - t.spans[idx][1]
        t.parallel_calls.clear()
        return {"codes.exhaustive_cwe.serial_s": serial,
                "codes.exhaustive_cwe.parallel_speedup": serial / parallel}

    # -- environment -------------------------------------------------------

    def resolved_workers(self, job) -> list:
        """Worker count the CLI resolves for each invocation, read by
        stopping cmd_* right after cli._resolve_workers returns."""
        original = getattr(self.cli, "_resolve_workers", None)
        if original is None:
            return ["unknown"] * len(job)

        class Resolved(BaseException):
            pass

        def stop(*args, **kwargs):
            raise Resolved(original(*args, **kwargs))

        found = []
        self.cli._resolve_workers = stop
        try:
            for inv in job:
                try:
                    with contextlib.redirect_stdout(io.StringIO()), \
                            contextlib.redirect_stderr(io.StringIO()):
                        self.cli.main(list(inv.argv))
                    found.append("not resolved")
                except Resolved as r:
                    found.append(r.args[0])
        finally:
            self.cli._resolve_workers = original
        return found


def kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:  # ended meanwhile
        pass


def verdict_metrics(results) -> dict:
    verdicts = passed = 0
    for inv, rc, out in results:
        for line in out.splitlines() if inv.command == "sweep" else [out]:
            try:
                doc = json.loads(line)
            except ValueError:
                continue
            for v in doc.get("verification", []):
                verdicts += 1
                passed += bool(v["passed"])
    return {"verification.verdicts": verdicts,
            "verification.passed_ratio": passed / verdicts if verdicts else 1.0}


def unit_of(name: str) -> str:
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    if name.endswith("bytes"):
        return "bytes"
    if name.endswith(("ratio", "speedup", "coverage")):
        return "ratio"
    return "count"


def usable_cores() -> int:
    cores = len(os.sched_getaffinity(0))
    try:
        quota, period = Path("/sys/fs/cgroup/cpu.max").read_text().split()
        if quota != "max":
            cores = min(cores, max(1, -(-int(quota) // int(period))))
    except (OSError, ValueError):
        pass
    return cores


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            path = ROOT / ".git" / name
            if path.exists():
                return path.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
        return ref
    except OSError:
        return "unknown"


def environment(bench: Bench, job, workload: str, seed: int, quick: bool) -> dict:
    cpu_count = os.cpu_count() or 1
    usable = usable_cores()
    return {
        "workload": workload, "seed": seed, "quick": quick,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "os_cpu_count": cpu_count, "usable_cores": usable,
        "oversubscribed": cpu_count > usable,
        "workers_resolved": bench.resolved_workers(job),
        "commit": git_commit(),
        "argv": [" ".join(inv.argv) for inv in job],
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 quick: bool) -> dict:
    job = workloads.make_job(workload, seed, quick)
    bench = Bench(seconds)
    if trace:
        metrics, info = bench.per_layer(job)
    else:
        metrics, info = bench.end_to_end(job)
    env = environment(bench, job, workload, seed, quick)
    print("env " + json.dumps(env, sort_keys=True))
    if env["oversubscribed"]:
        print(f"warning: os.cpu_count()={env['os_cpu_count']} exceeds the "
              f"{env['usable_cores']} usable cores; default worker counts oversubscribe")
    for name, (value, unit) in metrics.items():
        extra = ""
        if name in info:
            xs = info[name]
            extra = (f"  ({len(xs)} unscaled samples: median {statistics.median(xs):.4f}, "
                     f"min {min(xs):.4f}, max {max(xs):.4f})")
        print(f"{workload:10s} {name:44s} {value:12.6g} {unit}{extra}")
    if "calibration_s" in info:
        xs = info["calibration_s"]
        print(f"{workload:10s} {'calibration probe':44s} {statistics.median(xs):12.6g} s"
              f"  ({len(xs)} samples; times above are scaled by {CALIBRATION_S} s / this)")
    print(f"{workload:10s} {'failed_frac':44s} {bench.failed / bench.attempted:12.6g} "
          f"ratio  ({bench.failed} of {bench.attempted} invocations)")
    for error in bench.errors[:10]:
        print(f"error: {error}", file=sys.stderr)
    return {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.FULL, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="tiny (p, m) sizes, for the benchmark's own tests")
    args = ap.parse_args(argv)

    if not (SRC / "tracecodes" / "cli.py").is_file():
        print(f"error: no tracecodes sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tracecodes
    if Path(tracecodes.__file__).resolve().parent != SRC / "tracecodes":
        print(f"error: imported tracecodes from {tracecodes.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    if args.workload == "all":
        # One process per workload, as each is run on its own in the contract.
        status = 0
        for name in workloads.FULL:
            sys.stdout.flush()
            cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            status |= subprocess.run(cmd + ["--quick"] * args.quick).returncode
        return status
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                          args.quick)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
