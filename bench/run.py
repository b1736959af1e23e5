"""heyde benchmark: seeded workloads driven through heyde's public entry points.

    python3 bench/run.py --workload sym-ladder --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30     # every workload, one table
    python3 bench/run.py --workload all --seed 1 --smoke          # one untimed round each

Run from anywhere; the repository root is the parent of this directory and
heyde is imported from its `src/`.  The last stdout line is one JSON object
with `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
with `--trace 0`, the per-layer metrics with `--trace 1`.  See README.md.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import io
import json
import os
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from collections import defaultdict
from fractions import Fraction
from pathlib import Path
from time import monotonic, perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "golden"
WORK = ROOT / ".bench_work"

SETUP_LAUNCHES = 15  # spread evenly over a timed run, one at a time
IMPORTTIME_LAUNCHES = 5
CAP_MARGIN_S = 60  # a run stops this long after --seconds, unfinished ops failed
TRACE_CAP_S = 150  # the traced run's three passes together

# Host-speed correction (see HostClock): a reference sample at least this
# often between ops, this many samples on each side of an op set its speed,
# this reference time defines one corrected second, and op times follow the
# reference speed to this power.
CAL_INTERVAL_S = 0.25
CAL_NEIGHBOURS = 2
REF_NOMINAL_S = 0.003
ELASTICITY = 0.7
# Set-up is corrected the same way by a reference launch made next to each
# timed one: a fresh interpreter importing mpmath and the standard modules
# heyde uses, but no heyde code.
REF_LAUNCH_CODE = ("import mpmath, argparse, dataclasses, fractions, json, time, sys; "
                   "sys.stdout.write(repr(time.monotonic()))")
REF_LAUNCH_NOMINAL_S = 0.1

END_TO_END_UNITS = {
    "setup_s": "s",
    "instances_per_s": "1/s",
    "call_p50_s": "s",
    "call_p90_s": "s",
    "peak_rss_mb": "MB",
}


class RunTimeout(BaseException):
    """Raised by the run guard's timer; not an Exception, so heyde cannot catch it."""


def _on_alarm(signum, frame):
    raise RunTimeout()


def reference_kernel() -> int:
    """Fixed pure-Python work like heyde's inner loops: Fraction arithmetic
    and dict updates keyed by residue tuples.  2-3 ms on a shared 2 GHz
    x86-64 core."""
    table: dict = {}
    total = Fraction(0)
    for i in range(1, 300):
        x = (i % 9, i % 5, i % 7)
        y = ((2 * x[0] + 1) % 9, (x[1] + 3) % 5, (4 * x[2]) % 7)
        mass = Fraction(i % 13 + 1, i % 11 + 2)
        table[y] = table.get(y, 0) + mass
        total += mass * mass
    return len(table) + total.denominator % 2


class HostClock:
    """Reference-kernel timings taken between ops, to correct op times for
    host speed.

    A shared host can change speed by up to 2x within tens of seconds, and
    every op slows with it.  Each op time is multiplied by
    (REF_NOMINAL_S / r) ** ELASTICITY, where r is the median of the
    reference samples nearest to the op (CAL_NEIGHBOURS before,
    CAL_NEIGHBOURS after).  heyde's ops follow the kernel's speed only in
    part: over repeated runs of identical inputs, the full correction
    (elasticity 1) overshot, and 0.7 left the least spread (see README.md).
    The raw times are printed beside the corrected ones.  Set-up times do
    not follow the kernel; they are corrected by REF_LAUNCH_CODE instead.
    """

    def __init__(self):
        self.stamps: list[float] = []
        self.samples: list[float] = []

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            gc.disable()  # a collection of heyde's garbage is not host speed
            reference_kernel()  # warm-up: the first pass after an op runs cold
            started = perf_counter()
            reference_kernel()
            ended = perf_counter()
            gc.enable()
            self.stamps.append(ended)
            self.samples.append(ended - started)

    def maybe_sample(self) -> None:
        if not self.stamps or perf_counter() - self.stamps[-1] >= CAL_INTERVAL_S:
            self.sample()

    def scale(self, start: float, end: float) -> float:
        lo = bisect.bisect_left(self.stamps, start)
        hi = bisect.bisect_right(self.stamps, end)
        window = self.samples[max(0, lo - CAL_NEIGHBOURS):lo] + self.samples[hi:hi + CAL_NEIGHBOURS]
        return (REF_NOMINAL_S / statistics.median(window)) ** ELASTICITY


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


SETUP_CODE = "import heyde.cli, time, sys; sys.stdout.write(repr(time.monotonic()))"


def launch(code: str) -> float:
    """Seconds from launching a fresh interpreter until `code` has run its
    imports.

    The child prints its CLOCK_MONOTONIC reading right after them; the
    parent read the same clock just before the launch, and waits for the
    child to end.
    """
    started = monotonic()
    done = subprocess.run([sys.executable, "-c", code], env=_child_env(), cwd=ROOT,
                          capture_output=True, text=True, timeout=60, check=True)
    return float(done.stdout) - started


def launch_setup() -> tuple[float, float]:
    """One timed set-up launch of heyde.cli and one reference launch."""
    return launch(SETUP_CODE), launch(REF_LAUNCH_CODE)


def measure_importtime(launches: int) -> dict[str, float]:
    """Cumulative import time of heyde (package plus heyde.cli) and of mpmath."""
    samples = defaultdict(list)
    for _ in range(launches):
        done = subprocess.run([sys.executable, "-X", "importtime", "-c", "import heyde.cli"],
                              env=_child_env(), cwd=ROOT, capture_output=True, text=True,
                              timeout=60, check=True)
        cumulative = {}
        for line in done.stderr.splitlines():
            match = re.match(r"import time:\s+\d+ \|\s+(\d+) \|(\s*)(\S+)", line)
            if match:
                cumulative[match.group(3)] = int(match.group(1)) / 1e6
        samples["import.heyde_s"].append(cumulative["heyde"] + cumulative.get("heyde.cli", 0.0))
        samples["import.mpmath_s"].append(cumulative["mpmath"])
    return {name: statistics.median(values) for name, values in samples.items()}


class Runner:
    """Runs ops in this process and keeps per-op latency, failures and composition."""

    def __init__(self):
        import heyde.cli  # noqa: F401  (bound at call time, so the tracer can rebind it)

        self.cli = sys.modules["heyde.cli"]
        self.latencies: list[float] = []
        self.starts: list[float] = []
        self.op_time = 0.0
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.in_flight = None
        self.composition = defaultdict(lambda: {"ops": 0, "instances": 0, "pairs": 0, "symmetric": 0,
                                                "support": [None, None]})

    def fail_unfinished(self, ops) -> None:
        """Count the op the run guard interrupted and every op not started as failed."""
        if self.in_flight is not None:
            self.fail(self.in_flight, "stopped by the run guard")
        for op in ops:
            self.attempted += 1
            self.fail(op, "not started: run guard")
        self.in_flight = None

    def fail(self, op, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(f"{op.kind} {op.rung} {' '.join(op.argv or [])}: {message}")

    def run(self, op, timed: bool = True) -> float:
        """Run and check one op; return its latency.  RunTimeout propagates
        with the op left in `in_flight` for fail_unfinished."""
        self.in_flight = op
        self.attempted += 1
        elapsed = self._run(op, timed)
        self.in_flight = None
        return elapsed

    def _run(self, op, timed: bool) -> float:
        out = io.StringIO()
        started = perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                started = perf_counter()
                if op.call is not None:
                    code = op.call()
                else:
                    code = self.cli.main(op.argv)
                elapsed = perf_counter() - started
        except SystemExit as exc:  # argparse rejected the arguments
            elapsed = perf_counter() - started
            code = exc.code
        except Exception as exc:  # an op that raises is a failed op; keep running
            elapsed = perf_counter() - started
            self._record(op, started, elapsed, timed)
            self.fail(op, f"raised {type(exc).__name__}: {exc}")
            return elapsed
        self._record(op, started, elapsed, timed)
        try:
            result = op.check(code, out.getvalue())
        except Exception as exc:  # malformed output
            self.fail(op, f"unreadable output ({type(exc).__name__}: {exc})")
            return elapsed
        if result.error:
            self.fail(op, result.error)
        elif timed:
            entry = self.composition[op.rung]
            entry["instances"] += result.instances
            entry["pairs"] += result.pairs
            entry["symmetric"] += result.symmetric
        return elapsed

    def _record(self, op, started: float, elapsed: float, timed: bool) -> None:
        if not timed:
            return
        self.starts.append(started)
        self.latencies.append(elapsed)
        self.op_time += elapsed
        entry = self.composition[op.rung]
        entry["ops"] += 1
        lo, hi = entry["support"]
        entry["support"] = [op.support[0] if lo is None else min(lo, op.support[0]),
                            op.support[1] if hi is None else max(hi, op.support[1])]

    def instances(self) -> int:
        return sum(entry["instances"] for entry in self.composition.values())

    def composition_report(self) -> dict:
        report = {}
        for rung, entry in sorted(self.composition.items()):
            pairs = entry["pairs"]
            report[rung] = {
                "ops": entry["ops"],
                "instances": entry["instances"],
                "support": entry["support"],
                "symmetric_share": entry["symmetric"] / pairs if pairs else None,
                "early_exit_share": (pairs - entry["symmetric"]) / pairs if pairs else None,
            }
        pairs = sum(e["pairs"] for e in self.composition.values())
        symmetric = sum(e["symmetric"] for e in self.composition.values())
        report["all"] = {
            "ops": len(self.latencies),
            "instances": self.instances(),
            "symmetric_share": symmetric / pairs if pairs else None,
            "early_exit_share": (pairs - symmetric) / pairs if pairs else None,
        }
        return report


def _arm(seconds: float) -> None:
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, max(seconds, 0.001))


def _disarm() -> None:
    signal.setitimer(signal.ITIMER_REAL, 0)


def replay_golden(runner: Runner) -> None:
    import workloads

    for op in workloads.golden_ops(GOLDEN):
        runner.run(op, timed=False)


def timed_run(workload: str, seed: int, seconds: float, work: Path, runner: Runner,
              clock: HostClock | None = None, setup: list | None = None, max_rounds=None) -> int:
    """Start whole rounds until `seconds` have passed; return the rounds run.

    With a clock, take reference samples between ops and after the last.
    With a setup list, append SETUP_LAUNCHES (set-up, reference) launch
    pairs to it, launched between ops at even intervals through the run, so
    that their medians cover the same stretch of host time as the ops.
    """
    import workloads

    make_round = workloads.WORKLOADS[workload]
    cache: dict = {}
    gc.collect()
    if clock:
        # Keep what exists now (modules, golden replay) out of every later
        # collection, so the collection before each op below costs little.
        gc.freeze()
    started = perf_counter()
    rounds = 0
    pending: list = []
    if clock:
        clock.sample(CAL_NEIGHBOURS)
    if setup is not None:
        launch_setup()  # warm-up: every timed launch finds compiled bytecode
    _arm(seconds + CAP_MARGIN_S)
    try:
        while (rounds == 0 or perf_counter() - started < seconds) and rounds != max_rounds:
            round_dir = work / f"round-{rounds}"
            round_dir.mkdir(parents=True)
            pending = make_round(seed, rounds, round_dir, cache)
            while pending:
                if setup is not None and len(setup) < SETUP_LAUNCHES * min(
                        1.0, (perf_counter() - started) / max(seconds, 1e-9)):
                    setup.append(launch_setup())
                if clock:
                    # every op starts from a collected heap, so the cyclic
                    # collections inside it do not depend on earlier ops
                    gc.collect()
                    clock.maybe_sample()
                runner.run(pending.pop(0))
            shutil.rmtree(round_dir)
            rounds += 1
    except RunTimeout:
        runner.fail_unfinished(pending)
        rounds += 1
    finally:
        _disarm()
        gc.unfreeze()
    if clock:
        clock.sample(CAL_NEIGHBOURS)
    while setup is not None and len(setup) < SETUP_LAUNCHES:
        setup.append(launch_setup())
    return rounds


def traced_run(workload: str, seed: int, work: Path, runner: Runner):
    """Round 0 once untraced, then twice traced; returns the three op times and
    the two tracers, or None when the run guard stopped it."""
    import tracing
    import workloads

    ops = workloads.WORKLOADS[workload](seed, 0, work, {})
    pending = ops * 3
    times, tracers = [], []
    _arm(TRACE_CAP_S)
    try:
        for pass_index in range(3):
            tracer = tracing.Tracer(keep_spans=pass_index == 1) if pass_index else None
            total = 0.0
            if tracer:
                tracer.install()
            try:
                for index in range(len(ops)):
                    if tracer:
                        tracer.op = index
                    total += runner.run(pending.pop(0), timed=pass_index == 0)
            finally:
                if tracer:
                    tracer.uninstall()
            times.append(total)
            tracers.append(tracer)
    except RunTimeout:
        runner.fail_unfinished(pending)
        return None
    finally:
        _disarm()
    return times, tracers


def _quantile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated (statistics.quantiles, inclusive)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _emit(correct: bool, runner: Runner, metrics: dict, units: dict) -> None:
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))


def run_workload(args) -> int:
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)} or all")
    work = WORK / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    work.mkdir(parents=True)
    try:
        runner = Runner()
        replay_golden(runner)
        if args.smoke:
            rounds = timed_run(args.workload, args.seed, 0.0, work, runner, max_rounds=1)
            print(f"SMOKE {args.workload}: rounds={rounds} attempted={runner.attempted} "
                  f"failed={runner.failed}")
            for line in runner.failures:
                print(f"  FAIL {line}")
            print(json.dumps({"composition": runner.composition_report()}))
            return 0 if runner.failed == 0 else 1
        if args.trace:
            return _report_trace(args, work, runner)
        return _report_timed(args, work, runner)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _report_timed(args, work: Path, runner: Runner) -> int:
    import workloads

    clock = HostClock()
    setup: list[tuple[float, float]] = []
    rounds = timed_run(args.workload, args.seed, args.seconds, work, runner, clock, setup)
    raw = runner.latencies
    lat = [t * clock.scale(s, s + t) for s, t in zip(runner.starts, raw)]
    setup_raw = statistics.median(t for t, _ in setup)
    ref_launch = statistics.median(r for _, r in setup)
    metrics = {
        "setup_s": setup_raw * (REF_LAUNCH_NOMINAL_S / ref_launch) ** ELASTICITY,
        "instances_per_s": runner.instances() / sum(lat) if lat else 0.0,
        "call_p50_s": statistics.median(lat) if lat else 0.0,
        "call_p90_s": _quantile(lat, 90) if lat else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    uncorrected = dict(metrics)
    uncorrected.update({
        "setup_s": setup_raw,
        "instances_per_s": runner.instances() / runner.op_time if runner.op_time else 0.0,
        "call_p50_s": statistics.median(raw) if raw else 0.0,
        "call_p90_s": _quantile(raw, 90) if raw else 0.0,
    })
    speeds = [REF_NOMINAL_S / t for t in clock.samples]
    failed_frac = runner.failed / runner.attempted
    print(f"{args.workload} seed={args.seed}: {rounds} rounds, {len(lat)} timed ops, "
          f"{runner.instances()} instances, {runner.op_time:.3f} s op time; host speed "
          f"{min(speeds):.2f}..{max(speeds):.2f} (median {statistics.median(speeds):.2f}) "
          f"of nominal over {len(speeds)} reference samples")
    print(f"  {'metric':16} {'value':>12} {'unit':4} {'uncorrected':>12}")
    for name, unit in END_TO_END_UNITS.items():
        note = {"setup_s": f"median of {len(setup)} launches; reference launch {ref_launch:.4f} s",
                "call_p50_s": f"n={len(lat)}", "call_p90_s": f"n={len(lat)}, {len(lat) // 10} beyond"}
        print(f"  {name:16} {metrics[name]:12.6g} {unit:4} {uncorrected[name]:12.6g} {note.get(name, '')}")
    print(f"  {'failed_frac':16} {failed_frac:12.6g} {'':4} {runner.failed}/{runner.attempted} "
          f"ops (including {len(workloads.GOLDEN)} golden replays)")
    for line in runner.failures:
        print(f"  FAIL {line}")
    print(json.dumps({"workload": args.workload, "seed": args.seed, "rounds": rounds,
                      "failed_frac": failed_frac, "composition": runner.composition_report()}))
    _emit(runner.failed == 0, runner, metrics, END_TO_END_UNITS)
    return 0


def _report_trace(args, work: Path, runner: Runner) -> int:
    imports = measure_importtime(IMPORTTIME_LAUNCHES)
    passes = traced_run(args.workload, args.seed, work, runner)
    units = layer_units()
    if passes is None:
        metrics = {name: 0.0 for name in units}
        correct = False
    else:
        (untraced, traced, _), (_, first, second) = passes
        metrics = first.layer_metrics()
        metrics.update(imports)
        metrics["trace.overhead_frac"] = traced / untraced - 1 if untraced else 0.0
        repeat = second.layer_metrics()
        deterministic = [name for name, unit in units.items()
                         if unit == "count" or name.startswith("engine.equation.")]
        drift = [name for name in deterministic if metrics[name] != repeat[name]]
        correct = runner.failed == 0 and not drift
        first.write(WORK / "trace" / f"{args.workload}-s{args.seed}")
        print(f"{args.workload} seed={args.seed}: traced round 0 ({len(runner.latencies)} ops): "
              f"untraced {untraced:.3f} s, traced {traced:.3f} s; "
              f"equation bases {first.equation_bases()}")
        print(f"  trace self-check: {len(deterministic)} counts and ratios "
              + ("repeat exactly" if not drift else f"DRIFT in {drift}"))
    for line in runner.failures:
        print(f"  FAIL {line}")
    _emit(correct, runner, metrics, units)
    return 0


def layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in BENCHMARK.json order."""
    path = ROOT / "BENCHMARK.json"
    return {m["name"]: m["unit"] for m in json.loads(path.read_text(encoding="utf-8"))["per_layer"]}


def run_all(args) -> int:
    """Each workload in its own process, one after another, then one table."""
    import workloads

    rows = []
    ok = True
    for name in workloads.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        done = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        ok = ok and done.returncode == 0
        if not args.smoke and done.returncode == 0:
            rows.append((name, json.loads(done.stdout.strip().splitlines()[-1])))
    if rows and not args.trace:
        print(f"{'metric':16} {'unit':5} " + " ".join(f"{name:>14}" for name, _ in rows))
        for metric, unit in END_TO_END_UNITS.items():
            print(f"{metric:16} {unit:5} " + " ".join(f"{r['metrics'][metric]['value']:14.6g}" for _, r in rows))
        print(f"{'failed_frac':16} {'':5} " + " ".join(f"{r['failed'] / r['attempted']:14.6g}" for _, r in rows))
        ok = ok and all(r["correct"] for _, r in rows)
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, help="sym-ladder, random-sweep, lemma-checks or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0, help="how long to keep starting rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one untimed round, correctness only")
    args = parser.parse_args()
    if not (SRC / "heyde" / "cli.py").is_file() or not GOLDEN.is_dir():
        print(f"heyde sources not found under {ROOT}: run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import heyde

    if not Path(heyde.__file__).resolve().is_relative_to(SRC):
        print(f"imported heyde from {heyde.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
