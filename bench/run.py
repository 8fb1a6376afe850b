"""Benchmark harness for limitlearn (standard library only).

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all      # every workload, default seed

Run from anywhere inside a checkout; the library is imported from the
checkout's ``src/`` and nowhere else.  One process, one thread, closed loop:
each op starts when the previous one has returned.

Untraced run (``--trace 0``): the workload's op list is run pass after pass,
until ``--seconds`` have gone and at least MIN_PASSES passes are done.  An
op's time is the median of its times over the passes, and the throughput
and percentiles are taken over those per-op medians.  Every pass checks
every op and must reproduce the first pass's records byte for byte; at the
default seed the records' digest must match the one stored in
``bench/workloads.json``.  Set-up (a fresh import of the package plus input
generation) is timed once before the first pass and then every
SETUP_EVERY_S between ops; ``setup_s`` is the median.

Host speed.  On a shared host the speed of the same code drifts by up to
half for tens of seconds at a time while other tenants load the cores.  A
fixed pure-Python reference kernel is timed between ops every
PROBE_EVERY_S, and every reported time is scaled by (REFERENCE_S over the
kernel's median time in the run) to the power HOST_ELASTICITY: the figures
are times at the host speed at which the kernel takes REFERENCE_S.  The
unscaled figures and the scale are printed above the result line.

Traced run (``--trace 1``): one untraced pass, then set-up and one pass with
the layers' public entry points wrapped (see spans.py).  It reports the
per-layer numbers, cross-checks span counts against the ops' outputs, and
gives the tracing overhead as traced pass time over untraced pass time.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
import types
from pathlib import Path

import spans
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
PACKAGE = "limitlearn"
LAYERS = ("words", "formulas", "relations", "learners", "simulation", "adversary", "sampling")

MIN_PASSES = 3
SETUP_EVERY_S = 2.0
MAX_REPORTED_FAILURES = 5
PROBE_EVERY_S = 0.05
# Nominal reference-kernel time: scaled figures are times at the host speed
# at which the kernel takes this long, about that of a lightly loaded 2-core
# Xeon host running Python 3.11.
REFERENCE_S = 0.0005
# The library's ops slow by about this power of the kernel's slowdown: the
# least-squares slope of log op speed on log kernel speed over 3 s windows of
# a 120 s adversary-search run on that host was 0.72.  The tight kernel loop
# feels a loaded neighbour core more than the library's code does.
HOST_ELASTICITY = 0.7


def reference_kernel():
    """Fixed pure-Python work of the interpreter's everyday kinds."""
    table = {}
    total = 0
    for i in range(2000):
        key = (i & 63, i % 7)
        table[key] = table.get(key, 0) + i
        total += len(key)
    return total


class HostSampler:
    """Between ops, times the reference kernel every PROBE_EVERY_S and a
    set-up round every SETUP_EVERY_S, so both sample the whole run."""

    def __init__(self, set_up):
        self._set_up = set_up
        self.kernel_s = []
        self.setup_s = []
        self._next_kernel = time.perf_counter()
        self._next_setup = self._next_kernel + SETUP_EVERY_S

    def set_up(self):
        gc.collect()  # free the previous round's modules outside the timed region
        start = time.perf_counter()
        ops = self._set_up()
        self.setup_s.append(time.perf_counter() - start)
        return ops

    def __call__(self):
        now = time.perf_counter()
        if now >= self._next_kernel:
            reference_kernel()
            done = time.perf_counter()
            self.kernel_s.append(done - now)
            self._next_kernel = done + PROBE_EVERY_S
        if now >= self._next_setup:
            self.set_up()
            self._next_setup = time.perf_counter() + SETUP_EVERY_S


class Failures:
    """Failed checks of one run; each counts toward error_rate, none aborts it."""

    def __init__(self):
        self.count = 0

    def add(self, message: str):
        self.count += 1
        if self.count <= MAX_REPORTED_FAILURES:
            print(f"FAILED: {message}", file=sys.stderr)


def package_modules() -> dict:
    return {name: mod for name, mod in sys.modules.items()
            if name == PACKAGE or name.startswith(PACKAGE + ".")}


def load_library():
    """Import the package afresh from the checkout's src/ and return its layers."""
    for name in package_modules():
        del sys.modules[name]
    pkg = importlib.import_module(PACKAGE)
    where = Path(pkg.__file__).resolve().parent
    if where != (SRC / PACKAGE).resolve():
        raise RuntimeError(f"{PACKAGE} imported from {where}, not from {SRC}")
    return types.SimpleNamespace(**{m: importlib.import_module(f"{PACKAGE}.{m}") for m in LAYERS})


def run_pass(ops, failures: Failures, between=None):
    """Run every op once, calling between() after each; return per-op times,
    records and expected counts."""
    clock = time.perf_counter
    times, records, expects = [], [], []
    for i, op in enumerate(ops):
        start = clock()
        try:
            record, expect = op()
        except Exception as exc:  # any op failure is counted, never fatal
            record, expect = f"FAILED {type(exc).__name__}", {"sessions": 0, "replays": 0}
            failures.add(f"op {i}: {type(exc).__name__}: {exc}")
            if failures.count <= MAX_REPORTED_FAILURES and not isinstance(exc, workloads.OpFailed):
                traceback.print_exc(limit=4)
        times.append(clock() - start)
        records.append(record)
        expects.append(expect)
        if between:
            between()
    return times, records, expects


def compare_records(first, again, failures: Failures, label: str):
    for i, (a, b) in enumerate(zip(first, again)):
        if a != b:
            failures.add(f"op {i} record differs on {label}: {b!r} != {a!r}")


def check_digest(name: str, seed: int, records, failures: Failures):
    spec = json.loads((BENCH_DIR / "workloads.json").read_text())
    digest = hashlib.sha256("\n".join(records).encode()).hexdigest()
    stored = spec["workloads"][name]["records_sha256"]
    if seed != spec["default_seed"]:
        print(f"records sha256={digest} (no stored digest for seed {seed})")
    elif digest == stored:
        print(f"records sha256={digest} matches the stored digest for seed {seed}")
    else:
        failures.add(f"records sha256 {digest} != stored {stored} at seed {seed}")


def measure(name: str, build, seed: int, seconds: float, failures: Failures):
    sampler = HostSampler(lambda: build(load_library(), seed))
    ops = sampler.set_up()
    passes, pass_s, first_records = [], [], None
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        times, records, _ = run_pass(ops, failures, sampler)
        pass_s.append(time.perf_counter() - t0)
        passes.append(times)
        if first_records is None:
            first_records = records
            check_digest(name, seed, records, failures)
        else:
            compare_records(first_records, records, failures, f"pass {len(passes)}")
        elapsed = time.perf_counter() - start
        if len(passes) >= MIN_PASSES and elapsed + statistics.mean(pass_s) > seconds:
            break

    attempted = len(ops) * len(passes)
    per_op = [statistics.median(ts) for ts in zip(*passes)]
    n = len(per_op)
    reference = statistics.median(sampler.kernel_s)
    scale = (REFERENCE_S / reference) ** HOST_ELASTICITY
    print(f"ops={n} passes={len(passes)} pass_s={','.join(f'{s:.3f}' for s in pass_s)} "
          f"setup_rounds={len(sampler.setup_s)}")
    print(f"op times: median of {len(passes)} passes per op; "
          f"p50 and p90 over {n} ops ({n // 10} above p90)")
    print(f"host: reference kernel median {reference * 1e3:.4f} ms over {len(sampler.kernel_s)} "
          f"samples; times scaled by {scale:.4f}")
    raw = {
        "setup_s": (statistics.median(sampler.setup_s), "s"),
        "ops_per_s": (n / sum(per_op), "1/s"),
        "op_p50_ms": (statistics.median(per_op) * 1e3, "ms"),
        "op_p90_ms": (statistics.quantiles(per_op, n=10)[8] * 1e3, "ms"),
    }
    for metric, (value, unit) in raw.items():
        print(f"unscaled {metric} = {value} {unit}")
    metrics = {metric: (value / scale if unit == "1/s" else value * scale, unit)
               for metric, (value, unit) in raw.items()}
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics["peak_rss_mib"] = (peak_kib / 1024, "MiB")
    metrics["ok_ratio"] = (1 - min(failures.count, attempted) / attempted, "ratio")
    return metrics, attempted


def measure_traced(name: str, build, seed: int, failures: Failures):
    lib = load_library()
    ops = build(lib, seed)
    start = time.perf_counter()
    _, records, _ = run_pass(ops, failures)
    untraced_s = time.perf_counter() - start
    check_digest(name, seed, records, failures)

    tracer = spans.Tracer()
    spans.install(tracer, lib, package_modules().values())
    start = time.perf_counter()
    ops = build(lib, seed)
    setup_traced_s = time.perf_counter() - start
    start = time.perf_counter()
    _, traced_records, expects = run_pass(ops, failures)
    traced_s = time.perf_counter() - start
    compare_records(records, traced_records, failures, "the traced pass")

    sessions = sum(e["sessions"] for e in expects)
    replays = sum(e["replays"] for e in expects)
    for problem in spans.cross_check(tracer, sessions, replays):
        failures.add(f"cross-check: {problem}")
    print(f"cross-check run_session spans={tracer.calls('simulation.run_session')} "
          f"sessions={sessions} replays={replays}")

    table = spans.layer_metrics(tracer)
    for metric, (value, unit) in table.items():
        print(f"layer {metric} = {value} {unit}")
    print(f"trace untraced_pass_s={untraced_s} traced_pass_s={traced_s} "
          f"traced_setup_s={setup_traced_s}")
    table["trace.overhead"] = (traced_s / untraced_s, "x")
    return table, 2 * len(ops)


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((SRC / PACKAGE).glob("*.py")))


def run_all(seed: int, seconds: int, trace: int) -> int:
    status = 0
    for name in workloads.WORKLOADS:
        print(f"== {name}", flush=True)
        done = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name,
                               "--seed", str(seed), "--seconds", str(seconds),
                               "--trace", str(trace)], check=False)
        status = max(status, done.returncode)
    return status


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = json.loads((BENCH_DIR / "workloads.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=spec["default_seed"])
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"error: no {PACKAGE} package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    sys.path.insert(0, str(SRC))
    # set-up times imports from the bytecode cache, as an installed package imports
    sys.dont_write_bytecode = False

    print(f"meta workload={args.workload} seed={args.seed} trace={args.trace} "
          f"git_sha={git_sha()} python={platform.python_version()} nproc={os.cpu_count()} "
          f"src_lines={src_lines()}")
    failures = Failures()
    build = workloads.WORKLOADS[args.workload]
    if args.trace:
        table, attempted = measure_traced(args.workload, build, args.seed, failures)
        # the JSON line carries the per-layer numbers BENCHMARK.json names
        metrics = {m["name"]: table[m["name"]] for m in bench["per_layer"]}
    else:
        metrics, attempted = measure(args.workload, build, args.seed, args.seconds, failures)
        for metric, (value, unit) in metrics.items():
            print(f"metric {metric} = {value} {unit}")
    failed = min(failures.count, attempted)
    print(f"error_rate = {failed / attempted} (failed {failed} of {attempted} attempted)")
    result = {
        "correct": failures.count == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
