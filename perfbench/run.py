"""sheafcalc benchmark: one workload per run, closed loop, one process.

    python3 perfbench/run.py --workload grid-cohomology --seed 1 \\
        --seconds 25 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.
Setup (import, input generation, fixture files) is repeated and timed
before the loop.  The loop then replays the workload's fixed job list,
one operation at a time, round after round, until ``--seconds`` is used
up (at least ``MIN_ROUNDS`` rounds).  Each operation is one public call
or one CLI invocation; its answer is checked after its timed interval.

``--trace 0`` prints the end-to-end metrics, measured with no wrappers
installed.  ``--trace 1`` alternates untraced rounds with rounds that
have span wrappers installed, prints the per-layer metrics and writes
the spans of the first traced round as JSON lines to ``perfbench/work``.

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it carries
the environment, the failing operations and how each figure was taken.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from common import ROOT, SRC, Lib

WORKLOADS = ("grid-cohomology", "lattice-sweep", "cli-batch")
SETUP_REPEATS = 5
STARTUP_REPEATS = 5
WORKDIR = ROOT / "perfbench" / "work"


def _workload_module(name):
    if name == "grid-cohomology":
        import grid as module
    elif name == "lattice-sweep":
        import lattice as module
    else:
        import clibatch as module
    return module


def _cpu_seconds():
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def _cpu_reference():
    """Fixed pure-Python work in the style of the library: exact
    fractions, small frozensets, dict updates."""
    acc = Fraction(0)
    table = {}
    for i in range(1, 5000):
        acc += Fraction(i % 7 + 1, i % 5 + 2)
        key = frozenset((i % 13, i % 11, i % 7))
        table[key] = table.get(key, 0) + 1
    return acc, len(table)


_PROCESS_REFERENCE_CODE = (
    "import argparse, dataclasses, json, pathlib\n"
    "from fractions import Fraction\n"
    "acc = Fraction(0)\n"
    "for i in range(1, 1500):\n"
    "    acc += Fraction(i % 7 + 1, i % 5 + 2)\n")


def _process_reference():
    """A fresh interpreter that imports what a CLI call imports from the
    standard library and does a little exact arithmetic."""
    subprocess.run([sys.executable, "-c", _PROCESS_REFERENCE_CODE], check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)


class Reference:
    """The speed yardstick interleaved with the work.

    On a shared virtual machine one core's speed can drift by tens of
    percent within seconds, the same way for the library and for fixed
    reference work.  So every timed
    figure is scaled by ``nominal / measured`` for the reference runs
    around it, giving seconds at a fixed reference speed; the raw
    figures are printed in the detail line.
    """

    def __init__(self, fn, nominal_s, every_s):
        self.fn = fn
        self.nominal_s = nominal_s
        self.every_s = every_s

    def measure(self) -> float:
        t0 = time.perf_counter()
        self.fn()
        return time.perf_counter() - t0


CPU_REFERENCE = Reference(_cpu_reference, nominal_s=0.014, every_s=0.1)
PROCESS_REFERENCE = Reference(_process_reference, nominal_s=0.080, every_s=0.35)


class Tally:
    """Latencies, CPU and verdicts of every operation in a run, scaled
    to reference speed; raw wall time is kept beside it."""

    def __init__(self, reference):
        self.reference = reference
        self.latencies = []
        self.round_wall = []
        self.round_cpu = []
        self.round_raw_wall = []
        self.reference_s = []
        self.attempted = 0
        self.failed = 0
        self.exit_mismatches = 0
        self.failures = []

    def run_round(self, ops, rnd, tracer=None, first_op=0):
        """Returns the round's wall time at reference speed and its mean
        scale factor."""
        refs = [self.reference.measure()]
        timed = []  # (raw latency, raw cpu, index of the next reference)
        since = 0.0
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op = first_op + i
            c0 = _cpu_seconds()
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    result = op.run()
                else:
                    with tracer.operation(f"op.{op.kind}"):
                        result = op.run()
                error = None
            except Exception as exc:  # an unexpected exception fails the op
                result, error = None, f"raised {exc!r}"
            t1 = time.perf_counter()
            c1 = _cpu_seconds()
            timed.append((t1 - t0, c1 - c0, len(refs)))
            self.attempted += 1
            if error is None:
                if op.expect_code is not None and result[0] != op.expect_code:
                    self.exit_mismatches += 1
                error = op.check(result)
            if error is not None:
                self.failed += 1
                if len(self.failures) < 20:
                    self.failures.append({"op": f"{op.kind} [{op.label}]",
                                          "round": rnd, "reason": str(error)[:300]})
            since += t1 - t0
            if since >= self.reference.every_s or i == len(ops) - 1:
                refs.append(self.reference.measure())
                since = 0.0
        self.reference_s += refs
        wall = cpu = raw = 0.0
        for lat, used, nxt in timed:
            # median of the references within two of the ones that
            # bracket the operation: one slow reference run is noise
            window = refs[max(nxt - 3, 0):nxt + 3]
            factor = self.reference.nominal_s / statistics.median(window)
            self.latencies.append(lat * factor)
            wall += lat * factor
            cpu += used * factor
            raw += lat
        self.round_wall.append(wall)
        self.round_cpu.append(cpu)
        self.round_raw_wall.append(raw)
        return wall, wall / raw


def tail_percentile(ops_per_round, min_rounds):
    """Highest whole percentile with at least ten samples beyond it,
    fixed from the guaranteed sample count so every run reports the
    same percentile."""
    n = ops_per_round * min_rounds
    return max(50, min(99, int(100 * (1 - 10 / n))))


def percentile(values, p):
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def startup_split():
    """Medians of ``python -c pass`` and ``python -c 'import sheafcalc.cli'``,
    interleaved; the import share is their difference."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    bare, full = [], []
    for _ in range(STARTUP_REPEATS):
        for code, sink in (("pass", bare), ("import sheafcalc.cli", full)):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, check=True,
                           stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
            sink.append(time.perf_counter() - t0)
    interpreter = statistics.median(bare) * 1000
    return interpreter, statistics.median(full) * 1000 - interpreter


def environment(args):
    digest = hashlib.sha256()
    for path in sorted((SRC / "sheafcalc").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        commit = done.stdout.strip() or commit
    cpu_model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), cpu_model)
    except OSError:
        pass
    return {
        "python": platform.python_version(), "python_path": sys.executable,
        "optimize": sys.flags.optimize, "nproc": os.cpu_count(),
        "cpu_model": cpu_model, "commit": commit,
        "source_sha256": digest.hexdigest(), "workload": args.workload,
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "scale": args.scale,
    }


def setup(module, args):
    """Import the library and build the job list, several times; the
    last build is the one the loop uses.  Returns the set-up times at
    reference speed and raw."""
    scaled, raw = [], []
    before = CPU_REFERENCE.measure()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        lib = Lib()
        ops, replay = module.build(lib, args.seed, args.scale, str(WORKDIR))
        took = time.perf_counter() - t0
        after = CPU_REFERENCE.measure()
        raw.append(took)
        scaled.append(took * CPU_REFERENCE.nominal_s / ((before + after) / 2))
        before = after
    return lib, ops, replay, scaled, raw


def _until(deadline, min_rounds, round_fn):
    """Run rounds until the next one would end past the deadline."""
    rnd = 0
    while True:
        t0 = time.perf_counter()
        round_fn(rnd)
        rnd += 1
        now = time.perf_counter()
        if rnd >= min_rounds and now + (now - t0) > deadline:
            return


def run_plain(module, ops, reference, args):
    tally = Tally(reference)
    _until(time.perf_counter() + args.seconds, module.MIN_ROUNDS,
           lambda rnd: tally.run_round(ops, rnd))
    return tally


def run_traced(lib, ops, args, layers, spans_path):
    """Untraced and traced rounds in turn.  Counts come from the first
    traced round and must repeat in every later one; self times are
    scaled to reference speed and reported as medians over traced
    rounds."""
    from spans import Tracer

    tracer = Tracer()
    tally = Tally(CPU_REFERENCE)
    plain_walls, traced_walls, snapshots = [], [], []

    def pair(rnd):
        plain_walls.append(tally.run_round(ops, rnd)[0])
        uninstall = tracer.install(lib)
        tracer.recording = not snapshots
        try:
            wall, factor = tally.run_round(ops, rnd, tracer, rnd * len(ops))
        finally:
            uninstall()
            tracer.recording = False
        traced_walls.append(wall)
        snapshots.append({name: source(tracer) * (1 if exact else factor)
                          for name, _, source, exact in layers})
        tracer.reset_stats()

    _until(time.perf_counter() + args.seconds, 1, pair)
    n_spans = tracer.write_spans(spans_path)
    metrics = {}
    repeat = True
    for name, unit, _, exact in layers:
        values = [snap[name] for snap in snapshots]
        if exact:
            repeat = repeat and len(set(values)) == 1
            metrics[name] = values[0]
        else:
            metrics[name] = statistics.median(values)
    overhead = statistics.median(traced_walls) / statistics.median(plain_walls)
    return tally, metrics, overhead, {
        "traced_rounds": len(traced_walls), "untraced_rounds": len(plain_walls),
        "counts_repeat": repeat, "spans": n_spans,
        "spans_file": str(Path(spans_path).relative_to(ROOT))}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "small"), default="full",
                        help="small shrinks every input, for the smoke test")
    args = parser.parse_args(argv)
    if not (SRC / "sheafcalc" / "__init__.py").is_file():
        print(f"no sheafcalc sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2

    module = _workload_module(args.workload)
    WORKDIR.mkdir(parents=True, exist_ok=True)
    lib, ops, replay, setup_times, raw_setup = setup(module, args)
    # the inputs live for the whole run: keep full collections from
    # rescanning them inside timed operations
    gc.collect()
    gc.freeze()
    p_tail = tail_percentile(len(ops), module.MIN_ROUNDS)
    detail = {"environment": environment(args), "ops_per_round": len(ops)}

    if args.trace:
        from layers import PER_LAYER

        spans_path = WORKDIR / f"spans-{args.workload}.jsonl.gz"
        tally, metrics, overhead, detail["trace"] = run_traced(
            lib, replay or ops, args, PER_LAYER, spans_path)
        interpreter_ms, import_ms = startup_split()
        metrics["cli.interpreter_ms"] = interpreter_ms
        metrics["cli.import_ms"] = import_ms
        metrics["cli.exit_mismatches"] = tally.exit_mismatches
        metrics["trace.overhead_ratio"] = overhead
        units = {name: unit for name, unit, _, _ in PER_LAYER}
        units.update({"cli.interpreter_ms": "ms", "cli.import_ms": "ms",
                      "cli.exit_mismatches": "count", "trace.overhead_ratio": "ratio"})
    else:
        reference = CPU_REFERENCE if replay is None else PROCESS_REFERENCE
        tally = run_plain(module, ops, reference, args)
        if replay is None:
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        else:
            peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        interpreter_ms, import_ms = startup_split()
        detail["cli_startup"] = {"cli.interpreter_ms": interpreter_ms,
                                 "cli.import_ms": import_ms}
        metrics = {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.median(tally.round_wall),
            "cpu_s": statistics.median(tally.round_cpu),
            "op_p50_ms": statistics.median(tally.latencies) * 1000,
            "op_tail_ms": percentile(tally.latencies, p_tail) * 1000,
            "ok_ratio": (tally.attempted - tally.failed) / tally.attempted,
            "peak_rss_mb": peak_kb / 1024,
        }
        units = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "op_p50_ms": "ms",
                 "op_tail_ms": "ms", "ok_ratio": "ratio", "peak_rss_mb": "MB"}
        detail.update({
            "rounds": len(tally.round_wall), "samples": len(tally.latencies),
            "op_tail_percentile": p_tail, "setup_times_s": setup_times,
            "raw_setup_times_s": raw_setup, "raw_round_wall_s": tally.round_raw_wall,
            "round_wall_s": tally.round_wall, "round_cpu_s": tally.round_cpu,
            "reference": {"kind": "cpu" if reference is CPU_REFERENCE else "process",
                          "nominal_s": reference.nominal_s,
                          "measured_median_s": statistics.median(tally.reference_s),
                          "runs": len(tally.reference_s)},
            "peak_rss_of": "self" if replay is None else "largest child"})

    detail.update({"attempted": tally.attempted, "failed": tally.failed,
                   "fail_ratio": tally.failed / tally.attempted,
                   "exit_mismatches": tally.exit_mismatches,
                   "failures": tally.failures})
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
