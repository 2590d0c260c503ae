"""Smoke test of the benchmark at its smallest sizes.

    python3 perfbench/smoke.py

Runs every workload with ``--scale small`` untraced and traced, and
checks that the result line names exactly the metrics BENCHMARK.json
lists, each with its unit, and that every oracle passed.  Then checks
that the benchmark refuses to run, without printing a result, from a
directory that holds only BENCHMARK.json and the benchmark's own files.
Exits 0 when everything holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

from common import ROOT


def _result(cwd, workload, trace):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--scale", "small"],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=600)
    lines = done.stdout.splitlines()
    return done.returncode, (json.loads(lines[-1]) if lines else None), done.stderr


def check_workload(spec, workload, trace):
    problems = []
    code, result, stderr = _result(ROOT, workload, trace)
    if code != 0 or result is None:
        return [f"exit {code}: {stderr.strip()[-300:]}"]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not result.get("correct") or result.get("failed") != 0:
        problems.append(f"oracles failed: {result.get('failed')} of {result.get('attempted')}")
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = result.get("metrics", {})
    if set(got) != set(want):
        problems.append(f"missing {sorted(set(want) - set(got))}, "
                        f"unexpected {sorted(set(got) - set(want))}")
    for name, entry in got.items():
        if entry.get("unit") != want.get(name):
            problems.append(f"{name} has unit {entry.get('unit')}, want {want.get(name)}")
        if not isinstance(entry.get("value"), (int, float)):
            problems.append(f"{name} has value {entry.get('value')!r}")
    return problems


def check_refusal(spec):
    """Without the library sources the benchmark must fail, fast and
    without a result line."""
    bare = ROOT / "perfbench" / "work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("work", "__pycache__"))
        code, result, _ = _result(bare, spec["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if code == 0 or result is not None:
        return [f"ran without the library: exit {code}"]
    return []


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failed = False
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            problems = check_workload(spec, workload, trace)
            failed = failed or bool(problems)
            print(f"{workload} trace {trace}: {'ok' if not problems else problems}")
    problems = check_refusal(spec)
    failed = failed or bool(problems)
    print(f"refuses without sources: {'ok' if not problems else problems}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
