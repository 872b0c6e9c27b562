"""Schema smoke test of the benchmark: short runs, no timing checks.

Usage (from the root of a lieflow checkout): python3 perfbench/smoke.py

Runs every workload of BENCHMARK.json for one second in both modes and
checks that the last output line has exactly the keys correct, attempted,
failed and metrics, with the metric names and units BENCHMARK.json lists.
Then checks that the benchmark refuses to run, with no result, in a
directory that holds only BENCHMARK.json and the benchmark's files.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile


def check_result(line: str, spec: list[dict]) -> list[str]:
    errors = []
    out = json.loads(line)
    if set(out) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"top-level keys {sorted(out)}")
    if not isinstance(out.get("correct"), bool):
        errors.append("correct is not a bool")
    for key in ("attempted", "failed"):
        if not isinstance(out.get(key), int):
            errors.append(f"{key} is not an int")
    if out.get("attempted", 0) < 1:
        errors.append("attempted < 1")
    metrics = out.get("metrics", {})
    if set(metrics) != {m["name"] for m in spec}:
        errors.append(f"metric names differ: {sorted(set(metrics) ^ {m['name'] for m in spec})}")
    for m in spec:
        got = metrics.get(m["name"], {})
        if set(got) != {"value", "unit"} or got.get("unit") != m["unit"]:
            errors.append(f"{m['name']}: {got}")
        elif not isinstance(got["value"], (int, float)) or not math.isfinite(got["value"]):
            errors.append(f"{m['name']}: value {got['value']!r}")
    return errors


def main() -> int:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    failures = 0
    for workload in bench["workloads"]:
        for trace, spec in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            got = subprocess.run(bench["command"] + ["--workload", workload["name"], "--seed",
                                                     "0", "--seconds", "1", "--trace", str(trace)],
                                 capture_output=True, text=True, timeout=180)
            lines = got.stdout.strip().splitlines()
            errors = [f"exit {got.returncode}: {got.stderr[-500:]}"] if got.returncode else []
            if not errors:
                errors = check_result(lines[-1], spec)
            failures += bool(errors)
            print(f"{workload['name']} trace={trace}: {'ok' if not errors else errors}")

    os.makedirs(".perfbench_run", exist_ok=True)
    bare = tempfile.mkdtemp(dir=".perfbench_run")
    try:
        shutil.copy("BENCHMARK.json", bare)
        for path in bench["paths"]:
            shutil.copytree(path, os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        got = subprocess.run(bench["command"] + ["--workload", bench["workloads"][0]["name"],
                                                 "--seed", "0", "--seconds", "1", "--trace", "0"],
                             cwd=bare, capture_output=True, text=True, timeout=180)
        refused = got.returncode != 0 and not got.stdout.strip()
    finally:
        shutil.rmtree(bare)
    failures += not refused
    print(f"bare directory: {'refused' if refused else 'RAN'} (exit {got.returncode})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
