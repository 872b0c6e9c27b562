"""lieflow benchmark: seeded inputs, closed-loop workers, oracle-checked output.

Usage (from the root of a lieflow checkout):

    python3 perfbench/run.py --workload classify-mix --seed 1 --seconds 25 --trace 0

Workloads: classify-mix, derivation-solve, evidence, cli-cold (BENCHMARK.json
says why each is there). The parent generates the inputs from the seed and
judges every output against the construction-based oracle in gen.py; the
program only ever runs inside worker interpreters that receive the inputs.
Each run starts the worker five times and reports the median set-up time.
Human-readable lines come first; the last line is the JSON result. With
--trace 1 the run reports per-layer metrics instead of end-to-end ones.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gen  # noqa: E402

WORKLOADS = ("classify-mix", "derivation-solve", "evidence", "cli-cold")
SETUPS = 5
# Times are reported at a fixed CPU speed: an op's CPU time is scaled by
# CALIB_REF_S over the time the worker's calibration kernel took around it
# (worker.calibration_time). One reference second is the time the op takes
# on a CPU that runs the kernel in exactly 1 ms.
CALIB_REF_S = 1e-3
END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
              "op_tail_ms": "ms", "peak_rss_mb": "MB"}
# Per-layer metrics of the traced run: name -> unit. `.ms` and `.self_ms`
# are CPU milliseconds inside a function per op of the traced loop,
# `count/op` figures are per op. BENCHMARK.json lists the same names with
# the direction of improvement (smoke.py checks that they agree), and
# README.md says which end-to-end metric each should move on which workload.
PER_LAYER = {
    "lieflow.import_ms": "ms",
    "flowsim.import_scipy_ms": "ms",
    "liealg.algebra_from_dict.ms": "ms",
    "liealg.validate_algebra.ms": "ms",
    "liealg.validate_algebra.calls": "count/op",
    "dersolve.constraint_rows.ms": "ms",
    "dersolve.derivation_space.self_ms": "ms",
    "dersolve.leibniz_residual.ms": "ms",
    "dersolve.leibniz_residual.calls": "count/op",
    "dersolve.leibniz_gate_ratio": "ratio",
    "linalg.rref.ms": "ms",
    "linalg.rref.calls": "count/op",
    "linalg.rref.cells": "count/op",
    "spectral.char_poly.ms": "ms",
    "spectral.spectrum.self_ms": "ms",
    "spectral.spectrum.calls": "count/op",
    "spectral.exact_class_ratio": "ratio",
    "spectral.ill_conditioned_ratio": "ratio",
    "periodicity.classify_flow.self_ms": "ms",
    "periodicity.exact_period_ratio": "ratio",
    "periodicity.refusals": "count/op",
    "flowsim.expm.calls_per_op": "count/op",
    "flowsim.expm.calls_per_op.PeriodicFlow": "count/op",
    "flowsim.expm.calls_per_op.NoPeriodicOrbits": "count/op",
    "flowsim.expm.calls_per_op.IdentityFlow": "count/op",
    "flowsim.expm.ms": "ms",
    "flowsim.verify_verdict.self_ms": "ms",
    "flowsim.evidence_passed_ratio": "ratio",
    "flowsim.evidence_inconclusive_ratio": "ratio",
    "flowsim.nonfinite_residuals": "count/op",
    "catalog.get_entry.ms": "ms",
    "catalog.cross_check_all.ms": "ms",
    "catalog.verdict_table.ms": "ms",
    "catalog.flagged_entries": "count",
    **{f"cli.main_warm_ms.{kind}": "ms" for kind in gen.CLI_KINDS},
    "cli.cold_minus_warm_ms": "ms",
    "trace.overhead_ratio": "ratio",
}
# Failures that are ROADMAP defects at the time the benchmark was written.
# They are counted in `failed` like any other; only failures outside these
# classes make a run incorrect, so a fix flips them to passes with no edit.
KNOWN_DEFECTS = {
    "repeated_factor_refusal": "refusal on a repeated irreducible factor (ROADMAP item 2)",
    "near_commensurable_false_periodic":
        "false PeriodicFlow on a near-commensurable quartic (ROADMAP item 3)",
    "nonfinite_evidence_pass": "evidence passes on a non-finite residual (ROADMAP item 4)",
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


# --- environment ------------------------------------------------------------------


def worker_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED="0")
    return env


def machine_info(root: str) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if os.path.isdir(os.path.join(root, ".git")) and shutil.which("git"):
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True)
        commit = got.stdout.strip() or None
    digest = hashlib.sha256()
    src = os.path.join(root, "src", "lieflow")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {"nproc": os.cpu_count(), "cpu": cpu, "python": sys.version.split()[0],
            "numpy": version("numpy"), "scipy": version("scipy"), "commit": commit,
            "src_sha256": digest.hexdigest()[:16]}


# --- inputs -----------------------------------------------------------------------


def make_job(workload: str, seed: int, workdir: str) -> tuple[dict, dict]:
    rng = random.Random(seed)
    files: dict = {}
    cases = gen.selfcheck_cases()
    selfcheck = []
    if workload == "classify-mix":
        inputs = gen.classify_inputs(rng)
        selfcheck = [c for c in cases if c["kind"] != "evidence"]
    elif workload == "evidence":
        inputs = gen.evidence_inputs(rng)
        selfcheck = [c for c in cases if c["kind"] == "evidence"]
    elif workload == "derivation-solve":
        inputs = gen.derivation_inputs(rng)
    else:
        inputs, files = gen.cli_inputs(rng, os.path.relpath(workdir))
    job = {"workload": workload, "inputs": inputs, "selfcheck": selfcheck,
           "warmup_algebra": gen.heisenberg_dict(1), "workdir": workdir}
    return job, files


def input_shares(workload: str, inputs: list[dict]) -> dict:
    """Measured share of each input property in one pass of the pool."""
    n = len(inputs)
    shares: dict[str, float] = {}

    def add(key):
        shares[key] = shares.get(key, 0) + 1 / n

    for x in inputs:
        if workload in ("classify-mix", "evidence"):
            add(f"source={x['source']}")
            add(f"dim={x['dim']}")
            add("derivation" if x["derivation"] else "non_derivation")
            for kind in sorted(set(x["blocks"])):
                add(f"block={kind}")
            if x["repeated_factor"]:
                add("repeated_irreducible_factor")
            add(f"expect={x['expect']['tag']}")
        elif workload == "derivation-solve":
            add(f"family={x['family']}")
            add(f"basis={x['basis']}")
        else:
            add(f"command={x['kind']}")
    return {k: round(v, 4) for k, v in sorted(shares.items())}


# --- workers ----------------------------------------------------------------------


def run_worker(job: dict, workdir: str, env: dict, root: str, deadline: float,
               tag: str) -> tuple[tuple[float, float, float], dict | None]:
    """Start one worker; returns ((set-up CPU s, set-up wall s, calibration
    s), result or None if set-up only).

    Set-up is the worker's CPU time up to READY; the wall figure runs from
    just before the spawn to the READY time the worker reports on the same
    monotonic clock; the calibration time is measured right after READY.
    """
    job_path = os.path.join(workdir, "job.json")
    with open(job_path, "w", encoding="utf-8") as fh:
        json.dump(job, fh)
    err_path = os.path.join(workdir, f"worker-{tag}.stderr")
    with open(err_path, "w", encoding="utf-8") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"), job_path],
                                cwd=root, env=env, stdout=subprocess.PIPE, stderr=err,
                                text=True)
        try:
            out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"worker {tag} overran the time limit")
    lines = out.splitlines()
    if proc.returncode != 0 or not lines or not lines[0].startswith("READY "):
        with open(err_path, encoding="utf-8") as fh:
            tail = fh.read()[-2000:]
        raise BenchError(f"worker {tag} failed (exit {proc.returncode}):\n{tail}")
    _, cpu, ready, calib = lines[0].split()
    setup = (float(cpu), float(ready) - t0, float(calib))
    if job["setup_only"]:
        return setup, None
    return setup, json.loads(lines[-1])


def import_breakdown(env: dict, root: str) -> dict:
    """Median of three `python -X importtime -c "import lieflow"` runs."""
    lieflow_us, scipy_us = [], []
    for _ in range(3):
        got = subprocess.run([sys.executable, "-X", "importtime", "-c", "import lieflow"],
                             cwd=root, env=env, capture_output=True, text=True, timeout=120)
        if got.returncode != 0:
            raise BenchError(f"import lieflow failed:\n{got.stderr[-2000:]}")
        cumulative = {}
        for line in got.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            parts = line[len("import time:"):].split("|")
            try:
                cumulative[parts[2].strip()] = int(parts[1])
            except ValueError:
                continue  # the header line
        lieflow_us.append(cumulative.get("lieflow", 0))
        scipy_us.append(cumulative.get("scipy.linalg", 0))
    return {"lieflow.import_ms": statistics.median(lieflow_us) / 1e3,
            "flowsim.import_scipy_ms": statistics.median(scipy_us) / 1e3}


# --- judging ----------------------------------------------------------------------


def judge_verdict(x: dict, key: list) -> str | None:
    """Failure kind of a classify output against the oracle, or None."""
    exp = x["expect"]
    if key[0] == "exc":
        if exp["tag"] == "NotADerivation":
            return None if key[1] == "NotADerivationError" else "exception"
        if key[1] == "IllConditionedSpectrumError":
            return "refusal"
        return "wrong_verdict" if key[1] == "NotADerivationError" else "exception"
    if exp["tag"] == "NotADerivation":
        return "accepted_non_derivation"
    _, tag, reason, period, period_over_pi = key
    if tag != exp["tag"] or reason != exp.get("reason"):
        return "wrong_verdict"
    if tag == gen.TAG_PERIODIC:
        if abs(float(period) - exp["period"]) > 1e-9 * exp["period"]:
            return "wrong_period"
        # Exact T/pi is required only when the base frequency is rational.
        if exp["period_over_pi"] is not None and period_over_pi != exp["period_over_pi"]:
            return "wrong_period"
    return None


def known_defect(x: dict, kind: str) -> str | None:
    if kind == "refusal" and x.get("repeated_factor"):
        return "repeated_factor_refusal"
    if x.get("near_commensurable") and kind in ("wrong_verdict", "wrong_verdict_passed",
                                                 "exception"):
        return "near_commensurable_false_periodic"
    if kind == "nonfinite_pass":
        return "nonfinite_evidence_pass"
    return None


# lieflow refuses e^{tM} beyond ||tM||_1 = 700 (ToleranceConfig.expm_norm_guard,
# a documented runtime guard), and a PeriodicFlow check evaluates e^{(t+T)D}
# for t up to min(4T, 350/||D||_1); so the guard trips exactly when
# T * ||D||_1 > 350. That refusal is an expected outcome, not a failure.
EXPM_GUARD_HALF = 350.0


def judge_evidence(x: dict, key: list, verdict_key: list) -> str | None:
    if verdict_key[0] == "exc":  # no verdict to verify
        return judge_verdict(x, verdict_key) or "exception"
    if key[0] == "exc":
        guarded = (key[1] == "ExpmOverflowError" and verdict_key[1] == gen.TAG_PERIODIC
                   and float(verdict_key[3]) * x["norm1"] > EXPM_GUARD_HALF)
        return None if guarded else "exception"
    _, passed, inconclusive, nonfinite = key
    if passed and nonfinite:
        return "nonfinite_pass"
    verdict_right = judge_verdict(x, verdict_key) is None
    if verdict_right and not passed and not inconclusive:
        return "evidence_rejected_correct"
    if not verdict_right and passed:
        return "wrong_verdict_passed"
    return None


def judge_derivations(x: dict, key: list) -> str | None:
    if key[0] == "exc":
        return "exception"
    if key[0] != "ok":
        return "jacobi_rejected"
    _, dim, basis = key
    return _check_basis(x["algebra"], x["expect"]["dim_der"], dim, basis)


def _check_basis(alg, want, dim, basis) -> str | None:
    if dim != want or len(basis) != want:
        return "wrong_dim"
    if not gen.leibniz_ok(alg, basis):
        return "not_a_derivation_basis"
    flat = [[gen.F(v) for row in m for v in row] for m in basis]
    if flat and gen.rank_mod_p(flat) < len(flat):
        return "dependent_basis"
    return None


def _doc_verdict_key(v: dict) -> list:
    return ["ok", v["tag"], v["reason"],
            repr(v["period"]) if v["period"] is not None else None, v["period_over_pi"]]


def judge_cli(x: dict, key: list) -> str | None:
    if key[0] == "exc":
        return "exception"
    _, code, stdout = key
    exp = x["expect"]
    if code != exp["exit"]:
        return "accepted_non_derivation" if x["kind"] == "classify_nonderivation" \
            else "cli_exit"
    if code == 2:
        return None
    try:
        doc = json.loads(stdout)
        kind = x["kind"]
        if kind in ("classify_inner", "classify_matrix"):
            bad = judge_verdict({"expect": exp["verdict"]}, _doc_verdict_key(doc["verdict"]))
            return None if bad is None else "cli_json"
        if kind == "derivations":
            bad = _check_basis(exp["algebra"], exp["dim_der"], doc["dim"], doc["basis"])
            return None if bad is None else "cli_json"
        if kind == "cross_check":
            flagged = sorted(r["name"] for r in doc
                             if r["discrepancies"] or r["known_print_issues"])
            return None if flagged == exp["flagged"] else "cli_json"
        if kind == "verdict_table":
            ok = bool(doc) and all(
                judge_verdict({"expect": gen.small_verdict(r["matrix"])},
                              _doc_verdict_key(r["verdict"])) is None for r in doc)
            return None if ok else "cli_json"
        if kind == "simulate":
            return None if doc["passed"] == exp["passed"] else "cli_json"
    except (ValueError, KeyError, TypeError):
        return "cli_json"
    return "cli_json"


def judge_loop(workload: str, inputs: list[dict], loop: dict, verdicts) -> dict:
    """Failures of a loop, counted per input and per op.

    Every op is checked. `attempted` and `failed` count inputs: an input
    fails when any of its ops fails, by the kind of its first failing op.
    How many ops fit in a run depends on the machine's speed, but which
    inputs fail does not, so these counts are the same on every run of a
    seed. Op counts are returned beside them.
    """
    kinds: dict[str, int] = {}
    known: dict[str, int] = {}
    op_kinds: dict[str, int] = {}
    failed_input: dict[int, tuple[str, str | None]] = {}
    verdict_of = {}
    for i_str, key in loop["first"].items():
        i = int(i_str)
        x = inputs[i]
        if workload == "classify-mix":
            kind = judge_verdict(x, key)
        elif workload == "evidence":
            kind = judge_evidence(x, key, verdicts[i])
        elif workload == "derivation-solve":
            kind = judge_derivations(x, key)
        else:
            kind = judge_cli(x, key)
        verdict_of[i] = (kind, known_defect(x, kind) if kind else None)
    for _pass, i, _lat, same, *_ in loop["records"]:
        kind, defect = verdict_of[i] if same else ("nondeterministic", None)
        if kind is None:
            continue
        op_kinds[kind] = op_kinds.get(kind, 0) + 1
        failed_input.setdefault(i, (kind, defect))
    for kind, defect in failed_input.values():
        kinds[kind] = kinds.get(kind, 0) + 1
        if defect:
            known[defect] = known.get(defect, 0) + 1
    return {"attempted": len(verdict_of), "failed": len(failed_input),
            "by_kind": kinds, "known_defects": known, "ops": len(loop["records"]),
            "failed_ops": sum(op_kinds.values()), "op_kinds": op_kinds}


def judge_selfcheck(cases: list[dict], outputs: dict) -> tuple[bool, list[str]]:
    ok = True
    lines = []
    for case in cases:
        key = outputs[case["name"]]
        if case["kind"] == "evidence":
            agrees = key[0] == "ok" and not (key[1] and key[3])
        else:
            agrees = judge_verdict(case, key) is None
        if case["repro"]:
            state = "still reproduces" if not agrees else "FIXED (oracle now agrees)"
            lines.append(f"selfcheck {case['name']}: ROADMAP repro {state}")
        else:
            ok &= agrees
            lines.append(f"selfcheck {case['name']}: {'agrees' if agrees else 'DISAGREES'}")
    return ok, lines


# --- metrics ----------------------------------------------------------------------


def op_time(rec, clock: str = "ref") -> float:
    """An op's time: "ref" is its CPU time at the reference speed, "cpu" the
    CPU time as measured, "wall" the wall-clock time."""
    if clock == "cpu":
        return rec[2]
    if clock == "wall":
        return rec[4]
    return rec[2] * CALIB_REF_S / rec[5]


def latencies(loop: dict, clock: str = "ref") -> list[float]:
    """Times of the ops of complete passes, so that every input carries the
    same weight."""
    return [op_time(rec, clock) for rec in loop["records"] if rec[0] < loop["passes"]]


def tail(lat: list[float]) -> tuple[float, int]:
    """Highest nearest-rank percentile with at least ten samples above it."""
    ordered = sorted(lat)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100
    pct = math.floor(100 * (n - 10) / n)
    return ordered[max(0, math.ceil(pct * n / 100) - 1)], pct


def ops_per_s(loop: dict, clock: str = "ref") -> float:
    """Pool size over the sum of per-input median latencies: the closed-loop
    rate at the stated mix (each input once per pass), robust to a stall
    that hits one op of a pass."""
    per_input: dict[int, list[float]] = {}
    for rec in loop["records"]:
        if rec[0] < loop["passes"]:
            per_input.setdefault(rec[1], []).append(op_time(rec, clock))
    return len(per_input) / sum(statistics.median(v) for v in per_input.values())


def end_to_end(setups: list[tuple[float, float, float]], loop: dict,
               rss: float) -> tuple[dict, list[str]]:
    lat = latencies(loop)
    tail_v, tail_p = tail(lat)
    values = {
        "setup_s": statistics.median(cpu * CALIB_REF_S / calib for cpu, _w, calib in setups),
        "ops_per_s": ops_per_s(loop),
        "op_p50_ms": 1e3 * statistics.median(lat),
        "op_tail_ms": 1e3 * tail_v,
        "peak_rss_mb": rss,
    }
    cpu, wall = latencies(loop, "cpu"), latencies(loop, "wall")
    calib = statistics.median(rec[5] for rec in loop["records"])
    notes = {
        "setup_s": f"median of {len(setups)} set-ups, CPU time at reference speed; as "
                   f"measured {statistics.median(c for c, _w, _k in setups):.4g} s CPU, "
                   f"{statistics.median(w for _c, w, _k in setups):.4g} s wall",
        "ops_per_s": f"{len(lat)} ops in {loop['passes']} complete passes, pool / sum of "
                     f"per-input median times; as measured {ops_per_s(loop, 'cpu'):.4g} "
                     f"CPU, {ops_per_s(loop, 'wall'):.4g} wall",
        "op_p50_ms": f"n={len(lat)}; as measured {1e3 * statistics.median(cpu):.4g} ms CPU, "
                     f"{1e3 * statistics.median(wall):.4g} ms wall",
        "op_tail_ms": f"p{tail_p}, n={len(lat)}; as measured {1e3 * tail(cpu)[0]:.4g} ms "
                      f"CPU, {1e3 * tail(wall)[0]:.4g} ms wall",
        "peak_rss_mb": "worker peak resident set",
    }
    lines = [f"metric {k} = {v:.6g} {END_TO_END[k]} ({notes[k]})" for k, v in values.items()]
    lines.append(f"calibration kernel: median {1e3 * calib:.4g} ms CPU over the loop, "
                 f"{1e3 * CALIB_REF_S:.4g} ms at reference speed")
    return values, lines


def per_layer(result: dict, imports: dict) -> dict:
    layers = dict(result["layers"])
    layers.update(imports)
    warm = result.get("warm_cli")
    for kind in gen.CLI_KINDS:
        got = warm["per_kind"].get(kind) if warm else None
        layers[f"cli.main_warm_ms.{kind}"] = 1e3 * got if got is not None else 0.0
    if warm:
        cold = statistics.median(latencies(result["untraced"], "cpu"))
        layers["cli.cold_minus_warm_ms"] = 1e3 * (cold - statistics.median(warm["per_item"]))
    else:
        layers["cli.cold_minus_warm_ms"] = 0.0
    for name in ("catalog.cross_check_all.ms", "catalog.verdict_table.ms",
                 "catalog.flagged_entries"):
        layers.setdefault(name, 0.0)
    layers["trace.overhead_ratio"] = ops_per_s(result["traced"]) / ops_per_s(result["untraced"])
    return layers


# --- main -------------------------------------------------------------------------


def run(args) -> dict:
    started = time.monotonic()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "lieflow", "__init__.py")):
        raise BenchError("run from the root of a lieflow checkout (src/lieflow is missing)")
    workdir = os.path.join(root, ".perfbench_run", args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    env = worker_env(root)
    job, files = make_job(args.workload, args.seed, workdir)
    for path, alg in files.items():
        with open(os.path.join(root, path), "w", encoding="utf-8") as fh:
            json.dump(alg, fh)
    inputs = job["inputs"]
    print("env " + json.dumps(machine_info(root), sort_keys=True))
    print(f"inputs seed={args.seed} pool={len(inputs)} shares="
          + json.dumps(input_shares(args.workload, inputs), sort_keys=True))

    deadline = started + 170.0  # every run ends within 180 s
    setups = []
    for k in range(SETUPS):
        last = k == SETUPS - 1
        job.update(setup_only=not last, seconds=args.seconds, trace=bool(args.trace))
        setup, result = run_worker(job, workdir, env, root, deadline, f"{k}")
        setups.append(setup)

    correct = True
    lines = []
    if "selfcheck" in result:
        ok, sc_lines = judge_selfcheck(job["selfcheck"], result["selfcheck"])
        correct &= ok
        lines += sc_lines
    loops = [result["untraced"]] + ([result["traced"]] if args.trace else [])
    attempted = failed = ops = failed_ops = 0
    by_kind: dict[str, int] = {}
    op_kinds: dict[str, int] = {}
    known: dict[str, int] = {}
    for loop in loops:
        verdict = judge_loop(args.workload, inputs, loop, result.get("verdicts"))
        attempted += verdict["attempted"]
        failed += verdict["failed"]
        ops += verdict["ops"]
        failed_ops += verdict["failed_ops"]
        for src, dst in ((verdict["by_kind"], by_kind), (verdict["op_kinds"], op_kinds),
                         (verdict["known_defects"], known)):
            for k, v in src.items():
                dst[k] = dst.get(k, 0) + v
    unexpected = failed - sum(known.values())
    correct &= unexpected == 0
    lines.append(f"failed_ratio = {failed_ops / ops:.6g} ({failed_ops} of {ops} ops) by kind "
                 f"{json.dumps(op_kinds, sort_keys=True)}")
    lines.append(f"failed inputs = {failed} of {attempted} (the result line's failed and "
                 f"attempted: distinct inputs of each loop) by kind "
                 f"{json.dumps(by_kind, sort_keys=True)}")
    lines.append("known ROADMAP defects among them "
                 + json.dumps({k: {"inputs": v, "what": KNOWN_DEFECTS[k]}
                               for k, v in sorted(known.items())}))
    if unexpected:
        lines.append(f"UNEXPECTED failures: {unexpected}")

    if args.trace:
        imports = import_breakdown(env, root)
        values = per_layer(result, imports)
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in PER_LAYER.items()}
        lines += [f"layer {k} = {m['value']:.6g} {m['unit']}" for k, m in metrics.items()]
        lines.append(f"spans written to {os.path.relpath(workdir, root)}/spans-{args.workload}.csv")
    else:
        values, metric_lines = end_to_end(setups, result["untraced"], result["peak_rss_mb"])
        lines += metric_lines
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    print(f"workload {args.workload}: closed loop, 1 client, "
          f"{'traced' if args.trace else 'untraced'}")
    for line in lines:
        print(line)
    return {"correct": bool(correct), "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        out = run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
