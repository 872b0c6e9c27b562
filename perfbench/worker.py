"""One benchmark worker: a fresh interpreter that runs one workload.

Usage: python3 perfbench/worker.py JOB.json

The job holds the generated inputs only; the seed stays in the parent. The
worker imports lieflow, runs its warm-up ops, prints READY with the CPU time
and the monotonic clock at that point, then runs the closed loop: one
caller, each op starting after the previous one returns. It prints one JSON
result line.

Op times are CPU time (user + system) of the process that does the op: the
worker, or the CLI process on cli-cold. Each op is bracketed by a
calibration run (calibration_time) so that the parent can express its time
at a fixed CPU speed; wall time is kept beside it and printed. The worker
and the processes it starts stay on one CPU.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import subprocess
import sys
import time
from fractions import Fraction as F

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import spans  # noqa: E402


def cpu_children() -> float:
    """User + system CPU seconds of the waited-for child processes."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


_CALIB_DATA: dict = {}


def calibration_time(kind: str) -> float:
    """CPU seconds this process takes for a fixed piece of work that does not
    touch lieflow.

    On a shared host the same code runs at two or more speeds, for example
    when another tenant's thread shares the physical core; measured on a
    2-vCPU Xeon VM, CPU time per op moved by up to 70% between phases lasting
    seconds. The parent divides each op time by the calibration time measured
    around it, which removes that factor and keeps the program's own cost.
    How much a phase slows code depends on the code, so the work resembles
    the workload's: "exact" is rational arithmetic in the interpreter, like
    lieflow's exact solvers; "numeric" is SciPy's expm on a 6x6 matrix and
    batched 8x8 NumPy products, like flowsim's evidence; "interp" is a plain
    bytecode loop, which tracks interpreter start-up and imports.
    """
    if kind == "interp":
        t0 = time.process_time()
        s = 0
        for i in range(13000):
            s += i * i % 7
        return time.process_time() - t0
    import numpy as np

    d = _CALIB_DATA
    if not d:
        d.update(a=np.random.RandomState(0).rand(6, 6), b=np.random.RandomState(1).rand(64, 8, 8))
    if kind == "numeric" and "expm" not in d:
        import scipy.linalg

        d["expm"] = scipy.linalg.expm
    t0 = time.process_time()
    if kind == "exact":
        s = F(0)
        for i in range(1, 241):
            s += F(1, i)
        x = d["a"]
        for _ in range(80):
            x = (x @ d["a"]) * 0.3
    else:
        s = F(0)
        for i in range(1, 121):
            s += F(1, i)
        for _ in range(8):
            d["expm"](d["a"])
        for _ in range(10):
            np.einsum("tij,tij->t", d["b"] @ d["b"], d["b"])
    return time.process_time() - t0


class SetupCalibration:
    """Calibration during set-up: the median of five "interp" runs (set-up is
    interpreter start and imports on every workload) at each of a few points.
    Their CPU time is not part of set-up."""

    def __init__(self):
        self.points: list[float] = []
        self.cost = 0.0

    def sample(self) -> None:
        t0 = time.process_time()
        self.points.append(sorted(calibration_time("interp") for _ in range(5))[2])
        self.cost += time.process_time() - t0


def _ready(calib: SetupCalibration) -> None:
    """Tell the parent the set-up CPU time, when set-up ended, and the mean
    calibration time over set-up, sampled at its start, middle and end."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    cpu = usage.ru_utime + usage.ru_stime + cpu_children() - calib.cost
    ready = time.monotonic()
    calib.sample()
    mean = sum(calib.points) / len(calib.points)
    sys.stdout.write(f"READY {cpu!r} {ready!r} {mean!r}\n")
    sys.stdout.flush()


def _matrix(rows):
    return tuple(tuple(F(v) for v in row) for row in rows)


def _verdict_key(v) -> list:
    return ["ok", v.tag, v.reason, repr(v.period) if v.period is not None else None,
            str(v.period_over_pi) if v.period_over_pi is not None else None]


# --- per-workload ops ------------------------------------------------------------


class ClassifyOps:
    """classify_linear_flow on a rational derivation."""

    clock = staticmethod(time.process_time)

    def __init__(self, lieflow, inputs):
        self.lf = lieflow
        self.items = [(lieflow.liealg.algebra_from_dict(x["algebra"]), _matrix(x["matrix"]))
                      for x in inputs]

    def run(self, i):
        sc, mat = self.items[i]
        return self.lf.periodicity.classify_linear_flow(sc, mat)

    def key(self, out):
        return _verdict_key(out)


class DerivationOps:
    """The `lieflow derivations --file` path on an algebra dict."""

    clock = staticmethod(time.process_time)

    def __init__(self, lieflow, inputs):
        self.lf = lieflow
        self.items = [x["algebra"] for x in inputs]

    def run(self, i):
        sc = self.lf.liealg.algebra_from_dict(self.items[i])
        report = self.lf.liealg.validate_algebra(sc)
        if not report.jacobi_ok:
            return ("jacobi", None)
        return ("ok", self.lf.dersolve.derivation_space(sc))

    def key(self, out):
        status, space = out
        if space is None:
            return [status]
        return [status, space.dim, [[[str(v) for v in row] for row in b.entries]
                                    for b in space.basis]]


class EvidenceOps:
    """verify_verdict on verdicts computed before timing."""

    clock = staticmethod(time.process_time)

    def __init__(self, lieflow, inputs):
        self.lf = lieflow
        self.items = []
        self.verdicts = []
        for x in inputs:
            sc, mat = lieflow.liealg.algebra_from_dict(x["algebra"]), _matrix(x["matrix"])
            try:
                verdict = lieflow.periodicity.classify_linear_flow(sc, mat)
            except Exception as exc:  # judged in the parent as a classify failure
                verdict = None
                self.verdicts.append(["exc", type(exc).__name__])
            else:
                self.verdicts.append(_verdict_key(verdict))
            self.items.append((sc, mat, verdict))

    def run(self, i):
        sc, mat, verdict = self.items[i]
        if verdict is None:
            raise LookupError("no verdict to verify")
        return self.lf.flowsim.verify_verdict(sc, mat, verdict)

    def key(self, out):
        return ["ok", out.passed, out.inconclusive, not spans.all_finite(out.details)]


class CliOps:
    """One `python -m lieflow.cli ...` process per op.

    With `span_dir` set, each process runs through tracecli.py instead and
    leaves its spans in a file, which are merged under the op's id.
    """

    clock = staticmethod(cpu_children)

    def __init__(self, inputs, span_dir=None):
        self.argvs = [x["argv"] for x in inputs]
        self.span_dir = span_dir
        self.spans: list[list] = []
        self.op = None

    def run(self, i):
        if self.span_dir is None:
            cmd = [sys.executable, "-m", "lieflow.cli", *self.argvs[i]]
        else:
            span_file = os.path.join(self.span_dir, "cli-spans.json")
            cmd = [sys.executable, os.path.join(HERE, "tracecli.py"), span_file,
                   *self.argvs[i]]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        if self.span_dir is not None:
            with open(span_file, encoding="utf-8") as fh:
                got = json.load(fh)
            os.remove(span_file)
            base = len(self.spans)
            for name, start, end, parent, _op, obs in got:
                self.spans.append([name, start, end, parent + base if parent >= 0 else -1,
                                   self.op, obs])
        return proc.returncode, proc.stdout

    def key(self, out):
        return ["ok", out[0], out[1]]


# --- the closed loop -----------------------------------------------------------------


def timed_loop(ops, n_items, seconds, calib_kind, tracer=None, op_base=0):
    """Round-robin over the pool until `seconds` of wall time have passed and
    one full pass is done. Each record is (pass, item, CPU seconds, output
    matches the item's first output, wall seconds, calibration seconds); the
    calibration time is the mean of the runs just before and just after the
    op, and the output key is built after the clocks stop."""
    records = []
    first: dict[int, list] = {}
    wall, cpu = time.perf_counter, ops.clock
    calib_before = calibration_time(calib_kind)
    start = wall()
    op = op_base
    passes = 0
    while True:
        stop = False
        for i in range(n_items):
            if tracer is not None:
                tracer.op = op
            ops.op = op
            w0, c0 = wall(), cpu()
            try:
                out = ops.run(i)
            except Exception as exc:  # every op outcome is checked, not dropped
                c1, w1 = cpu(), wall()
                result = ["exc", type(exc).__name__]
            else:
                c1, w1 = cpu(), wall()
                result = ops.key(out)
            if tracer is not None:
                tracer.op = None
            calib_after = calibration_time(calib_kind)
            first.setdefault(i, result)
            records.append((passes, i, c1 - c0, result == first[i], w1 - w0,
                            (calib_before + calib_after) / 2))
            calib_before = calib_after
            op += 1
            if w1 - start >= seconds and passes >= 1:
                stop = True
                break
        if stop:
            break
        passes += 1
        if wall() - start >= seconds:
            break
    return records, first, passes, op


# --- warm-up and self-check ------------------------------------------------------


def run_selfcheck(lf, cases) -> dict:
    """Outputs of lieflow on the fixed self-check cases; they double as warm-up."""
    out = {}
    for case in cases:
        sc = lf.liealg.algebra_from_dict(case["algebra"])
        try:
            if case["kind"] == "invariant":
                out[case["name"]] = _verdict_key(
                    lf.periodicity.classify_invariant_flow(sc, [F(v) for v in case["inner"]]))
            elif case["kind"] == "linear":
                out[case["name"]] = _verdict_key(
                    lf.periodicity.classify_linear_flow(sc, _matrix(case["matrix"])))
            else:
                mat = _matrix(case["matrix"])
                verdict = lf.periodicity.classify_linear_flow(sc, mat)
                ev = lf.flowsim.verify_verdict(sc, mat, verdict)
                out[case["name"]] = ["ok", ev.passed, ev.inconclusive,
                                     not spans.all_finite(ev.details)]
        except Exception as exc:  # a refusal is an answer the parent judges
            out[case["name"]] = ["exc", type(exc).__name__]
    return out


def warm_cli(lf_cli, inputs) -> dict:
    """CPU time of lieflow.cli.main(argv) in process, after one untimed call
    per command."""
    per_kind: dict[str, list[float]] = {}
    per_item = []
    sink = io.StringIO()
    for x in inputs:
        times = []
        for _ in range(3):
            sink.seek(0)
            sink.truncate()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                t0 = time.process_time()
                lf_cli.main(list(x["argv"]))
                times.append(time.process_time() - t0)
        warm = sorted(times[1:])[0]
        per_item.append(warm)
        per_kind.setdefault(x["kind"], []).append(warm)
    return {"per_kind": {k: sum(v) / len(v) for k, v in per_kind.items()},
            "per_item": per_item}


def catalog_probes(lf) -> dict:
    """Median-of-three CPU times of direct calls of the catalog's whole-table
    functions."""
    out = {}
    for name in ("cross_check_all", "verdict_table"):
        fn = getattr(lf.catalog, name)
        times = []
        for _ in range(3):
            t0 = time.process_time()
            result = fn()
            times.append(time.process_time() - t0)
        out[f"catalog.{name}.ms"] = 1e3 * sorted(times)[1]
        if name == "cross_check_all":
            out["catalog.flagged_entries"] = len({r.name for r in result
                                                  if r.flagged_locations()})
    return out


def _loop_result(records, first, passes) -> dict:
    return {"records": records, "first": {str(k): v for k, v in first.items()},
            "passes": passes}


CALIBRATION = {"evidence": "numeric", "cli-cold": "interp"}


def pin_to_one_cpu() -> None:
    """Keep this process and the processes it starts on one CPU, so that the
    calibration measured around an op runs where the op ran."""
    if hasattr(os, "sched_setaffinity"):
        try:
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        except OSError:
            pass  # not permitted here: the calibration still runs around every op


def main(job_path: str) -> int:
    pin_to_one_cpu()
    setup_calib = SetupCalibration()
    setup_calib.sample()
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    workload, inputs = job["workload"], job["inputs"]
    result: dict = {}
    if workload == "cli-cold":
        warm = subprocess.run([sys.executable, "-m", "lieflow.cli", "catalog", "list"],
                              capture_output=True, timeout=120)
        if warm.returncode != 0:
            sys.stderr.write(warm.stderr.decode(errors="replace"))
            return 2
        setup_calib.sample()
        ops = CliOps(inputs)
    else:
        import lieflow
        import lieflow.cli  # noqa: F401  (every module, as a CLI user loads them)

        setup_calib.sample()

        result["selfcheck"] = run_selfcheck(lieflow, job["selfcheck"])
        if workload == "classify-mix":
            ops = ClassifyOps(lieflow, inputs)
        elif workload == "derivation-solve":
            ops = DerivationOps(lieflow, inputs)
            DerivationOps(lieflow, [{"algebra": job["warmup_algebra"]}]).run(0)
        else:
            ops = None
    _ready(setup_calib)
    calib_kind = CALIBRATION.get(workload, "exact")
    if job["setup_only"]:
        return 0

    if workload == "evidence":
        # Verdicts are computed once here, after set-up and before timing.
        ops = EvidenceOps(lieflow, inputs)
        result["verdicts"] = ops.verdicts
    seconds = job["seconds"]
    n = len(inputs)
    if not job["trace"]:
        result["untraced"] = _loop_result(*timed_loop(ops, n, seconds, calib_kind)[:3])
    else:
        records, first, passes, next_op = timed_loop(ops, n, seconds / 2, calib_kind)
        result["untraced"] = _loop_result(records, first, passes)
        if workload == "cli-cold":
            span_dir = os.path.join(job["workdir"], "cli-spans")
            os.makedirs(span_dir, exist_ok=True)
            ops = CliOps(inputs, span_dir)
            records, first, passes, _ = timed_loop(ops, n, seconds / 2, calib_kind,
                                                   op_base=next_op)
            span_list = ops.spans
        else:
            tracer = spans.Tracer()
            tracer.install()
            try:
                records, first, passes, _ = timed_loop(ops, n, seconds / 2, calib_kind,
                                                       tracer, op_base=next_op)
            finally:
                tracer.uninstall()
            span_list = tracer.spans
        result["traced"] = _loop_result(records, first, passes)
        op_tags = None
        if workload == "evidence":
            op_tags = {next_op + k: result["verdicts"][rec[1]][1]
                       for k, rec in enumerate(records)}
        layers = spans.layer_metrics(span_list, len(records), op_tags)
        if workload == "cli-cold":
            import lieflow
            import lieflow.cli

            result["warm_cli"] = warm_cli(lieflow.cli, inputs)
            layers.update(catalog_probes(lieflow))
        result["layers"] = layers
        spans.write_csv(span_list, os.path.join(
            job["workdir"], f"spans-{workload}.csv"))

    usage = resource.RUSAGE_CHILDREN if workload == "cli-cold" else resource.RUSAGE_SELF
    result["peak_rss_mb"] = resource.getrusage(usage).ru_maxrss / 1024.0
    sys.stdout.write(json.dumps(result) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
