"""Span tracing from outside lieflow, by wrapping its public functions.

`Tracer.install()` replaces each target function with a timing wrapper in
every loaded `lieflow.*` module that holds it, so a call is traced whether it
is looked up as `lieflow.flowsim.expm` or through a `from .spectral import
spectrum` binding in another module. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import math
import sys
import time

TARGETS = {
    "liealg": ("algebra_from_dict", "validate_algebra"),
    "dersolve": ("constraint_rows", "derivation_space", "leibniz_residual",
                 "inner_derivation"),
    "_linalg": ("rref",),
    "spectral": ("char_poly", "spectrum"),
    "periodicity": ("classify_flow", "classify_linear_flow", "classify_invariant_flow"),
    "flowsim": ("expm", "verify_verdict"),
    "catalog": ("get_entry", "cross_check", "cross_check_all", "verdict_table"),
    "cli": ("main",),
}


def _observe(name, out):
    """Small facts about a return value, kept on the span for ratios."""
    if name == "_linalg.rref":
        reduced = out[0]
        return len(reduced) * (len(reduced[0]) if reduced else 0)
    if name == "spectral.spectrum":
        return (len(out.classes), sum(c.exact for c in out.classes), out.ill_conditioned)
    if name == "periodicity.classify_flow":
        return (out.tag, out.period_over_pi is not None)
    if name == "flowsim.verify_verdict":
        return (out.passed, out.inconclusive, not all_finite(out.details))
    return None


def all_finite(value) -> bool:
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, dict):
        return all(all_finite(v) for v in value.values())
    return True


class Tracer:
    """Spans are [name, start, end, parent index, op id, observation]."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        # CPU time of the process, like the op times (see worker.py).
        spans, stack, clock = self.spans, self._stack, time.process_time

        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
                rec[5] = _observe(name, out)
                return out
            except Exception as exc:
                rec[5] = ("raised", type(exc).__name__)
                raise
            finally:
                rec[2] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        import lieflow.cli  # noqa: F401  (loads every lieflow module)

        wrappers = {}
        for mod_name, fns in TARGETS.items():
            mod = sys.modules[f"lieflow.{mod_name}"]
            for fn_name in fns:
                original = getattr(mod, fn_name)
                wrappers[id(original)] = self._wrap(f"{mod_name}.{fn_name}", original)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "lieflow" and not mod_name.startswith("lieflow."):
                continue
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrappers[id(value)])

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()



def write_csv(spans, path: str) -> None:
    """All spans of a run, written once at its end."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("name,start,end,parent,op\n")
        for name, start, end, parent, op, _ in spans:
            fh.write(f"{name},{start!r},{end!r},{parent},{op}\n")


def layer_metrics(spans, ops: int, op_tags: dict | None = None) -> dict:
    """Per-layer figures from the spans of `ops` traced ops.

    `.ms` and `.self_ms` are milliseconds inside a function per op, `.calls`
    are calls per op. `op_tags` maps an op id to the verdict tag it verified,
    for the expm call counts split by tag.
    """
    ops = max(ops, 1)
    total: dict[str, float] = {}
    self_t: dict[str, float] = {}
    calls: dict[str, int] = {}
    for name, start, end, parent, _op, _obs in spans:
        dur = end - start
        total[name] = total.get(name, 0.0) + dur
        self_t[name] = self_t.get(name, 0.0) + dur
        calls[name] = calls.get(name, 0) + 1
        if parent >= 0:
            pname = spans[parent][0]
            self_t[pname] = self_t.get(pname, 0.0) - dur

    def ms(name):
        return 1e3 * total.get(name, 0.0) / ops

    def self_ms(name):
        return 1e3 * self_t.get(name, 0.0) / ops

    def per_op(name):
        return calls.get(name, 0) / ops

    def ratio(num, den):
        return num / den if den else 0.0

    obs = {}
    for rec in spans:
        obs.setdefault(rec[0], []).append(rec)
    gate = sum(1 for r in obs.get("dersolve.leibniz_residual", ())
               if r[3] >= 0 and spans[r[3]][0] == "periodicity.classify_linear_flow")
    def results(name):
        """Observations of calls that returned (spans from a CLI process
        come back from JSON, so tuples arrive as lists)."""
        return [r[5] for r in obs.get(name, ()) if r[5] is not None and r[5][0] != "raised"]

    spectra = results("spectral.spectrum")
    periodic = [v for v in results("periodicity.classify_flow") if v[0] == "PeriodicFlow"]
    refusals = [r for r in obs.get("periodicity.classify_flow", ())
                if r[5] is not None and list(r[5]) == ["raised", "IllConditionedSpectrumError"]]
    evidence = results("flowsim.verify_verdict")

    out = {
        "liealg.algebra_from_dict.ms": ms("liealg.algebra_from_dict"),
        "liealg.validate_algebra.ms": ms("liealg.validate_algebra"),
        "liealg.validate_algebra.calls": per_op("liealg.validate_algebra"),
        "dersolve.constraint_rows.ms": ms("dersolve.constraint_rows"),
        "dersolve.derivation_space.self_ms": self_ms("dersolve.derivation_space"),
        "dersolve.leibniz_residual.ms": ms("dersolve.leibniz_residual"),
        "dersolve.leibniz_residual.calls": per_op("dersolve.leibniz_residual"),
        "dersolve.leibniz_gate_ratio": ratio(gate, calls.get("dersolve.leibniz_residual", 0)),
        "linalg.rref.ms": ms("_linalg.rref"),
        "linalg.rref.calls": per_op("_linalg.rref"),
        "linalg.rref.cells": sum(r[5] for r in obs.get("_linalg.rref", ())
                                 if isinstance(r[5], int)) / ops,
        "spectral.char_poly.ms": ms("spectral.char_poly"),
        "spectral.spectrum.self_ms": self_ms("spectral.spectrum"),
        "spectral.spectrum.calls": per_op("spectral.spectrum"),
        "spectral.exact_class_ratio": ratio(sum(s[1] for s in spectra),
                                            sum(s[0] for s in spectra)),
        "spectral.ill_conditioned_ratio": ratio(sum(1 for s in spectra if s[2]), len(spectra)),
        "periodicity.classify_flow.self_ms": self_ms("periodicity.classify_flow"),
        "periodicity.exact_period_ratio": ratio(sum(1 for v in periodic if v[1]), len(periodic)),
        "periodicity.refusals": len(refusals) / ops,
        "flowsim.expm.calls_per_op": per_op("flowsim.expm"),
        "flowsim.expm.ms": ms("flowsim.expm"),
        "flowsim.verify_verdict.self_ms": self_ms("flowsim.verify_verdict"),
        "flowsim.evidence_passed_ratio": ratio(sum(1 for e in evidence if e[0]), len(evidence)),
        "flowsim.evidence_inconclusive_ratio": ratio(sum(1 for e in evidence if e[1]),
                                                     len(evidence)),
        "flowsim.nonfinite_residuals": sum(1 for e in evidence if e[2]) / ops,
        "catalog.get_entry.ms": ms("catalog.get_entry"),
    }
    for tag in ("PeriodicFlow", "NoPeriodicOrbits", "IdentityFlow"):
        out[f"flowsim.expm.calls_per_op.{tag}"] = _expm_calls_for_tag(spans, op_tags, tag)
    return out


def _expm_calls_for_tag(spans, op_tags, tag) -> float:
    """expm calls per op among ops whose verify_verdict of a `tag` verdict
    returned; an op the norm guard stopped part-way is left out."""
    if not op_tags:
        return 0.0
    counts = {r[4]: 0 for r in spans if r[0] == "flowsim.verify_verdict"
              and op_tags.get(r[4]) == tag and r[5] is not None and r[5][0] != "raised"}
    if not counts:
        return 0.0
    for name, _s, _e, _p, op, _o in spans:
        if name == "flowsim.expm" and op in counts:
            counts[op] += 1
    return sum(counts.values()) / len(counts)
