"""Command-line front end.

Subcommands: classify, derivations, catalog (list / export / cross-check /
verdict-table), simulate. Output is JSON by default, or text with --format
text. A JSON document holds the library's own objects, written by one rule
(`_json_value`): a dataclass as its fields in declaration order, a Fraction
as its 'p/q' text, and NaN or Infinity refused. Only simulate, the numerical
evidence layer, takes --tol-period, --tol-separation, --horizon and
--samples, each stored under the name of the flowsim.ToleranceConfig field
it sets; the exact commands read no tolerance. Exit codes: 0 = document
produced (or simulate check passed), 1 = simulate check failed or runtime
guard tripped (a period or matrix entry beyond the float range, an
exponential above flowsim.EXPM_NORM_GUARD), 2 = invalid input (bad matrix,
failed Jacobi, non-derivation, a --param that no entry takes). Verdicts are
exact and read no tolerance, so no input is refused. A closed stdout (as in
`lieflow catalog verdict-table | head -1`) ends the run with exit 1 and no
traceback.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from dataclasses import fields, is_dataclass, replace
from fractions import Fraction

from . import catalog as cat
from . import flowsim
from .dersolve import (DerivationMatrix, NotADerivationError, derivation, derivation_space,
                       inner_derivation)
from .liealg import StructureConstants, algebra_to_dict, load_algebra, validate_algebra
from .periodicity import PeriodTooLargeError, classify_flow, classify_invariant_flow

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_BAD_INPUT = 2
MAX_SAMPLES = 10**4  # NoPeriodicOrbits evidence forms samples^2 products


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_BAD_INPUT):
        super().__init__(message)
        self.code = code


def _parse_rational(text: str) -> Fraction:
    """Exact scalar from 'p/q' or integer text; decimals convert with a warning."""
    text = text.strip()
    try:
        value = Fraction(text)  # accepts decimal strings exactly
    except (ValueError, ZeroDivisionError) as exc:
        raise CliError(f"cannot parse scalar {text!r}") from exc
    try:
        float(value)
    except OverflowError as exc:
        raise CliError(f"scalar {text!r} is too large for a float") from exc
    if re.fullmatch(r"[+-]?\d+(/\d+)?", text):
        return value
    print(
        f"warning: decimal input {text!r} converted exactly to {value}; "
        "pass p/q to silence this",
        file=sys.stderr,
    )
    return value


def _parse_scalar_list(text: str, expected: int, what: str) -> list[Fraction]:
    parts = text.split(",")
    if not all(p.strip() for p in parts):
        raise CliError(f"{what} has an empty entry")
    if len(parts) != expected:
        raise CliError(f"{what} needs {expected} entries, got {len(parts)}")
    return [_parse_rational(p) for p in parts]


def _parse_matrix(text: str, dim: int) -> tuple[tuple[Fraction, ...], ...]:
    """A dim x dim matrix from row-major --matrix entries."""
    entries = _parse_scalar_list(text, dim * dim, "--matrix")
    return tuple(tuple(entries[r * dim:(r + 1) * dim]) for r in range(dim))


_PI_FORM = re.compile(
    r"^(?P<num>\d+(?:/\d+)?)?\s*\*?\s*pi\s*(?:/\s*(?P<den>\d+))?$", re.IGNORECASE
)


def parse_period(text: str) -> float:
    """Accepts 'pi', '2pi', '3pi/4', 'p/q', or a decimal; positive and finite."""
    text = text.strip()
    m = _PI_FORM.match(text)
    try:
        if m:
            num = Fraction(m.group("num")) if m.group("num") else Fraction(1)
            den = int(m.group("den")) if m.group("den") else 1
            period = float(num) * math.pi / den
        else:
            period = float(Fraction(text))
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise CliError(f"cannot parse period {text!r}") from exc
    if not 0 < period < math.inf:
        raise CliError(f"period {text!r} must be positive and finite")
    return period


def _config_from_args(args) -> flowsim.ToleranceConfig:
    overrides = {f.name: getattr(args, f.name) for f in fields(flowsim.ToleranceConfig)
                 if getattr(args, f.name) is not None}
    if not all(0 < v < math.inf for v in overrides.values()):
        raise CliError("tolerances, horizon and samples must be positive and finite")
    if not 2 <= overrides.get("samples", 2) <= MAX_SAMPLES:
        raise CliError(f"--samples must lie between 2 and {MAX_SAMPLES}")
    return replace(flowsim.DEFAULT_CONFIG, **overrides)


def _add_algebra_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--catalog", metavar="NAME")
    group.add_argument("--file", metavar="PATH")
    parser.add_argument("--param", metavar="A", default=None,
                        help="family parameter for parametric catalog entries")


def _add_field_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--inner", metavar="COEFFS",
                       help="right-invariant field coefficients c1,c2,...; "
                       "write --inner=-1,0,0 when the first one is negative")
    group.add_argument("--matrix", metavar="ENTRIES",
                       help="derivation matrix entries, row-major; write "
                       "--matrix=-1,... when the first one is negative")


def _catalog_entry(name: str, param: str | None) -> cat.CatalogEntry:
    """Catalog entry `name` at the --param text, if given; both catalog errors
    become input errors (exit 2)."""
    try:
        return cat.get_entry(name, _parse_rational(param) if param is not None else None)
    except (cat.UnknownEntryError, cat.ParamOutOfRangeError) as exc:
        raise CliError(str(exc))


def _resolve_algebra(args) -> tuple[StructureConstants, cat.CatalogEntry | None, str]:
    if args.catalog is not None:
        entry = _catalog_entry(args.catalog, args.param)
        return entry.structure, entry, args.catalog
    try:
        sc = load_algebra(args.file)
    except (OSError, ValueError, KeyError, TypeError, RecursionError) as exc:  # null; deep nesting
        raise CliError(f"cannot load algebra from {args.file}: {exc}")
    report = validate_algebra(sc)
    if not report.jacobi_ok:
        raise CliError(
            f"algebra in {args.file} fails the Jacobi identity at basis "
            f"triple {report.worst_triple} with residual {report.residual}"
        )
    return sc, None, args.file


def _field(args, sc: StructureConstants) -> tuple[list[Fraction] | None, DerivationMatrix]:
    """The --inner coefficients (None for --matrix) and the field's derivation,
    built once and passed whole; a --matrix that is no derivation of `sc` raises
    NotADerivationError before any verdict, orbit or period check reads it."""
    if args.inner is not None:
        coeffs = _parse_scalar_list(args.inner, sc.dim, "--inner")
        return coeffs, inner_derivation(sc, coeffs)
    return None, derivation(sc, _parse_matrix(args.matrix, sc.dim))


# --- classify -----------------------------------------------------------------


def _cmd_classify(args) -> tuple[int, dict, str]:
    sc, _entry, source = _resolve_algebra(args)
    flow_kind = args.flow or ("linear" if args.inner is None else "invariant")
    if flow_kind == "invariant" and args.inner is None:
        raise CliError("--flow invariant requires --inner coefficients")
    if flow_kind == "invariant":
        verdict = classify_invariant_flow(sc, _parse_scalar_list(args.inner, sc.dim, "--inner"))
    else:
        verdict = classify_flow(_field(args, sc)[1])
    doc = {"algebra": source, "flow": flow_kind, "verdict": verdict}
    return EXIT_OK, doc, _render_verdict_text(doc)


def _render_verdict_text(doc: dict) -> str:
    v = doc["verdict"]
    lines = [f"algebra: {doc['algebra']}   flow: {doc['flow']}"]
    if v.tag == "PeriodicFlow":
        symbolic = f" (= {v.period_over_pi} * pi)" if v.period_over_pi else ""
        lines.append(f"verdict: PeriodicFlow, minimal period T = {v.period:.12g}{symbolic}")
        if v.profile:
            ratios = ", ".join(f"{p}/{q}" for p, q in v.profile.ratios)
            lines.append(f"frequency ratios vs base: {ratios}")
    elif v.tag == "NoPeriodicOrbits":
        lines.append(f"verdict: NoPeriodicOrbits ({v.reason})")
    elif v.tag == "IdentityFlow":
        lines.append("verdict: IdentityFlow (zero derivation; every point fixed)")
    else:
        lines.append(f"verdict: {v.tag}")
        if v.note:
            lines.append(f"note: {v.note}")
    for caveat in v.caveats:
        lines.append(f"caveat: {caveat}")
    return "\n".join(lines)


# --- derivations ---------------------------------------------------------------


def _cmd_derivations(args) -> tuple[int, dict, str]:
    sc, _entry, source = _resolve_algebra(args)
    space = derivation_space(sc)
    doc = {
        "algebra": source,
        "dim": space.dim,
        "basis": [b.entries for b in space.basis],
    }
    lines = [f"algebra: {source}", f"derivation space dimension: {space.dim}"]
    for i, b in enumerate(space.basis):
        lines.append(f"basis[{i}]:")
        for row in b.entries:
            lines.append("  [" + ", ".join(map(str, row)) + "]")
    return EXIT_OK, doc, "\n".join(lines)


# --- catalog -------------------------------------------------------------------


def _cmd_catalog(args) -> tuple[int, object, str]:
    action = args.action
    if args.param is not None and action in ("list", "verdict-table"):
        raise CliError(f"catalog {action} takes no parameter")
    if action == "list":
        doc = [
            {
                "name": name,
                "display_name": cat.get_entry(name).display_name,
                "parametric": name in cat.PARAMETRIC_NAMES,
            }
            for name in cat.CATALOG_NAMES
        ]
        text = "\n".join(
            f"{d['name']:16s} {d['display_name']}"
            + ("  [needs --param a]" if d["parametric"] else "")
            for d in doc
        )
        return EXIT_OK, doc, text
    if action == "export":
        if not args.name:
            raise CliError("catalog export needs an entry name")
        entry = _catalog_entry(args.name, args.param)
        doc = algebra_to_dict(entry.structure)
        return EXIT_OK, doc, json.dumps(doc, indent=2)
    if action == "cross-check":
        if args.name in (None, "all"):
            # --param reaches the parametric families only; the others ignore it.
            pairs = [(name, args.param if name in cat.PARAMETRIC_NAMES else None)
                     for name in cat.CATALOG_NAMES]
        else:
            pairs = [(args.name, args.param)]
        reports = [cat.cross_check(_catalog_entry(name, a)) for name, a in pairs]
        return EXIT_OK, reports, "\n".join(_render_report_text(r) for r in reports)
    if action == "verdict-table":
        rows = cat.verdict_table()
        lines = []
        for r in rows:
            mark = "ok " if r.agrees_with_published else "XX "
            tag = r.verdict.tag
            if r.verdict.reason:
                tag += f"({r.verdict.reason})"
            param = f" a={r.param}" if r.param is not None else ""
            lines.append(f"{mark}{r.entry}{param:8s} {r.label:22s} {tag}")
        return EXIT_OK, rows, "\n".join(lines)
    raise CliError(f"unknown catalog action {action!r}")


def _render_report_text(r: cat.CrossCheckReport) -> str:
    lines = [
        f"{r.name}: derivation family "
        f"{'matches' if r.derivation_space_match else 'MISMATCH'}, "
        f"eigenvalue formula "
        f"{'matches' if r.eigenvalue_formula_match else 'MISMATCH'}"
    ]
    for d in r.discrepancies + r.known_print_issues:
        lines.append(f"  flag: {d.location}")
        lines.append(f"    published:  {d.published_value}")
        lines.append(f"    recomputed: {d.recomputed_value}")
    for note in r.notes:
        lines.append(f"  note: {note}")
    return "\n".join(lines)


# --- simulate -------------------------------------------------------------------


def _cmd_simulate(args) -> tuple[int, dict, str]:
    import numpy as np

    cfg = _config_from_args(args)
    sc, entry, source = _resolve_algebra(args)
    coeffs, mat = _field(args, sc)

    doc: dict = {"algebra": source}
    notes = []
    lines = [f"algebra: {source}"]

    if args.csv:
        ts = np.linspace(0.0, cfg.horizon, cfg.samples)
        if entry is not None and entry.representation is not None and coeffs is not None:
            rep = entry.representation
            samples = flowsim.invariant_orbit(rep, coeffs, np.eye(len(rep[0])), ts)
            doc["orbit"] = "group-level invariant orbit exp(tX)"
        else:
            flows = flowsim.expm(mat, ts)
            samples = [flowsim.FlowSample(float(t), m) for t, m in zip(ts, flows)]
            doc["orbit"] = "algebra-level flow e^{tD}"
            if coeffs is not None:
                notes.append(
                    "no matrix representation available; simulated at algebra level"
                )
        try:
            flowsim.write_orbit_csv(samples, args.csv)
        except OSError as exc:
            raise CliError(f"cannot write {args.csv}: {exc}")
        doc["csv"] = args.csv
        lines.append(f"orbit written to {args.csv} ({doc['orbit']})")

    if args.check_period is not None:
        period = parse_period(args.check_period)
        report = flowsim.flow_period_residual(mat, period, cfg=cfg)
        passed = report.max_residual <= cfg.period_tol
        # e^{TD} = I with D != 0 needs an eigenvalue 2*pi*i*k/T, k != 0, so
        # T*||D||_1 >= T*rho(D) >= 2*pi; a shorter T passes only by its
        # residual, about T*||D||, being small.
        norm = max(sum(abs(row[j]) for row in mat.entries) for j in range(mat.dim))
        if passed and norm and Fraction(period) * norm < Fraction(2 * math.pi * (1 - 1e-12)):
            passed = False
            notes.append("T*||D||_1 < 2*pi: no period of a nonzero D is that short")
        doc["period_checked"] = period
        doc["max_residual"], nonfinite = _nulled(report.max_residual)
        if nonfinite:
            doc["nonfinite"] = True
        doc["passed"] = passed
        lines.append(
            f"period check T = {period:.12g}: max residual "
            f"{report.max_residual:.3e} -> {'pass' if passed else 'fail'}"
        )
        code = EXIT_OK if passed else EXIT_FAIL
    else:
        verdict = classify_flow(mat)
        evidence = flowsim.verify_verdict(sc, mat, verdict, cfg)
        doc["verdict"] = verdict
        doc["evidence"], nonfinite = _nulled(vars(evidence))
        if nonfinite:
            doc["evidence"]["nonfinite"] = True
        lines.append(f"verdict: {verdict.tag}")
        lines.append(
            f"evidence: {'pass' if evidence.passed else 'fail'}"
            + (" (inconclusive grid)" if evidence.inconclusive else "")
        )
        code = EXIT_OK if evidence.passed else EXIT_FAIL
    doc["notes"] = notes
    lines += [f"note: {note}" for note in notes]
    return code, doc, "\n".join(lines)


_JSON_LEAVES = frozenset({str, int, float, bool, type(None)})


def _json_value(value):
    """The JSON value of a document part: a Fraction as its 'p/q' text, a
    dataclass as its instance dict (its fields in declaration order), a tuple
    or list as a list, a dict walked, anything else as it is, for json.dumps
    to refuse with TypeError if it is no JSON value. Types are compared
    exactly and leaves are not walked: a failing isinstance(x, Fraction) is
    slow."""
    kind = type(value)
    if kind is Fraction:
        return str(value)
    if kind is tuple or kind is list:
        return [v if type(v) in _JSON_LEAVES else _json_value(v) for v in value]
    if kind is dict:
        return {k: v if type(v) in _JSON_LEAVES else _json_value(v) for k, v in value.items()}
    if is_dataclass(kind):
        return _json_value(vars(value))
    return value


def _nulled(value):
    """`value` with each non-finite float replaced by None (strict JSON has no
    NaN or Infinity), and whether there was one."""
    if isinstance(value, float) and not math.isfinite(value):
        return None, True
    if isinstance(value, dict):
        pairs = {k: _nulled(v) for k, v in value.items()}
        return {k: v for k, (v, _) in pairs.items()}, any(f for _, f in pairs.values())
    return value, False


# --- entry point ----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lieflow",
        description="Decide periodicity of linear/invariant flows on Lie "
        "groups from derivation spectra, exactly.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_classify = sub.add_parser("classify", help="classify a flow")
    p_classify.set_defaults(handler=_cmd_classify)
    _add_algebra_flags(p_classify)
    _add_field_flags(p_classify)
    p_classify.add_argument("--flow", choices=("linear", "invariant"), default=None,
                            help="override the flow kind (default: invariant "
                            "for --inner, linear for --matrix)")

    p_der = sub.add_parser("derivations", help="print the derivation space")
    p_der.set_defaults(handler=_cmd_derivations)
    _add_algebra_flags(p_der)

    p_cat = sub.add_parser("catalog", help="catalog operations")
    p_cat.set_defaults(handler=_cmd_catalog)
    p_cat.add_argument("action",
                       choices=("list", "export", "cross-check", "verdict-table"))
    p_cat.add_argument("name", nargs="?", default=None)
    p_cat.add_argument("--param", metavar="A", default=None)

    p_sim = sub.add_parser("simulate", help="numerical flow verification")
    p_sim.set_defaults(handler=_cmd_simulate)
    _add_algebra_flags(p_sim)
    _add_field_flags(p_sim)
    p_sim.add_argument("--check-period", metavar="T", default=None,
                       help="period to verify ('pi', '2pi', '3pi/4', or a number)")
    p_sim.add_argument("--csv", metavar="PATH", default=None,
                       help="write orbit samples as CSV")
    p_sim.add_argument("--tol-period", dest="period_tol", metavar="TOL_PERIOD", type=float)
    p_sim.add_argument("--tol-separation", dest="separation", metavar="TOL_SEPARATION",
                       type=float)
    p_sim.add_argument("--horizon", type=float, default=None)
    p_sim.add_argument("--samples", type=int, default=None)
    for p in (p_classify, p_der, p_cat, p_sim):
        p.add_argument("--format", choices=("json", "text"), default="json")
    return parser


def main(argv: list[str] | None = None) -> int:
    # Before NumPy can load: the evidence multiplies small matrices, on which
    # OpenBLAS's worker threads only spin. A value the user set wins.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    os.environ.setdefault("OMP_NUM_THREADS", "1")
    limit = getattr(sys, "get_int_max_str_digits", int)()  # 0 means none, as before 3.10.7
    if limit:  # exact values print and parse in full, past 4300 digits, until main returns
        sys.set_int_max_str_digits(0)
    try:
        args = build_parser().parse_args(argv)
        code, doc, text = args.handler(args)
        if args.format == "json":
            # One walk, not a default= hook, which encodes the verdict table
            # half as fast; its tree is fresh, so no container recurs in it.
            text = json.dumps(_json_value(doc), indent=2, allow_nan=False,
                              check_circular=False)
        print(text)
        sys.stdout.flush()
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except NotADerivationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except (PeriodTooLargeError, flowsim.ExpmOverflowError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except BrokenPipeError:
        # The reader closed stdout (`| head -1`). As the CPython signal docs
        # advise, point stdout at devnull so the flush at exit cannot fail
        # again, and exit 1 as Python does on EPIPE.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_FAIL
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    return code


if __name__ == "__main__":
    sys.exit(main())
