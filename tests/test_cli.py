"""CLI surface: exit codes, JSON schema stability, formats, files."""

import argparse
import json
import math
import os
import pathlib
import re
import subprocess
import sys
from fractions import Fraction

import pytest

import lieflow
from lieflow import flowsim
from lieflow.cli import _nulled, build_parser, main, parse_period


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    return code, json.loads(out) if out.strip() else None, err


def test_classify_inner_builds_its_derivation_once(capsys, monkeypatch):
    real, calls = lieflow.dersolve.ad, []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(lieflow.dersolve, "ad", counted)
    code, doc, _ = run_json(capsys, "classify", "--catalog", "sl2", "--inner", "1,0,0")
    assert (code, doc["verdict"]["tag"]) == (0, "PeriodicFlow")
    assert len(calls) == 1


def test_classify_sl2_inner_periodic(capsys):
    code, doc, _ = run_json(
        capsys, "classify", "--catalog", "sl2", "--inner", "1,0,0"
    )
    assert code == 0
    assert doc["flow"] == "invariant"
    assert doc["verdict"]["tag"] == "PeriodicFlow"
    assert abs(doc["verdict"]["period"] - math.pi) < 1e-12
    assert doc["verdict"]["period_over_pi"] == "1"
    assert doc["verdict"]["caveats"]


def test_classify_aff2_matrix_no_periodic(capsys):
    code, doc, _ = run_json(
        capsys, "classify", "--catalog", "aff2", "--matrix", "0,0,0,1"
    )
    assert code == 0
    assert doc["verdict"]["tag"] == "NoPeriodicOrbits"
    assert doc["verdict"]["reason"] == "RealNonzeroEigenvalue"


def test_classify_non_derivation_exits_2(capsys):
    code, out, err = run_cli(
        capsys, "classify", "--catalog", "sl2", "--matrix", "1,0,0,0,0,0,0,0,0"
    )
    assert code == 2
    assert "Leibniz" in err


def test_classify_wrong_entry_count_exits_2(capsys):
    code, _, err = run_cli(
        capsys, "classify", "--catalog", "sl2", "--matrix", "1,2,3"
    )
    assert code == 2
    assert "entries" in err


def test_classify_unknown_catalog_name(capsys):
    code, _, err = run_cli(
        capsys, "classify", "--catalog", "nope", "--inner", "1,0,0"
    )
    assert code == 2
    assert "unknown catalog entry" in err


def test_classify_linear_flow_of_inner_field(capsys):
    code, doc, _ = run_json(
        capsys, "classify", "--catalog", "abelian3", "--inner", "1,0,0",
    )
    assert code == 0
    assert doc["verdict"]["tag"] == "SpectralPeriodicInconclusive"
    code, doc, _ = run_json(
        capsys, "classify", "--catalog", "abelian3", "--inner", "1,0,0",
        "--flow", "linear",
    )
    assert code == 0
    assert doc["verdict"]["tag"] == "IdentityFlow"


def test_classify_decimal_input_warns(capsys):
    code, out, err = run_cli(
        capsys, "classify", "--catalog", "sl2", "--inner", "1.0,0,0"
    )
    assert code == 0
    assert "warning" in err and "converted exactly" in err


def test_classify_pairs_1e13_apart_exits_0_with_an_exact_verdict(capsys, tmp_path):
    # Abelian 6D accepts any matrix as a derivation; feed pairs 1e-13 apart.
    algebra = {"dim": 6, "brackets": []}
    path = tmp_path / "abelian6.json"
    path.write_text(json.dumps(algebra))
    blocks = [(0.3, 1.1), (0.3 + 1e-13, 1.1), (1.5, 3.7)]
    mat = [[0.0] * 6 for _ in range(6)]
    for i, (al, be) in enumerate(blocks):
        mat[2 * i][2 * i] = al
        mat[2 * i][2 * i + 1] = -be
        mat[2 * i + 1][2 * i] = be
        mat[2 * i + 1][2 * i + 1] = al
    entries = ",".join(repr(v) for row in mat for v in row)
    # The pairs are decided exactly from the integer characteristic
    # polynomial, so the input is classified, not refused.
    code, doc, _ = run_json(
        capsys, "classify", "--file", str(path), "--matrix", entries
    )
    assert code == 0
    assert doc["verdict"]["tag"] == "NoPeriodicOrbits"
    assert doc["verdict"]["reason"] == "NonzeroRealPart"


def test_derivations_heisenberg(capsys):
    code, doc, _ = run_json(capsys, "derivations", "--catalog", "g31_heisenberg")
    assert code == 0
    assert doc["dim"] == 6
    assert len(doc["basis"]) == 6
    first = doc["basis"][0]
    assert all(isinstance(v, str) for row in first for v in row)


def test_derivations_bad_jacobi_file_exits_2(capsys, tmp_path):
    bad = {
        "dim": 3,
        "brackets": [
            {"i": 1, "j": 2, "k": 2, "c": "1"},
            {"i": 1, "j": 3, "k": 3, "c": "1"},
            {"i": 2, "j": 3, "k": 1, "c": "1"},
        ],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, _, err = run_cli(capsys, "derivations", "--file", str(path))
    assert code == 2
    assert "Jacobi" in err


def test_catalog_list(capsys):
    code, doc, _ = run_json(capsys, "catalog", "list")
    assert code == 0
    names = [d["name"] for d in doc]
    assert "sl2" in names and "g35_a" in names
    assert all(
        d["parametric"] == (d["name"] in ("g34_a", "g35_a")) for d in doc
    )


def test_catalog_export_roundtrip_classification(capsys, tmp_path):
    code, doc, _ = run_json(capsys, "catalog", "export", "g31_heisenberg")
    assert code == 0
    path = tmp_path / "heis.json"
    path.write_text(json.dumps(doc))
    mat = "0,0,0,0,0,1,0,-1,0"
    code1, via_file, _ = run_json(
        capsys, "classify", "--file", str(path), "--matrix", mat
    )
    code2, via_catalog, _ = run_json(
        capsys, "classify", "--catalog", "g31_heisenberg", "--matrix", mat
    )
    assert code1 == code2 == 0
    assert via_file["verdict"] == via_catalog["verdict"]
    assert via_file["verdict"]["tag"] == "PeriodicFlow"


def test_catalog_cross_check_single(capsys):
    code, doc, _ = run_json(capsys, "catalog", "cross-check", "g33")
    assert code == 0
    (report,) = doc
    assert report["name"] == "g33"
    assert report["eigenvalue_formula_match"] is False
    assert report["discrepancies"]
    d = report["discrepancies"][0]
    assert set(d) == {"location", "published_value", "recomputed_value"}


def test_catalog_cross_check_all(capsys):
    code, doc, _ = run_json(capsys, "catalog", "cross-check", "all")
    assert code == 0
    flagged = {
        r["name"]
        for r in doc
        if r["discrepancies"] or r["known_print_issues"]
    }
    assert flagged == {
        "sl2", "abelian3", "g31_heisenberg", "g32", "g33", "g34_a", "g35_a"
    }


def test_catalog_verdict_table(capsys):
    code, doc, _ = run_json(capsys, "catalog", "verdict-table")
    assert code == 0
    assert any(
        row["entry"] == "g35_a" and not row["agrees_with_published"]
        for row in doc
    )
    assert all(
        row["agrees_with_published"]
        for row in doc
        if row["entry"] != "g35_a"
    )


def test_simulate_check_period_pass_and_fail(capsys):
    code, doc, _ = run_json(
        capsys, "simulate", "--catalog", "sl2", "--inner", "1,0,0",
        "--check-period", "pi",
    )
    assert code == 0 and doc["passed"] is True
    assert doc["max_residual"] <= 1e-8
    code, doc, _ = run_json(
        capsys, "simulate", "--catalog", "sl2", "--inner", "1,0,0",
        "--check-period", "1.0",
    )
    assert code == 1 and doc["passed"] is False


TOO_SHORT = "T*||D||_1 < 2*pi: no period of a nonzero D is that short"


@pytest.mark.parametrize("argv, passed", [
    # Residuals near 4.6e-9 and 1.4e-9, within --tol-period, yet the period
    # of the first flow is pi and the second is 10^10 times slower.
    (["--catalog", "sl2", "--inner", "1,0,0", "--check-period", "1e-9"], False),
    (["--catalog", "sl2", "--inner", "1/10000000000,0,0", "--check-period", "pi"], False),
    # T*||D||_1 = 2*pi exactly, up to rounding: a true period passes.
    (["--catalog", "abelian2", "--matrix=0,-1,1,0", "--check-period", "2pi"], True),
    # D = 0: every T is a period.
    (["--catalog", "abelian2", "--matrix", "0,0,0,0", "--check-period", "1e-9"], True),
], ids=["tiny-period", "slow-flow", "rotation-2pi", "zero-derivation"])
def test_simulate_check_period_needs_a_period_of_at_least_2pi_over_the_norm(
    capsys, argv, passed
):
    code, doc, _ = run_json(capsys, "simulate", *argv)
    assert (code, doc["passed"]) == ((0, True) if passed else (1, False))
    assert doc["max_residual"] <= 1e-8
    assert (TOO_SHORT in doc["notes"]) == (not passed)


def test_simulate_default_verifies_verdict(capsys):
    code, doc, _ = run_json(
        capsys, "simulate", "--catalog", "g31_heisenberg", "--inner", "0,0,1",
        "--horizon", "50",
    )
    assert code == 0
    assert doc["verdict"]["tag"] == "NoPeriodicOrbits"
    assert doc["evidence"]["passed"] is True


def test_simulate_csv_export(capsys, tmp_path):
    path = tmp_path / "orbit.csv"
    code, doc, _ = run_json(
        capsys, "simulate", "--catalog", "sl2", "--inner", "1,0,0",
        "--check-period", "pi", "--csv", str(path),
    )
    assert code == 0
    assert doc["orbit"].startswith("group-level")
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("t,m11")
    assert len(lines) > 10


def test_simulate_without_representation_notes_algebra_level(capsys, tmp_path):
    path = tmp_path / "orbit.csv"
    code, doc, _ = run_json(
        capsys, "simulate", "--catalog", "g33", "--inner", "0,0,1",
        "--check-period", "1.0", "--csv", str(path),
    )
    assert doc["orbit"].startswith("algebra-level")
    assert any("algebra level" in n for n in doc["notes"])


@pytest.mark.parametrize("argv", [
    ["--catalog", "sl2", "--inner", "1,0,0", "--check-period", "1e-9"],
    ["--catalog", "g33", "--inner", "0,0,1", "--check-period", "1.0", "--csv", "{csv}"],
], ids=["too-short", "algebra-level"])
def test_simulate_text_prints_every_note(capsys, tmp_path, argv):
    argv = [a.replace("{csv}", str(tmp_path / "orbit.csv")) for a in argv]
    _, doc, _ = run_json(capsys, "simulate", *argv)
    assert doc["notes"]
    _, out, _ = run_cli(capsys, "simulate", *argv, "--format", "text")
    assert out.splitlines()[-len(doc["notes"]):] == [f"note: {n}" for n in doc["notes"]]


def test_simulate_matrix_check_period(capsys):
    # Heisenberg rotation derivation given directly as a matrix.
    code, doc, _ = run_json(
        capsys, "simulate", "--catalog", "g31_heisenberg",
        "--matrix", "0,0,0,0,0,1,0,-1,0", "--check-period", "2pi",
    )
    assert code == 0 and doc["passed"] is True


def test_text_format_flag(capsys):
    code, out, _ = run_cli(
        capsys, "classify", "--catalog", "sl2", "--inner", "1,0,0",
        "--format", "text",
    )
    assert code == 0
    assert "PeriodicFlow" in out
    assert "pi" in out


def test_readme_names_every_long_option():
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    (sub,) = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = {o for p in sub.choices.values() for a in p._actions
               for o in a.option_strings if o.startswith("--") and o != "--help"}
    assert {"--catalog", "--flow", "--samples"} <= options
    assert [o for o in sorted(options)
            if not re.search(rf"(?<![\w-]){re.escape(o)}(?![\w-])", readme)] == []


def test_parse_period_forms():
    assert parse_period("pi") == math.pi
    assert parse_period("2pi") == 2 * math.pi
    assert parse_period("3pi/4") == 3 * math.pi / 4
    assert parse_period("pi/2") == math.pi / 2
    assert parse_period("3/2") == 1.5
    assert parse_period("2.75") == 2.75


def test_param_flag_for_parametric_entries(capsys):
    code, doc, _ = run_json(
        capsys, "classify", "--catalog", "g34_a", "--param", "3",
        "--matrix", "1,0,0,0,1,0,0,0,0",
    )
    assert code == 0
    assert doc["verdict"]["tag"] == "NoPeriodicOrbits"
    code, _, err = run_cli(
        capsys, "classify", "--catalog", "g34_a", "--param", "1",
        "--matrix", "1,0,0,0,1,0,0,0,0",
    )
    assert code == 2


def checkout_env():
    """Environment for a child interpreter that imports this lieflow."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(lieflow.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def cli_subprocess(*argv):
    """Run `python -m lieflow.cli` in a fresh interpreter."""
    return subprocess.run(
        [sys.executable, "-m", "lieflow.cli", *argv],
        capture_output=True, text=True, env=checkout_env(), timeout=120,
    )


def test_console_entry_point_runs():
    proc = cli_subprocess("catalog", "list")
    assert proc.returncode == 0
    assert "sl2" in proc.stdout


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="needs Linux's per-thread /proc entries")
def test_simulate_runs_on_one_thread():
    # main() pins OpenBLAS and OpenMP to one thread before NumPy loads, since
    # their pools only spin on the evidence's small matrices.
    env = checkout_env()
    env.pop("OPENBLAS_NUM_THREADS", None)
    env.pop("OMP_NUM_THREADS", None)
    script = ("import contextlib, io, os, sys\nfrom lieflow.cli import main\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              "    code = main(['simulate', '--catalog', 'sl2', '--inner=1,0,0'])\n"
              "print(code, len(os.listdir('/proc/self/task')))")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "1"]


ZERO_DENOMINATOR_ALGEBRA = {"dim": 3, "brackets": [{"i": 1, "j": 2, "k": 3, "c": "1/0"}]}


@pytest.mark.parametrize("argv", [
    ["classify", "--catalog", "sl2", "--inner", "1/0,0,0"],
    ["derivations", "--file", "{algebra}"],
    ["simulate", "--catalog", "sl2", "--inner", "1,0,0", "--samples", "1"],
    ["simulate", "--catalog", "sl2", "--inner", "1,0,0", "--check-period", "0"],
    ["classify", "--catalog", "sl2", "--inner", "1,,0,0"],
    # Not a derivation of sl2 (classify exits 2 on it): neither the period
    # check nor the orbit may run on it.
    ["simulate", "--catalog", "sl2", "--matrix=0,-1,0,1,0,0,0,0,0", "--check-period", "2pi"],
    ["simulate", "--catalog", "sl2", "--matrix=0,-1,0,1,0,0,0,0,0", "--csv", "{csv}"],
    ["derivations", "--file", "{deep}"],
    # --param is refused where no entry takes it, as classify and export do.
    ["catalog", "list", "--param", "2"],
    ["catalog", "verdict-table", "--param", "1/3"],
    ["catalog", "cross-check", "sl2", "--param", "2"],
    # Fraction refuses every non-finite form, as the period check would.
    *(["simulate", "--catalog", "sl2", "--inner", "1,0,0", f"--check-period={p}"]
      for p in ("inf", "-inf", "nan", "infinity")),
], ids=["inner-zero-denominator", "file-zero-denominator", "samples-1", "check-period-0",
        "inner-empty-field", "check-period-non-derivation", "csv-non-derivation",
        "file-nested-100000-deep", "list-param", "verdict-table-param",
        "cross-check-non-parametric-param", "check-period-inf", "check-period-minus-inf",
        "check-period-nan", "check-period-infinity"])
def test_bad_input_exits_2_without_traceback(argv, tmp_path):
    path = tmp_path / "zero_denominator.json"
    path.write_text(json.dumps(ZERO_DENOMINATOR_ALGEBRA))
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000)
    csv = tmp_path / "orbit.csv"
    proc = cli_subprocess(*(a.format(algebra=path, deep=deep, csv=csv) for a in argv))
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ")
    assert not csv.exists()


def strict_json(text):
    """json.loads that rejects NaN and Infinity, as strict JSON parsers do."""
    def reject(name):
        raise ValueError(f"non-strict JSON constant {name}")

    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("argv, nonfinite", [
    (["--catalog", "sl2", "--inner", "1,0,0"], False),
    (["--catalog", "g31_heisenberg", "--inner", "0,0,1"], False),
    (["--catalog", "aff2", "--matrix", "0,0,0,0"], False),
    (["--catalog", "aff2", "--matrix", "0,0,0,1000"], False),
    # Residuals near 1e217 and 1e282: finite since the scaled norm.
    (["--catalog", "aff2", "--matrix", "0,0,0,300"], False),
    (["--catalog", "sl2", "--inner", "1,0,0", "--check-period", "pi"], False),
    (["--catalog", "aff2", "--matrix", "0,0,0,300", "--check-period", "1"], False),
], ids=["periodic", "heisenberg", "identity", "short-horizon", "overflow",
        "check-period", "check-period-overflow"])
def test_simulate_output_is_strict_json(capsys, argv, nonfinite):
    code, out, _ = run_cli(capsys, "simulate", *argv)
    doc = strict_json(out)
    section = doc.get("evidence", doc)
    assert section.get("nonfinite", False) == nonfinite
    if nonfinite:
        assert code == 1
        if "evidence" in doc:
            assert doc["evidence"]["details"]["min_residual"] is None
            assert doc["evidence"]["inconclusive"] and not doc["evidence"]["passed"]
        else:
            assert doc["max_residual"] is None and not doc["passed"]


@pytest.mark.parametrize("beta", ["1/" + str(10**160), str(10**300), "1/" + str(10**300)],
                         ids=["1/10^160", "10^300", "1/10^300"])
def test_classify_extreme_rotation_period_matches_its_exact_form(capsys, beta):
    code, out, err = run_cli(capsys, "classify", "--catalog", "abelian2",
                             f"--matrix=0,{beta},-{beta},0")
    assert code == 0, err
    verdict = strict_json(out)["verdict"]
    want = float(Fraction(verdict["period_over_pi"])) * math.pi
    assert abs(verdict["period"] - want) <= 4 * math.ulp(want)


def test_nulled_replaces_nonfinite_floats():
    assert _nulled(1.5) == (1.5, False)
    assert _nulled(math.inf) == (None, True)
    assert _nulled({"a": 1.0, "b": {"c": math.nan}, "d": "x"}) == (
        {"a": 1.0, "b": {"c": None}, "d": "x"}, True)
    assert _nulled({"a": 1.0}) == ({"a": 1.0}, False)


def test_simulate_nonfinite_evidence_is_strict_json(capsys, monkeypatch):
    def overflowing(sc, mat, verdict, cfg=None):
        return flowsim.VerdictEvidence(False, True, {"min_residual": math.inf, "horizon": 1.0})

    monkeypatch.setattr(flowsim, "verify_verdict", overflowing)
    code, out, _ = run_cli(capsys, "simulate", "--catalog", "aff2", "--matrix", "0,0,0,1")
    doc = strict_json(out)
    assert code == 1
    assert doc["evidence"]["nonfinite"] is True
    assert doc["evidence"]["details"] == {"min_residual": None, "horizon": 1.0}
    assert doc["evidence"]["inconclusive"] and not doc["evidence"]["passed"]


def test_simulate_short_horizon_evidence_is_inconclusive(capsys):
    # The safe horizon 350/1000 is shorter than the smallest trial period.
    code, doc, _ = run_json(
        capsys, "simulate", "--catalog", "aff2", "--matrix", "0,0,0,1000"
    )
    assert code == 1
    assert doc["evidence"]["inconclusive"] and not doc["evidence"]["passed"]
    assert "min_residual" not in doc["evidence"]["details"]


@pytest.mark.parametrize("argv, algebra", [
    (["classify", "--catalog", "aff2", "--matrix", "0,0,0,1e400"], None),
    (["derivations", "--file", "{algebra}"], {"dim": 2, "brackets": {"i": 1}}),
    (["derivations", "--file", "{algebra}"], {"dim": 2, "brackets": [[1, 2, 2, "1"]]}),
    (["derivations", "--file", "{algebra}"],
     {"dim": 3, "brackets": [{"i": 1, "j": 2, "k": 3, "c": None}]}),
    (["simulate", "--catalog", "sl2", "--inner", "1,0,0", "--samples", "100000000000"],
     None),
    (["derivations", "--file", "{algebra}"],
     {"dim": 2.7, "brackets": [{"i": 1.5, "j": 2, "k": 2, "c": "1"}]}),
    (["derivations", "--file", "{algebra}"], {"dim": True}),
    (["derivations", "--file", "{algebra}"], {"dim": 100000}),
    (["classify", "--file", "{algebra}", "--inner", "1"], {"dim": 1e9}),
    (["simulate", "--catalog", "sl2", "--inner", "1,0,0", "--csv", "{tmp}"], None),
    (["simulate", "--catalog", "sl2", "--inner", "1,0,0", "--csv", "{tmp}/no/orbit.csv"],
     None),
], ids=["matrix-overflows-float", "brackets-object", "bracket-entry-list",
        "bracket-coefficient-null", "samples-too-many", "fractional-indices",
        "bool-dim", "dim-100000", "dim-1e9", "csv-to-directory",
        "csv-to-missing-directory"])
def test_more_bad_input_exits_2_without_traceback(argv, algebra, tmp_path):
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(algebra))
    proc = cli_subprocess(*(a.format(algebra=path, tmp=tmp_path) for a in argv))
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ")


@pytest.mark.parametrize("flag, value", [
    (flag, value)
    for flag in ("--tol-ratio", "--tol-rank", "--tol-period", "--tol-separation",
                 "--horizon")
    for value in ("nan", "inf", "0")
] + [("--seed", "0")])
def test_bad_knob_exits_2(flag, value):
    proc = cli_subprocess("simulate", "--catalog", "sl2", "--inner", "1,0,0",
                          f"{flag}={value}")
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr


EVIDENCE_FLAGS = ("--tol-period=1e-8", "--tol-separation=1e-3", "--horizon=50", "--samples=64")


@pytest.mark.parametrize("argv, flag", [
    (argv, flag)
    for argv in (["classify", "--catalog", "sl2", "--inner", "1,0,0"],
                 ["derivations", "--catalog", "sl2"],
                 ["catalog", "list"])
    for flag in EVIDENCE_FLAGS
] + [(["derivations", "--catalog", "sl2"], "--samples=0")])
def test_evidence_flags_belong_to_simulate_only(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main([*argv, flag])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert err.startswith("usage: ") and "unrecognized arguments: " + flag in err


def test_inner_with_a_leading_minus_in_equals_form(capsys):
    code, doc, _ = run_json(capsys, "classify", "--catalog", "sl2", "--inner=-1,0,0")
    assert code == 0
    assert doc["verdict"]["tag"] == "PeriodicFlow"


def test_classify_repeated_off_axis_pair_exits_0(capsys, tmp_path):
    # C + C with C = [[0, -1], [1, -1]]: (l^2 + l + 1)^2 is decided exactly.
    path = tmp_path / "abelian4.json"
    path.write_text(json.dumps({"dim": 4, "brackets": []}))
    code, doc, _ = run_json(
        capsys, "classify", "--file", str(path),
        "--matrix", "0,-1,0,0,1,-1,0,0,0,0,0,-1,0,0,1,-1",
    )
    assert code == 0
    assert doc["verdict"]["tag"] == "NoPeriodicOrbits"
    assert doc["verdict"]["reason"] == "NonzeroRealPart"


@pytest.mark.parametrize("name", ["g35_a", "all"])
def test_cross_check_param_out_of_range_exits_2(name):
    proc = cli_subprocess("catalog", "cross-check", name, "--param", "0")
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


def test_closed_stdout_exits_1_without_traceback():
    # The reader closes the pipe before the CLI writes, as `| head -1` does
    # once it has its line.
    proc = subprocess.Popen(
        [sys.executable, "-m", "lieflow.cli", "catalog", "verdict-table"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=checkout_env(),
    )
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=120) == 1, err
    assert "Traceback" not in err and "BrokenPipeError" not in err, err


def test_large_exact_period_is_not_refused(capsys, tmp_path):
    # Frequencies 1 and r = 1000000007/1000000009: the period's lcm passes
    # 10**9, and T/pi = 2 * 1000000009 exactly.
    path = tmp_path / "ab4.json"
    path.write_text(json.dumps({"dim": 4, "brackets": []}))
    r = "1000000007/1000000009"
    code, doc, err = run_json(
        capsys, "classify", "--file", str(path),
        f"--matrix=0,-1,0,0,1,0,0,0,0,0,0,-{r},0,0,{r},0",
    )
    assert code == 0, err
    assert doc["verdict"]["tag"] == "PeriodicFlow"
    assert Fraction(doc["verdict"]["period_over_pi"]) == 2 * 1000000009
