"""The CLI on fuzzed argv and small algebra files.

Each case is a valid invocation of a catalog algebra (or of its exported
file), or one with a single part replaced by a fuzzed value: an unknown
entry, a bad --param, a malformed algebra file, bad --inner/--matrix
entries, a bad flow kind, period or knob. `--format` is valid on every
subcommand; the evidence knobs `--samples`, `--horizon`, `--tol-period` and
`--tol-separation` on `simulate` only, so a fuzzed one elsewhere meets
argparse's usage error. Every run must end in a documented exit code (0, 1
or 2, an exit 2 ending in an `error:` line) or in argparse's own SystemExit,
never in another exception. Values are passed as --flag=value, so that
argparse does not read an entry list such as -1,0,0 as an option.
`--samples` is drawn only from values up to 64 and from values far above the
CLI's cap, so that no case makes NumPy allocate a huge grid.
"""

import contextlib
import io
import json
import os
import tempfile
import warnings
from fractions import Fraction as F

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from lieflow.catalog import CATALOG_NAMES, PARAMETRIC_NAMES, get_entry  # noqa: E402
from lieflow.cli import main  # noqa: E402
from lieflow.dersolve import inner_derivation  # noqa: E402
from lieflow.liealg import algebra_to_dict  # noqa: E402
from test_cli import SEVENS_ALGEBRA  # noqa: E402

ODD = st.sampled_from([None, "x", 1.5, [], {}, True, "1e400"])
SCALAR_TEXT = st.sampled_from(["0", "-2", "3/4", "0.5", "1/0", "x", "", "1e400", "nan"])
VALID = st.sampled_from(["0", "0", "1", "-1", "2", "1/2"])


def index(low, high):
    """A bracket index, mostly in low..high."""
    return st.one_of(st.integers(low, high), st.integers(low, high), st.integers(-1, 5), ODD)


bracket_entry = st.fixed_dictionaries({}, optional={
    "i": index(1, 2), "j": index(2, 3), "k": index(1, 3),
    "c": st.one_of(st.sampled_from(["1", "-1", "1/2", "1/0", "x", "0.5"]),
                   st.integers(-3, 3), ODD),
})
fuzzed_algebra = st.fixed_dictionaries({}, optional={
    "dim": st.one_of(st.integers(-1, 4), ODD, st.just("3")),
    "basis": st.one_of(st.lists(st.sampled_from(["E1", "E2", "X"]), max_size=4), ODD),
    "brackets": st.one_of(st.lists(bracket_entry, max_size=4), ODD),
})

ENTRIES = {name: get_entry(name, 2 if name in PARAMETRIC_NAMES else None).structure
           for name in CATALOG_NAMES}
EVIDENCE_KNOBS = {
    "--samples": ["2", "17", "64"],
    "--horizon": ["1", "50"],
    "--tol-period": ["1e-8", "1e-3"],
    "--tol-separation": ["1e-3", "1"],
}
# Per part of an invocation, the fuzzed values that replace a valid one.
BAD = {
    "--catalog": ["nope", ""],
    "--param": ["1", "0", "-1", "x", "1/0"],
    "--flow": ["x", "invariant"],
    "--check-period": ["pi/0", "0", "-1", "1e400", "x", "nan"],
    "--samples": ["-1", "0", "1", "x", str(10**11), str(10**12)],
    "--horizon": ["0", "nan", "inf", "-1"],
    "--tol-period": ["0", "-1", "nan"],
    "--tol-separation": ["inf", "0"],
    "--format": ["yaml", ""],
}


@st.composite
def invocations(draw):
    """(argv, algebra file contents); "{algebra}" in argv stands for the file."""
    command = draw(st.sampled_from(["classify", "simulate", "derivations", "catalog"]))
    name = draw(st.sampled_from(CATALOG_NAMES))
    sc = ENTRIES[name]
    alg = algebra_to_dict(sc)
    fuzz = draw(st.sampled_from([None, None, "algebra", "entries", *BAD]))
    if command == "catalog":
        action = draw(st.sampled_from(["list", "export", "cross-check", "verdict-table"]))
        args = [command, action, name]
    elif fuzz == "algebra" or draw(st.booleans()):
        args = [command, "--file={algebra}"]
        alg = draw(fuzzed_algebra) if fuzz == "algebra" else alg
    elif fuzz == "--catalog":
        args = [command, "--catalog=" + draw(st.sampled_from(BAD["--catalog"]))]
    else:
        args = [command, "--catalog=" + name]
    if fuzz == "--param":
        args.append("--param=" + draw(st.sampled_from(BAD["--param"])))
    elif name in PARAMETRIC_NAMES and args[1] != "--file={algebra}":
        args.append("--param=2")
    if command in ("classify", "simulate"):
        x = draw(st.lists(VALID, min_size=sc.dim, max_size=sc.dim))
        if fuzz == "entries":
            flag = draw(st.sampled_from(["--inner", "--matrix"]))
            fuzzed = st.lists(st.one_of(VALID, SCALAR_TEXT), max_size=sc.dim**2 + 1)
            args.append(f"{flag}=" + ",".join(draw(fuzzed)))
        elif draw(st.booleans()):
            args.append("--inner=" + ",".join(x))
        else:  # -ad(x) is a derivation
            der = inner_derivation(sc, [F(v) for v in x])
            args.append("--matrix=" + ",".join(str(v) for row in der.entries for v in row))
    for flag, values, applies in (
        ("--flow", ["linear", "invariant"], command == "classify"),
        ("--check-period", ["pi", "2pi", "3pi/4", "1"], command == "simulate"),
        ("--format", ["json", "text"], True),
        *((knob, values, command == "simulate") for knob, values in EVIDENCE_KNOBS.items()),
    ):
        if fuzz == flag:
            args.append(f"{flag}=" + draw(st.sampled_from(BAD[flag])))
        elif applies and draw(st.integers(0, 3)) == 0:
            args.append(f"{flag}=" + draw(st.sampled_from(values)))
    return args, alg


@settings(derandomize=True, max_examples=300, deadline=None)
@given(invocations())
def test_cli_ends_in_a_documented_exit_code(invocation):
    args, alg = invocation
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "algebra.json")
        with open(path, "w") as fh:
            json.dump(alg, fh)
        args = [a.replace("{algebra}", path) for a in args]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(args)
            except SystemExit as exc:  # argparse rejects the command line
                assert exc.code == 2, (args, err.getvalue())
                return
    assert code in (0, 1, 2), (args, alg, err.getvalue())
    if code == 2:  # after any decimal-input warnings
        assert err.getvalue().splitlines()[-1].startswith("error: "), (args, alg, err.getvalue())


# Extreme magnitudes: decimals near and past the float range's ends, long p/q
# literals, and an algebra whose constant has 3000 digits (its derivation basis
# holds entries of about 6000, past Python's 4300-digit limit on int-to-text
# conversion). Every literal, 1e-5000 and +-1e308 included, is drawn onto every
# --matrix and --inner entry in dimension 2 and 3, and onto the rotation
# entries b and c of R(b) + R(c) on a 4-dimensional abelian --file algebra,
# whose square map (mu + b^2)(mu + c^2) is quadratic with coefficients of up
# to 10801 digits: its rational roots are lifted modulo prime powers.
EXTREME = ["1e-307", "-1e-307", "1e-320", "1e-5000", "1e300", "-1e300", "1e308", "-1e308",
           "1/" + "9" * 400, "1" + "0" * 400 + "/" + "3" * 400, "0", "1", "-1"]
PERIODS = ["pi", "1e-307", "1e-320", "1e-5000", "1e300", "1e308", "1/" + "9" * 400]
FILES = {"sevens": SEVENS_ALGEBRA, "abelian4": {"dim": 4, "brackets": []}}


def rotation_sum(b, c):
    """--matrix of R(b) + R(c), R(x) = [[0, -x], [x, 0]], from two literals."""
    neg_b, neg_c = (x[1:] if x.startswith("-") else "-" + x for x in (b, c))
    return f"--matrix=0,{neg_b},0,0,{b},0,0,0,0,0,0,{neg_c},0,0,{c},0"


MODES = ["classify", "derivations", "simulate", "check-period", "csv"]
SOURCES = ["abelian2", "sl2", "sevens", "abelian4"]
SLOTS = {"abelian2": 4, "sl2": 3, "sevens": 3, "abelian4": 2}  # literals per field


def extreme_argv(mode, source, literals, period):
    """argv with "{sevens}", "{abelian4}" and "{csv}" standing for files: the
    literals on the field's entries, and the period on --check-period."""
    args = ["simulate" if mode in ("check-period", "csv") else mode]
    args.append(f"--file={{{source}}}" if source in FILES else "--catalog=" + source)
    if mode == "derivations":
        return args
    if source == "abelian4":
        args.append(rotation_sum(*literals))
    elif source == "abelian2":  # every matrix is a derivation of it
        args.append("--matrix=" + ",".join(literals))
    else:
        args.append("--inner=" + ",".join(literals))
    if mode == "check-period":
        args.append("--check-period=" + period)
    elif mode == "csv":
        args.append("--csv={csv}")
    return args


@st.composite
def extreme_invocations(draw):
    """extreme_argv of drawn parts; only the parts a mode reads are drawn."""
    mode, source = draw(st.sampled_from(MODES)), draw(st.sampled_from(SOURCES))
    if mode == "derivations":
        return extreme_argv(mode, source, [], None)
    slots = SLOTS[source]
    literals = draw(st.lists(st.sampled_from(EXTREME), min_size=slots, max_size=slots))
    period = draw(st.sampled_from(PERIODS)) if mode == "check-period" else None
    return extreme_argv(mode, source, literals, period)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(extreme_invocations())
@example(["classify", "--file={abelian4}", rotation_sum("1e-5000", "1")])
@example(["simulate", "--file={abelian4}", rotation_sum("1e-5000", "-1e300"), "--csv={csv}"])
def test_extreme_magnitudes_end_in_a_documented_exit_code_without_warnings(args):
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: os.path.join(tmp, name) for name in (*FILES, "csv")}
        for name, alg in FILES.items():
            with open(paths[name], "w") as fh:
                json.dump(alg, fh)
        for name, path in paths.items():
            args = [a.replace(f"{{{name}}}", path) for a in args]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(args)
    # Every rational D has a verdict, so only simulate's evidence or guard exits 1.
    assert code in ((0, 1, 2) if args[0] == "simulate" else (0, 2)), (args, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 2:  # after any decimal-input notices
        assert err.getvalue().splitlines()[-1].startswith("error: "), (args, err.getvalue())


# Every mode on every source, with one extreme literal on each entry and on
# --check-period: 1e-307 reaches the evidence (or the period check) on 9 of
# the 12 simulate runs, whatever the draws above hold.
@pytest.mark.parametrize("source", SOURCES)
@pytest.mark.parametrize("mode", MODES)
def test_every_extreme_path_ends_in_a_documented_exit_code_without_warnings(mode, source):
    check = test_extreme_magnitudes_end_in_a_documented_exit_code_without_warnings
    check.hypothesis.inner_test(extreme_argv(mode, source, ["1e-307"] * SLOTS[source], "1e-307"))
