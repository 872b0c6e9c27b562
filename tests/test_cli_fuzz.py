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
from hypothesis import given, settings, strategies as st  # noqa: E402

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
# --matrix and --inner entry: in dimension 2 and 3 the square map is linear, so
# its root is read at once, with no bisection over a 5000-digit lattice.
EXTREME = ["1e-307", "-1e-307", "1e-320", "1e-5000", "1e300", "-1e300", "1e308", "-1e308",
           "1/" + "9" * 400, "1" + "0" * 400 + "/" + "3" * 400, "0", "1", "-1"]
PERIODS = ["pi", "1e-307", "1e-320", "1e-5000", "1e300", "1e308", "1/" + "9" * 400]


@st.composite
def extreme_invocations(draw):
    """argv with "{algebra}" and "{csv}" standing for files."""
    mode = draw(st.sampled_from(["classify", "derivations", "simulate", "check-period", "csv"]))
    source = draw(st.sampled_from(["abelian2", "sl2", "sevens"]))
    args = ["simulate" if mode in ("check-period", "csv") else mode]
    args.append("--file={algebra}" if source == "sevens" else "--catalog=" + source)
    if mode == "derivations":
        return args
    if source == "abelian2":  # every matrix is a derivation of it
        args.append("--matrix=" + ",".join(draw(st.lists(st.sampled_from(EXTREME),
                                                         min_size=4, max_size=4))))
    else:
        args.append("--inner=" + ",".join(draw(st.lists(st.sampled_from(EXTREME),
                                                        min_size=3, max_size=3))))
    if mode == "check-period":
        args.append("--check-period=" + draw(st.sampled_from(PERIODS)))
    elif mode == "csv":
        args.append("--csv={csv}")
    return args


@settings(derandomize=True, max_examples=150, deadline=None)
@given(extreme_invocations())
def test_extreme_magnitudes_end_in_a_documented_exit_code_without_warnings(args):
    with tempfile.TemporaryDirectory() as tmp:
        algebra, csv = os.path.join(tmp, "algebra.json"), os.path.join(tmp, "orbit.csv")
        with open(algebra, "w") as fh:
            json.dump(SEVENS_ALGEBRA, fh)
        args = [a.replace("{algebra}", algebra).replace("{csv}", csv) for a in args]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(args)
    assert code in (0, 1, 2), (args, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 2:  # after any decimal-input notices
        assert err.getvalue().splitlines()[-1].startswith("error: "), (args, err.getvalue())
