"""`lieflow._record.Record` behaves as `@dataclass(frozen=True)` did for the
result types, and a cold `import lieflow.cli` loads neither `dataclasses` nor
`inspect` while it still loads every module that the benchmark tracer wraps."""

import subprocess
import sys
from fractions import Fraction as F

import pytest

from lieflow._record import Record, replace
from lieflow.catalog import get_entry
from lieflow.flowsim import DEFAULT_CONFIG, ToleranceConfig
from lieflow.periodicity import FlowVerdict, RationalProfile, classify_invariant_flow
from lieflow.spectral import EigenClass

from test_cli import checkout_env
from test_perfbench_spans import load_spans


class Pair(Record):
    left: object
    right: object = 0


def test_construction_is_positional_or_keyword_with_defaults():
    assert vars(Pair(1, 2)) == vars(Pair(right=2, left=1)) == {"left": 1, "right": 2}
    assert Pair(1).right == 0
    assert ToleranceConfig(1e-6, samples=8) == ToleranceConfig(
        period_tol=1e-6, separation=1e-3, horizon=50.0, samples=8)
    assert EigenClass(1j, 1, 1).exact_re is None
    with pytest.raises(TypeError):
        Pair()
    with pytest.raises(TypeError):
        Pair(1, 2, 3)
    with pytest.raises(TypeError):
        Pair(1, middle=2)
    with pytest.raises(TypeError):
        replace(DEFAULT_CONFIG, sample=2)


def test_fields_are_frozen():
    p = Pair(1)
    for act in (lambda: setattr(p, "left", 2), lambda: setattr(p, "other", 2),
                lambda: delattr(p, "left")):
        with pytest.raises(AttributeError):
            act()
    assert vars(p) == {"left": 1, "right": 0}
    assert vars(replace(p, right=3)) == {"left": 1, "right": 3} and p.right == 0


def test_equality_and_hash_go_by_fields_and_class():
    class Other(Record):
        left: object
        right: object = 0

    nan = float("nan")
    assert Pair(1, (2,)) == Pair(1, (2,)) and hash(Pair(1, (2,))) == hash(Pair(1, (2,)))
    assert Pair(nan) == Pair(nan)  # the same object, as in a tuple
    assert Pair(1) != Pair(2) and Pair(1) != Other(1) and Pair(1) != (1, 0)
    assert len({Pair(1), Pair(1), Pair(1, 1)}) == 2
    with pytest.raises(TypeError):
        hash(Pair([]))


def test_vars_lists_fields_in_declaration_order():
    verdict = FlowVerdict("NoPeriodicOrbits", reason="r", note="n")
    assert list(vars(verdict)) == list(FlowVerdict._fields) == [
        "tag", "period", "period_over_pi", "reason", "profile", "caveats", "note"]
    assert verdict.caveats == () and verdict.profile is None


def test_repr_is_the_dataclass_repr():
    verdict = classify_invariant_flow(get_entry("sl2").structure, (1, 0, 0))
    assert isinstance(verdict.profile, RationalProfile) and verdict.caveats
    assert repr(verdict) == (
        "FlowVerdict(tag='PeriodicFlow', period=3.141592653589793, "
        "period_over_pi=Fraction(1, 1), reason=None, profile=RationalProfile("
        "base_alpha=2.0, base_alpha_exact=Fraction(2, 1), ratios=((1, 1),)), "
        "caveats=('periodicity of exp(tX) inferred from the derivation spectrum; "
        "the converse direction additionally assumes Ad is injective (trivial "
        "center)',), note=None)"
    )
    assert repr(EigenClass(2j, 1, 1, F(0), F(4))) == (
        "EigenClass(value=2j, alg_mult=1, geom_mult=1, exact_re=Fraction(0, 1), "
        "exact_im_sq=Fraction(4, 1))")


def test_cold_import_skips_dataclasses_and_loads_every_traced_module():
    targets = sorted(load_spans().TARGETS)
    script = ("import sys, lieflow.cli; "
              "print(' '.join(m for m in ('dataclasses', 'inspect') if m in sys.modules)); "
              f"print(' '.join(m for m in {targets!r} if 'lieflow.' + m not in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=checkout_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "\n\n", proc.stdout
