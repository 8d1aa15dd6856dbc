import math
import os
import pathlib
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fockfield.fock import (
    FockVector,
    ModeSpace,
    Statistics,
    annihilate,
    create,
    inner,
    vacuum,
)
from fockfield import wick
from fockfield.wick import (
    DeltaPolynomial,
    LadderKind,
    LadderSymbol,
    OperatorString,
    ParseError,
    evaluate,
    normal_order,
    parse,
    vacuum_expectation,
)
from wick_oracles import contract, contract_steps, flatten
from wick_rewrite import rewrite_normal_order, rewrite_vacuum_expectation


def apply_string(s: OperatorString, assignment, space: ModeSpace) -> FockVector:
    """Oracle: apply the symbols right-to-left to the vacuum through fock ops."""
    v = vacuum(space)
    for sym in reversed(s.symbols):
        mode = assignment[sym.label]
        v = create(v, mode) if sym.kind is LadderKind.CREATE else annihilate(v, mode)
    return v


def numeric_vev(s: OperatorString, assignment, space: ModeSpace) -> complex:
    return inner(vacuum(space), apply_string(s, assignment, space))


def test_parse_basic_bose():
    s = parse("bose: a(x1) a+(x2)")
    assert s.statistics is Statistics.BOSE
    assert s.symbols == (
        LadderSymbol(LadderKind.ANNIHILATE, "x1"),
        LadderSymbol(LadderKind.CREATE, "x2"),
    )


def test_parse_basic_fermi():
    s = parse("fermi: a+(p) a(p)")
    assert s.statistics is Statistics.FERMI
    assert s.symbols == (
        LadderSymbol(LadderKind.CREATE, "p"),
        LadderSymbol(LadderKind.ANNIHILATE, "p"),
    )


def test_parse_roundtrip_through_printer():
    for text in ["bose: a(x1) a+(x2)", "fermi: a+(p) a(p)", "bose:"]:
        assert str(parse(text)) == text
        assert parse(str(parse(text))) == parse(text)


def test_parse_error_unclosed_atom():
    with pytest.raises(ParseError) as err:
        parse("bose: a(x1 a+(x2)")
    assert err.value.position == 6


def test_parse_error_unknown_prefix():
    with pytest.raises(ParseError):
        parse("spin: a(x)")


def test_parse_error_empty_label():
    with pytest.raises(ParseError):
        parse("bose: a()")


def test_normal_order_bose_exchange():
    nf = normal_order(parse("bose: a(x1) a+(x2)"))
    assert str(nf) == "d(x1,x2) + a+(x2) a(x1)"
    assert all(t.coefficient == 1 for t in nf.terms)


def test_normal_order_fermi_exchange_sign():
    nf = normal_order(parse("fermi: a(x1) a+(x2)"))
    assert str(nf) == "d(x1,x2) - a+(x2) a(x1)"


def test_normal_order_fixed_point():
    s = parse("bose: a+(b) a(a)")
    nf = normal_order(s)
    assert len(nf.terms) == 1
    assert nf.terms[0].coefficient == 1
    assert nf.terms[0].deltas == ()
    assert nf.terms[0].operators == s.symbols


def test_normal_order_same_label_contraction_has_no_delta():
    # a(x) a+(x): the delta resolves to 1 (labels syntactically equal)
    nf = normal_order(parse("bose: a(x) a+(x)"))
    assert str(nf) == "1 + a+(x) a(x)"


def test_normal_strings_never_have_annihilate_before_create():
    nf = normal_order(parse("bose: a(x) a(y) a+(z) a+(w)"))
    for t in nf.terms:
        seen_annihilate = False
        for sym in t.operators:
            if sym.kind is LadderKind.ANNIHILATE:
                seen_annihilate = True
            else:
                assert not seen_annihilate


def test_vacuum_expectation_number_density_contraction():
    # <a(x') a+(x) a(x) a+(x'')> = d(x,x') d(x,x'') for both statistics
    for prefix in ("bose", "fermi"):
        dp = vacuum_expectation(parse(f"{prefix}: a(xp) a+(x) a(x) a+(xpp)"))
        assert len(dp.terms) == 1
        coeff, deltas = dp.terms[0]
        assert coeff == 1
        assert set(deltas) == {("x", "xp"), ("x", "xpp")}


def test_vacuum_expectation_single_contraction():
    for prefix in ("bose", "fermi"):
        dp = vacuum_expectation(parse(f"{prefix}: a(alpha) a+(beta)"))
        assert dp.terms == ((1, (("alpha", "beta"),)),)


def test_vacuum_expectation_fermi_exchange_order():
    space = ModeSpace(2, Statistics.FERMI)
    direct = vacuum_expectation(parse("fermi: a(x1) a(x2) a+(x2) a+(x1)"))
    crossed = vacuum_expectation(parse("fermi: a(x1) a(x2) a+(x1) a+(x2)"))
    assignment = {"x1": 0, "x2": 1}
    assert evaluate(direct, assignment) == 1
    assert evaluate(crossed, assignment) == -1
    # oracle: the same numbers through the occupation representation
    assert numeric_vev(parse("fermi: a(x1) a(x2) a+(x2) a+(x1)"), assignment, space).real == pytest.approx(1.0, abs=1e-12)
    assert numeric_vev(parse("fermi: a(x1) a(x2) a+(x1) a+(x2)"), assignment, space).real == pytest.approx(-1.0, abs=1e-12)


def test_evaluate_resolves_deltas():
    dp = DeltaPolynomial(((1, (("x", "xp"), ("x", "xpp"))),))
    assert evaluate(dp, {"x": 3, "xp": 3, "xpp": 3}) == 1
    assert evaluate(dp, {"x": 3, "xp": 2, "xpp": 3}) == 0


def test_evaluate_missing_label_raises():
    dp = DeltaPolynomial(((1, (("x", "y"),)),))
    with pytest.raises(ValueError):
        evaluate(dp, {"x": 0})


def test_grading_unbalanced_strings_have_zero_vev():
    for text in ("bose: a+(x)", "fermi: a(x)", "bose: a(x) a(y) a+(z)"):
        assert vacuum_expectation(parse(text)).terms == ()


def test_fermi_parity_adjacent_transposition():
    base = parse("fermi: a(x) a(y) a+(z) a+(w)")
    swapped = parse("fermi: a(y) a(x) a+(z) a+(w)")
    nb, ns = normal_order(base), normal_order(swapped)
    flipped = {(t.deltas, t.operators): -t.coefficient for t in ns.terms}
    assert {(t.deltas, t.operators): t.coefficient for t in nb.terms} == flipped


def test_idempotence_of_normal_terms():
    nf = normal_order(parse("bose: a(x) a(y) a+(x) a+(y)"))
    for term in nf.terms:
        text = "bose: " + " ".join(str(s) for s in term.operators)
        again = normal_order(parse(text))
        assert again.terms == (type(term)(1, (), term.operators),)


def test_bose_repeated_label_coefficient_two():
    # <a(x) a(x) a+(x) a+(x)> = 2 for bosons, matching the numeric oracle
    s = parse("bose: a(x) a(x) a+(x) a+(x)")
    dp = vacuum_expectation(s)
    space = ModeSpace(1, Statistics.BOSE, nmax=8)
    assert evaluate(dp, {"x": 0}) == 2
    assert numeric_vev(s, {"x": 0}, space).real == pytest.approx(2.0, abs=1e-12)


@st.composite
def operator_strings(draw, statistics):
    labels = ["x", "y", "z"]
    n = draw(st.integers(min_value=0, max_value=6))
    syms = tuple(
        LadderSymbol(
            draw(st.sampled_from([LadderKind.CREATE, LadderKind.ANNIHILATE])),
            draw(st.sampled_from(labels)),
        )
        for _ in range(n)
    )
    return OperatorString(syms, statistics)


@settings(max_examples=60, deadline=None)
@given(operator_strings(Statistics.BOSE), st.integers(min_value=0, max_value=100))
def test_property_soundness_bose(s, seed):
    space = ModeSpace(3, Statistics.BOSE, nmax=8)
    rng = np.random.default_rng(seed)
    assignment = {lab: int(rng.integers(0, 3)) for lab in ("x", "y", "z")}
    sym = evaluate(vacuum_expectation(s), assignment)
    num = numeric_vev(s, assignment, space)
    assert abs(num - sym) < 1e-10


@settings(max_examples=60, deadline=None)
@given(operator_strings(Statistics.FERMI), st.integers(min_value=0, max_value=100))
def test_property_soundness_fermi(s, seed):
    space = ModeSpace(3, Statistics.FERMI)
    rng = np.random.default_rng(seed)
    assignment = {lab: int(rng.integers(0, 3)) for lab in ("x", "y", "z")}
    sym = evaluate(vacuum_expectation(s), assignment)
    num = numeric_vev(s, assignment, space)
    assert abs(num - sym) < 1e-10


@settings(max_examples=40, deadline=None)
@given(operator_strings(Statistics.BOSE))
def test_property_printer_roundtrip(s):
    assert parse(str(s)) == s


@settings(max_examples=40, deadline=None)
@given(operator_strings(Statistics.FERMI))
def test_property_normal_form_is_deterministic(s):
    assert normal_order(s) == normal_order(parse(str(s)))


# ----------------------------------------------------------------------
# the contraction pass against the adjacent-swap rewrite it replaced


@st.composite
def oracle_strings(draw):
    # one to three labels repeat often; eight labels are mostly distinct
    labels = draw(st.sampled_from([("x",), ("x", "y"), ("x", "y", "z"), tuple(f"p{i}" for i in range(8))]))
    syms = draw(st.lists(
        st.builds(LadderSymbol, st.sampled_from(list(LadderKind)), st.sampled_from(labels)),
        max_size=8,
    ))
    return OperatorString(tuple(syms), draw(st.sampled_from(list(Statistics))))


@settings(max_examples=100, deadline=None)
@given(oracle_strings())
def test_property_contraction_pass_equals_rewrite_oracle(s):
    nf, expected = normal_order(s), rewrite_normal_order(s)
    assert nf == expected
    assert str(nf) == str(expected)
    dp, expected_dp = vacuum_expectation(s), rewrite_vacuum_expectation(s)
    assert dp == expected_dp
    assert str(dp) == str(expected_dp)


# ----------------------------------------------------------------------
# the pass grouped by operator block against the per-state pass it replaced


@st.composite
def distinct_label_strings(draw):
    # every label once, so no delta collapses and every contraction survives
    n = draw(st.integers(min_value=0, max_value=10))
    kinds = draw(st.lists(st.sampled_from(list(LadderKind)), min_size=n, max_size=n))
    labels = draw(st.permutations([f"q{i}" for i in range(n)]))
    return OperatorString(tuple(map(LadderSymbol, kinds, labels)), draw(st.sampled_from(list(Statistics))))


@settings(max_examples=150, deadline=None)
@given(st.one_of(oracle_strings(), distinct_label_strings()))
def test_property_grouped_pass_equals_per_state_oracle(s):
    for vacuum in (False, True):
        assert flatten(wick._contract(s, vacuum)) == contract(s, vacuum)


def test_grouped_pass_keeps_a_cancelled_state_as_the_oracle_does():
    # a(x) a+(x) a+(x) = a+(x) - a+(x) a(x) a+(x) ..., and the a+(x) states cancel
    s = parse("fermi: a(x) a+(x) a+(x)")
    states = flatten(wick._contract(s, vacuum=False))
    assert states[("x",), (), ()] == 0
    assert states == contract(s, vacuum=False)
    assert str(normal_order(s)) == "0"


def step_counts(s, vacuum):
    """The live states after each symbol's step of the per-state oracle."""
    return [len(states) for states in contract_steps(s, vacuum)]


@settings(max_examples=100, deadline=None)
@given(st.one_of(oracle_strings(), distinct_label_strings()))
def test_property_max_terms_raises_exactly_when_a_step_ends_above_it(s):
    for vacuum in (False, True):
        counts = step_counts(s, vacuum)
        peak = max(counts, default=0)
        for limit in sorted({max(c + d, 0) for c in counts for d in (-1, 0, 1)}):
            with mock.patch.object(wick, "MAX_TERMS", limit):
                if peak > limit:
                    with pytest.raises(ValueError, match=rf"^expression has more than {limit} terms$"):
                        wick._contract(s, vacuum)
                else:
                    wick._contract(s, vacuum)
            # the per-state rule left out a step's last move-in: it can pass only at the exact limit
            try:
                for _ in contract_steps(s, vacuum, max_terms=limit):
                    pass
            except ValueError:
                assert peak > limit
            else:
                assert peak <= limit + 1


def test_a_step_ending_one_state_above_the_limit_raises_where_the_per_state_rule_passed():
    # a(x) a+(y): the last step ends with d(x,y) and a+(y) a(x), two states
    s = parse("bose: a(x) a+(y)")
    assert step_counts(s, vacuum=False) == [1, 2]
    for _ in contract_steps(s, vacuum=False, max_terms=1):
        pass
    with mock.patch.object(wick, "MAX_TERMS", 1):
        with pytest.raises(ValueError, match="more than 1 terms"):
            normal_order(s)
        assert vacuum_expectation(s) == DeltaPolynomial(((1, (("x", "y"),)),))


def test_normal_form_text_does_not_depend_on_the_hash_seed():
    texts = [
        "bose: a(x1) a(x2) a(x3) a+(y1) a+(y2) a+(y3)",
        "fermi: a(b) a(a) a+(c) a+(a) a(c) a+(b) a+(d)",
        "bose: a(q) a+(p) a(p) a+(q) a(r) a+(r)",
    ]
    code = (
        "import sys\n"
        "from fockfield.wick import normal_order, parse, vacuum_expectation\n"
        "for text in sys.argv[1:]:\n"
        "    print(normal_order(parse(text)), vacuum_expectation(parse(text)), sep='\\n')\n"
    )
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    outputs = [
        subprocess.run(
            [sys.executable, "-c", code, *texts],
            env=dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=seed),
            capture_output=True, text=True, check=True, timeout=60,
        ).stdout
        for seed in ("1", "2")
    ]
    assert outputs[0] == outputs[1]
    assert outputs[0].splitlines()[::2] == [str(normal_order(parse(t))) for t in texts]


def test_vacuum_of_twelve_repeated_bosons_is_twelve_factorial():
    s = parse("bose: " + " ".join(["a(x)"] * 12 + ["a+(x)"] * 12))
    assert vacuum_expectation(s) == DeltaPolynomial(((math.factorial(12), ()),))


@pytest.mark.parametrize("prefix", ["bose", "fermi"])
def test_vacuum_of_twelve_alternating_pairs_is_one_term(prefix):
    s = parse(f"{prefix}: " + " ".join(f"a(x{i}) a+(y{i})" for i in range(1, 13)))
    pairs = tuple(sorted((f"x{i}", f"y{i}") for i in range(1, 13)))
    assert vacuum_expectation(s) == DeltaPolynomial(((1, pairs),))


def test_a_normal_term_prints_its_magnitude_and_factors():
    # the sign belongs to the sum, so a term prints without it
    nf = normal_order(parse("fermi: a(x1) a+(x2)"))
    assert [t.coefficient for t in nf.terms] == [1, -1]
    assert [str(t) for t in nf.terms] == ["d(x1,x2)", "a+(x2) a(x1)"]
    nf = normal_order(parse("bose: a(x) a(x) a+(x) a+(x)"))
    assert [str(t) for t in nf.terms] == ["2", "4 a+(x) a(x)", "a+(x) a+(x) a(x) a(x)"]
    assert str(nf) == "2 + 4 a+(x) a(x) + a+(x) a+(x) a(x) a(x)"
    assert str(vacuum_expectation(parse("bose: a(x) a(x) a+(x) a+(x)"))) == "2"
