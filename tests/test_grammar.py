"""Round-trip tests for the canonical operator grammar."""

from fractions import Fraction

import pytest

from qsuperalg.superpoly import CoordSystem
from qsuperalg.operators import LinForm, first_failure
from qsuperalg.algebra import build_root_data, build_quantum, build_classical
from qsuperalg.grammar import parse_linform, parse_opexpr, GrammarError


CS = CoordSystem(1, 0)


def test_parse_linform_simple():
    lf = parse_linform("-2M(1,1)-M(1,2)+M(2,2)+L(1)", CS)
    assert lf == LinForm({0: -2, 1: -1, 2: 1}, 0, ((1, 1),))
    assert parse_linform("0", CS) == LinForm()
    assert parse_linform("L(2)-3", CS) == LinForm(None, -3, ((2, 1),))
    assert parse_linform("12M(1,1)", CS) == LinForm({0: 12})


def test_parse_linform_rejects_junk():
    with pytest.raises(GrammarError):
        parse_linform("M(1,1)+?", CS)
    with pytest.raises(GrammarError):
        parse_linform("xyz", CS)


def test_parse_opexpr_rejects_junk():
    with pytest.raises(GrammarError):
        parse_opexpr("x(1,1) nonsense", CS)
    # a zero denominator is bad input, not an arithmetic error
    with pytest.raises(GrammarError, match="zero denominator"):
        parse_opexpr("1/0 * x(1,1)", CS)


@pytest.mark.parametrize("text", [
    "", "   ", "q^{}", "[]", "{ }", "x(1,1) [M(1,1)M(1,2)]", "q^{M(1,1)2}",
    "{L(1)L(1)}",
])
def test_parse_opexpr_rejects_empty_text_forms_and_unsigned_tokens(text):
    # the printer writes no empty term or form and a sign between tokens
    with pytest.raises(GrammarError):
        parse_opexpr(text, CS)


@pytest.mark.parametrize("text", [
    "x(9,9)", "D(2,1)", "q^{M(3,3)}", "[M(1,1)+M(0,1)]", "q^{L(0)}",
    "{-2L(0)+1}",
])
def test_parse_opexpr_rejects_coordinates_and_markers_off_the_chart(text):
    # (1,0) has the coordinates (1,1), (1,2) and (2,2); markers start at L(1)
    with pytest.raises(GrammarError):
        parse_opexpr(text, CS)


def test_linform_render_parse_round_trip():
    forms = [LinForm({0: -2, 1: 3}, 5, ((1, -1), (2, 2))),
             LinForm(None, -7),
             LinForm({2: 1}),
             LinForm()]
    for lf in forms:
        assert parse_linform(lf.render(CS), CS) == lf


@pytest.mark.parametrize("MN,variant", [
    ((1, 0), "prop3"), ((1, 0), "prop2"), ((1, 0), "classical"),
    ((1, 1), "prop3"), ((0, 1), "classical"), ((2, 1), "prop3"),
])
def test_generator_render_parse_round_trip(MN, variant):
    data = build_root_data(*MN)
    if variant == "classical":
        gens = build_classical(data)
    else:
        gens = build_quantum(data, variant=variant)
    for fam in (gens.t, gens.e, gens.f):
        for op in fam.values():
            back = parse_opexpr(op.render(), gens.cs)
            assert first_failure([(op, back)], 2) is None


def test_parsed_integral_coefficients_are_int():
    op = parse_opexpr("-1 * x(1,2) D(2,2) + 1/2 * x(1,1) [L(1)]", CS)
    assert [type(v) for c, _ in op.terms for v in c.num.values()] \
        == [int, Fraction]
