"""Tests for the super-polynomial coordinate chart: parities, Grassmann
signs and the sparse polynomial helpers."""

import pytest
from hypothesis import given, settings, strategies as st

from qsuperalg.scalars import ONE, MINUS_ONE, qpow
from qsuperalg.superpoly import (CoordSystem, coord_parity, MONO_ONE,
                                 mono_degree, mono_exp, mono_dec,
                                 mul_coord, grassmann_remove, mono_render,
                                 poly_one, poly_sub, poly_scale,
                                 poly_add_term, poly_eq, poly_render)


# ---------------------------------------------------------------------------
# coordinate chart
# ---------------------------------------------------------------------------

def test_parity_table_sl21():
    # M=1, N=0: x(1,1) commuting, x(1,2) and x(2,2) Grassmann
    assert coord_parity(1, 1, 1, 0) is False
    assert coord_parity(1, 2, 1, 0) is True
    assert coord_parity(2, 2, 1, 0) is True


def test_parity_rule_general():
    M, N = 2, 3
    K = M + N + 1
    for l in range(1, K + 1):
        for m in range(l, K + 1):
            assert coord_parity(l, m, M, N) == (l <= M + 1 and m >= M + 1)


def test_parity_rejects_out_of_range():
    with pytest.raises(ValueError):
        coord_parity(2, 1, 1, 1)
    with pytest.raises(ValueError):
        coord_parity(1, 5, 1, 1)


def test_coord_system_row_major_order():
    cs = CoordSystem(1, 1)
    assert cs.coords == ((1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3))
    assert cs.pos[(2, 3)] == 4
    assert cs.ncoords == 6
    # the Grassmann block sits in the upper-right corner of the chart
    cs20 = CoordSystem(2, 0)
    assert tuple(cs20.coords[p] for p in range(cs20.ncoords) if cs20.odd[p]) \
        == ((1, 3), (2, 3), (3, 3))


def test_coord_system_equality_is_by_shape():
    assert CoordSystem(1, 2) == CoordSystem(1, 2)
    assert CoordSystem(1, 2) != CoordSystem(2, 1)


# ---------------------------------------------------------------------------
# monomial multiplication and Grassmann signs
# ---------------------------------------------------------------------------

def test_even_multiplication_increments_exponent():
    cs = CoordSystem(1, 0)
    sign, mono = mul_coord(cs, 0, ((0, 2),))
    assert (sign, mono) == (1, ((0, 3),))
    sign, mono = mul_coord(cs, 0, MONO_ONE)
    assert (sign, mono) == (1, ((0, 1),))


def test_odd_square_is_zero():
    cs = CoordSystem(1, 0)
    assert mul_coord(cs, 1, ((1, 1),)) is None
    assert mul_coord(cs, 2, ((1, 1), (2, 1))) is None


def test_koszul_sign_counts_earlier_odd_coordinates():
    cs = CoordSystem(1, 0)
    # theta22 * theta12 = -theta12 theta22 in canonical order
    sign, mono = mul_coord(cs, 2, ((1, 1),))
    assert (sign, mono) == (-1, ((1, 1), (2, 1)))
    # theta12 * theta22 needs no swap
    sign, mono = mul_coord(cs, 1, ((2, 1),))
    assert (sign, mono) == (1, ((1, 1), (2, 1)))
    # even coordinates never produce signs
    sign, _ = mul_coord(cs, 0, ((1, 1), (2, 1)))
    assert sign == 1


def test_grassmann_remove_left_derivative_sign():
    cs = CoordSystem(1, 0)
    mono = ((1, 1), (2, 1))        # th(1,2) th(2,2)
    assert grassmann_remove(cs, 1, mono) == (1, ((2, 1),))
    assert grassmann_remove(cs, 2, mono) == (-1, ((1, 1),))
    assert grassmann_remove(cs, 1, ((0, 2),)) is None


def test_mul_then_remove_round_trips():
    cs = CoordSystem(2, 2)
    mono = ((1, 1), (3, 1), (7, 1))
    for pos in range(cs.ncoords):
        if not cs.odd[pos] or mono_exp(mono, pos):
            continue
        s1, m1 = mul_coord(cs, pos, mono)
        s2, m2 = grassmann_remove(cs, pos, m1)
        assert m2 == mono and s1 * s2 == 1


@given(st.integers(0, 5), st.integers(0, 5))
@settings(max_examples=40)
def test_multiplication_adds_one_to_degree(a, b):
    cs = CoordSystem(1, 1)
    mono = tuple(p for p in (((0, a) if a else None), ((3, b) if b else None))
                 if p)
    sign, out = mul_coord(cs, 0, mono)
    assert mono_degree(out) == mono_degree(mono) + 1


def test_mono_helpers():
    assert mono_degree((((0, 2)), (2, 1))) == 3
    assert mono_exp(((0, 2), (2, 1)), 0) == 2
    assert mono_exp(((0, 2),), 5) == 0
    assert mono_dec(((0, 2), (2, 1)), 0) == ((0, 1), (2, 1))
    assert mono_dec(((0, 1),), 0) == MONO_ONE


def test_mono_render():
    cs = CoordSystem(1, 0)
    assert mono_render(cs, MONO_ONE) == "1"
    assert mono_render(cs, ((0, 2), (1, 1))) == "z(1,1)^2 th(1,2)"


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

def test_poly_addition_and_cancellation():
    p = poly_one()
    q = poly_scale(poly_one(), MINUS_ONE)
    s = dict(p)
    for mono, c in q.items():
        poly_add_term(s, mono, c)
    assert s == {}
    assert poly_sub(p, poly_scale(q, MINUS_ONE)) == {}
    assert poly_eq(poly_sub(p, {}), p)


def test_poly_add_term_drops_zeros():
    p = {}
    poly_add_term(p, ((0, 1),), ONE)
    poly_add_term(p, ((0, 1),), MINUS_ONE)
    assert p == {}


def test_poly_eq_compares_coefficients_exactly():
    a = {MONO_ONE: qpow(1)}
    b = {MONO_ONE: qpow(-1)}
    assert not poly_eq(a, b)
    assert poly_eq(a, {MONO_ONE: qpow(1)})


def test_poly_render():
    cs = CoordSystem(1, 0)
    p = {MONO_ONE: qpow(2), ((1, 1), (2, 1)): MINUS_ONE}
    assert poly_render(cs, p) == "q^{2} + -1 th(1,2) th(2,2)"
    assert poly_render(cs, {}) == "0"
