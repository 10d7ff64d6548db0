"""Tests for the super-polynomial coordinate chart: parities, the packed
monomial, the coordinate step with its Grassmann signs, polynomial
rendering, and the residual polynomial a failing comparison returns."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from qsuperalg.scalars import ONE, MINUS_ONE, qpow
from qsuperalg.operators import OpExpr, basis_monomials, first_failure
from qsuperalg.superpoly import (CoordSystem, coord_parity, MONO_ONE,
                                 FIELD_TOP, mono_pack, mono_pairs,
                                 shift_coord, mono_render, poly_render)


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
# the packed monomial
# ---------------------------------------------------------------------------

def _reference_basis(cs, degree):
    """The monomials of degree <= degree as (position, exponent) pairs,
    graded, then by exponent vector in row-major lex order."""
    vecs = set()
    for total in range(degree + 1):
        for multiset in itertools.combinations_with_replacement(
                range(cs.ncoords), total):
            vec = [0] * cs.ncoords
            for p in multiset:
                vec[p] += 1
            if all(e <= 1 for p, e in enumerate(vec) if cs.odd[p]):
                vecs.add(tuple(vec))
    return [tuple((p, e) for p, e in enumerate(vec) if e)
            for vec in sorted(vecs, key=lambda v: (sum(v), v))]


@pytest.mark.parametrize("MN,nmonos", [((1, 1), 56), ((2, 1), 220)])
def test_basis_monomials_match_the_pair_reference(MN, nmonos):
    cs = CoordSystem(*MN)
    want = _reference_basis(cs, 3)
    assert len(want) == nmonos
    monos = list(basis_monomials(cs, 3))
    assert monos == [mono_pack(pairs) for pairs in want]
    # every basis monomial survives the pair <-> int round trip
    assert [mono_pairs(m) for m in monos] == want
    assert all(mono_pack(mono_pairs(m)) == m for m in monos)


def test_mono_pack_layout():
    assert mono_pack(()) == MONO_ONE == 0
    assert mono_pack(((0, 3), (2, 1))) == 3 + (1 << 32)
    assert mono_pairs(3 + (1 << 32)) == ((0, 3), (2, 1))
    # the order of the pairs does not matter
    assert mono_pack(((2, 1), (0, 3))) == mono_pack(((0, 3), (2, 1)))


def test_mono_pack_rejects_an_exponent_outside_the_field():
    assert mono_pairs(mono_pack(((1, FIELD_TOP),))) == ((1, FIELD_TOP),)
    with pytest.raises(OverflowError):
        mono_pack(((1, FIELD_TOP + 1),))
    with pytest.raises(OverflowError):
        mono_pack(((1, -1),))


def test_even_step_at_the_field_top_raises():
    cs = CoordSystem(1, 0)
    below = mono_pack(((0, FIELD_TOP - 1), (1, 1)))
    assert shift_coord(cs, 0, below, 1) \
        == (1, FIELD_TOP - 1, mono_pack(((0, FIELD_TOP), (1, 1))))
    top = mono_pack(((0, FIELD_TOP), (1, 1)))
    with pytest.raises(OverflowError):
        shift_coord(cs, 0, top, 1)
    # the derivative at the top still steps down
    assert shift_coord(cs, 0, top, -1) == (1, FIELD_TOP, below)


# ---------------------------------------------------------------------------
# the coordinate step and its Grassmann signs
# ---------------------------------------------------------------------------

def test_even_multiplication_increments_exponent():
    cs = CoordSystem(1, 0)
    assert shift_coord(cs, 0, mono_pack(((0, 2),)), 1) \
        == (1, 2, mono_pack(((0, 3),)))
    assert shift_coord(cs, 0, MONO_ONE, 1) == (1, 0, mono_pack(((0, 1),)))


def test_odd_square_is_zero():
    cs = CoordSystem(1, 0)
    assert shift_coord(cs, 1, mono_pack(((1, 1),)), 1) is None
    assert shift_coord(cs, 2, mono_pack(((1, 1), (2, 1))), 1) is None


def test_koszul_sign_counts_earlier_odd_coordinates():
    cs = CoordSystem(1, 0)
    # theta22 * theta12 = -theta12 theta22 in canonical order
    assert shift_coord(cs, 2, mono_pack(((1, 1),)), 1) \
        == (-1, 0, mono_pack(((1, 1), (2, 1))))
    # theta12 * theta22 needs no swap
    assert shift_coord(cs, 1, mono_pack(((2, 1),)), 1) \
        == (1, 0, mono_pack(((1, 1), (2, 1))))
    # even coordinates never produce signs
    sign, _, _ = shift_coord(cs, 0, mono_pack(((1, 1), (2, 1))), 1)
    assert sign == 1


def test_grassmann_derivative_left_sign():
    cs = CoordSystem(1, 0)
    mono = mono_pack(((1, 1), (2, 1)))        # th(1,2) th(2,2)
    assert shift_coord(cs, 1, mono, -1) == (1, 1, mono_pack(((2, 1),)))
    assert shift_coord(cs, 2, mono, -1) == (-1, 1, mono_pack(((1, 1),)))
    assert shift_coord(cs, 1, mono_pack(((0, 2),)), -1) is None


def test_mul_then_remove_round_trips():
    cs = CoordSystem(2, 2)
    pairs = ((1, 1), (3, 1), (7, 1))
    mono = mono_pack(pairs)
    for pos in range(cs.ncoords):
        if not cs.odd[pos] or pos in dict(pairs):
            continue
        s1, _, m1 = shift_coord(cs, pos, mono, 1)
        s2, _, m2 = shift_coord(cs, pos, m1, -1)
        assert m2 == mono and s1 * s2 == 1


@given(st.integers(0, 5), st.integers(0, 5))
@settings(max_examples=40)
def test_multiplication_adds_one_to_degree(a, b):
    cs = CoordSystem(1, 1)
    mono = mono_pack(p for p in (((0, a) if a else None),
                                 ((3, b) if b else None)) if p)
    _, _, out = shift_coord(cs, 0, mono, 1)
    assert sum(e for _, e in mono_pairs(out)) \
        == sum(e for _, e in mono_pairs(mono)) + 1


def test_even_derivative_step():
    cs = CoordSystem(1, 0)
    # the old exponent comes back, and exponent 1 drops out
    assert shift_coord(cs, 0, mono_pack(((0, 2), (2, 1))), -1) \
        == (1, 2, mono_pack(((0, 1), (2, 1))))
    assert shift_coord(cs, 0, mono_pack(((0, 1),)), -1) == (1, 1, MONO_ONE)
    # exponent 0: the derivative annihilates the monomial
    assert shift_coord(cs, 0, mono_pack(((2, 1),)), -1) is None
    assert shift_coord(cs, 0, MONO_ONE, -1) is None


def _reference_step(cs, pos, mono, d):
    """The coordinate step on a dense exponent vector."""
    vec = [0] * cs.ncoords
    for p, e in mono_pairs(mono):
        vec[p] = e
    n = vec[pos]
    vec[pos] = n + d
    if vec[pos] < 0 or (cs.odd[pos] and vec[pos] > 1):
        return None
    # the odd coordinates present before an odd pos
    passed = sum(vec[p] for p in range(pos) if cs.odd[p]) if cs.odd[pos] else 0
    return ((-1) ** passed, n,
            mono_pack((p, e) for p, e in enumerate(vec) if e))


@pytest.mark.parametrize("MN,nmonos", [((1, 1), 56), ((2, 1), 220)])
def test_shift_coord_matches_the_dense_reference(MN, nmonos):
    cs = CoordSystem(*MN)
    checked = 0
    for mono in basis_monomials(cs, 3):
        for pos in range(cs.ncoords):
            for d in (1, -1):
                assert shift_coord(cs, pos, mono, d) \
                    == _reference_step(cs, pos, mono, d), (mono, pos, d)
                checked += 1
    assert checked == nmonos * cs.ncoords * 2


def test_mono_render():
    cs = CoordSystem(1, 0)
    assert mono_render(cs, MONO_ONE) == "1"
    assert mono_render(cs, mono_pack(((0, 2), (1, 1)))) == "z(1,1)^2 th(1,2)"


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

def _x(cs, pos):
    return OpExpr.term(cs, (("x", pos),))


def test_poly_addition_and_cancellation():
    # the residual first_failure returns is lhs - rhs: a monomial both
    # sides reach with one coefficient cancels, and one side's alone stays
    cs = CoordSystem(1, 0)
    z, th = _x(cs, 0), _x(cs, 1)
    assert first_failure([(z + th, z)], 0) == \
        (0, MONO_ONE, {mono_pack(((1, 1),)): ONE})
    assert first_failure([(z, z.scale(MINUS_ONE))], 0) == \
        (0, MONO_ONE, {mono_pack(((0, 1),)): ONE + ONE})


def test_residual_drops_a_cancelled_monomial():
    cs = CoordSystem(1, 0)
    z, th = _x(cs, 0), _x(cs, 1)
    found = first_failure([(z + th.scale(qpow(1)), z + th)], 0)
    assert found[2] == {mono_pack(((1, 1),)): qpow(1) - ONE}


def test_poly_render():
    cs = CoordSystem(1, 0)
    p = {MONO_ONE: qpow(2), mono_pack(((1, 1), (2, 1))): MINUS_ONE}
    assert poly_render(cs, p) == "q^{2} + -1 th(1,2) th(2,2)"
    assert poly_render(cs, {}) == "0"
    # terms sort by their pairs, not by the packed int: z th < z^2
    p = {mono_pack(((0, 2),)): ONE, mono_pack(((0, 1), (1, 1))): ONE}
    assert poly_render(cs, p) == "z(1,1) th(1,2) + z(1,1)^2"
