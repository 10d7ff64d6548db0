"""Tests for the exact coefficient ring: Laurent polynomials in q and the
weight markers Q_i over denominators (q - q^-1)^k."""

import random
from fractions import Fraction
from math import prod

import pytest
from hypothesis import example, given, settings, strategies as st

from qsuperalg import scalars
from qsuperalg.operators import LinForm
from qsuperalg.scalars import (RingElem, ZERO, ONE, LIMIT, qpow, qnum, lin,
                               sum_of_products)


# q - q^-1 = (q^2 - 1)/q
_S = qpow(1) - qpow(-1)


def _over(x, j):
    """x / (q - q^-1)^j, that is x q^j / (q^2 - 1)^j, built by hand: the
    ring itself never divides."""
    y = x * qpow(j)
    return scalars._canonical(y._n, y._k + j, y._b)


def _power(x, n):
    return prod((x,) * n, start=ONE)


# ---------------------------------------------------------------------------
# q-numbers
# ---------------------------------------------------------------------------

def test_qnum_small_values():
    assert qnum(0).is_zero()
    assert qnum(1) == ONE
    assert qnum(2).render() == "q^{1} + q^{-1}"
    assert qnum(3).render() == "q^{2} + 1 + q^{-2}"


def test_qnum_is_odd_in_n():
    for n in range(0, 12):
        assert qnum(-n) == -qnum(n)


def test_qnum_addition_law():
    # [m+n] = q^n [m] + q^-m [n]
    for m in range(-10, 11):
        for n in range(-10, 11):
            assert qnum(m + n) == qpow(n) * qnum(m) + qpow(-m) * qnum(n)


def test_qnum_with_weight_marker():
    # [1 + lambda_2] = (q Q2 - q^-1 Q2^-1)/(q - q^-1)
    v = qnum(1, ((2, 1),))
    assert v.render() == "(q^{1} Q2^{1} - q^{-1} Q2^{-1}) / (q-q^-1)"
    assert v.denom_pow == 1
    # defining property: (q - q^-1) [c + lambda] = q^{c+lambda} - q^{-c-lambda}
    assert _S * v == qpow(1, ((2, 1),)) - qpow(-1, ((2, -1),))


def test_qnum_marker_addition_law():
    lam = ((1, 1), (3, -2))
    neg = tuple((i, -c) for i, c in lam)
    for n in range(-4, 5):
        lhs = qnum(n + 2, lam)
        rhs = qpow(2, lam) * qnum(n) + qpow(-n) * qnum(2, lam)
        assert lhs == rhs
        assert qnum(-n - 2, neg) == -lhs


def test_qfactorial():
    # [n]! = [1][2]...[n] as a product of q-numbers
    fact = [ONE]
    for n in range(1, 4):
        fact.append(fact[-1] * qnum(n))
    assert fact[1] == ONE
    assert fact[2] == qnum(2)
    assert fact[3] == qnum(2) * qnum(3)
    assert fact[3].render() == "q^{3} + 2 q^{1} + 2 q^{-1} + q^{-3}"


# ---------------------------------------------------------------------------
# q-powers
# ---------------------------------------------------------------------------

def test_qpow_additivity():
    a = qpow(2, ((1, 1),))
    b = qpow(-3, ((1, -1), (2, 2)))
    assert a * b == qpow(-1, ((2, 2),))
    assert qpow(0) == ONE


def test_qpow_render_orders_markers():
    assert qpow(-2, ((1, 1), (3, -1))).render() == "q^{-2} Q1^{1} Q3^{-1}"


# ---------------------------------------------------------------------------
# marker pairs: order, zeros and repeats leave the value as it is
# ---------------------------------------------------------------------------

def test_marker_free_qnum_is_read_from_the_packed_key():
    # a zero or cancelling marker is no marker: [0] = 0, not -1/(q-q^-1)
    assert qnum(0, ((1, 0),)) == ZERO
    assert qnum(2, ((1, 1), (1, -1))) == qnum(2)


def test_unsorted_marker_pairs_give_the_sorted_element():
    pairs = ((1, 2), (3, -1), (2, 1))
    for make in (qpow, qnum, lin):
        assert make(1, pairs) == make(1, tuple(sorted(pairs)))
        assert make(-2, pairs + ((4, 0),)) == make(-2, pairs)


def test_marker_index_zero_is_rejected():
    with pytest.raises(ValueError):
        qpow(0, ((0, 1),))


def test_linform_keeps_sorted_nonzero_marker_pairs():
    assert LinForm(lam=((2, 1), (1, 0))).lam == ((2, 1),)
    assert LinForm(lam=((2, 1), (1, 3), (2, -1))).lam == ((1, 3),)
    assert (LinForm(lam=((1, 1),)) - LinForm(lam=((1, 1),))).is_zero()


# ---------------------------------------------------------------------------
# ring structure
# ---------------------------------------------------------------------------

def _random_elem(rng, markers=(1, 2)):
    num = {}
    for _ in range(rng.randint(0, 4)):
        qe = rng.randint(-4, 4)
        wkey = tuple(sorted((i, rng.randint(-2, 2)) for i in
                            rng.sample(markers, rng.randint(0, len(markers)))))
        wkey = tuple((i, e) for i, e in wkey if e)
        num[(qe, wkey)] = num.get((qe, wkey), 0) + rng.randint(-3, 3)
    elem = ZERO
    for (qe, wkey), c in num.items():
        elem = elem + RingElem.monomial(qe, wkey) * RingElem.from_rational(c)
    if rng.random() < 0.4:
        elem = _over(elem, rng.randint(1, 2))
    return elem


def test_ring_axioms_on_random_elements():
    rng = random.Random(20260826)
    for _ in range(150):
        a, b, c = (_random_elem(rng) for _ in range(3))
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + ZERO == a
        assert a * ONE == a
        assert a - a == ZERO
        assert a * ZERO == ZERO


def test_eq_is_an_equivalence_across_denominators():
    rng = random.Random(7)
    for _ in range(400):
        a = _random_elem(rng)
        k = rng.randint(1, 3)
        blown = _over(a * _power(_S, k), k)
        assert blown == a
        if not a.is_zero():
            assert a != a + ONE


@given(st.integers(-6, 6), st.integers(-6, 6), st.integers(-6, 6))
@settings(max_examples=60)
def test_qpow_group_law(a, b, c):
    assert qpow(a) * qpow(b) * qpow(c) == qpow(a + b + c)


# ---------------------------------------------------------------------------
# cancellation
# ---------------------------------------------------------------------------

def test_difference_of_qpowers_cancels_denominator():
    # (q^n - q^-n)/(q - q^-1) is the q-number [n], with no denominator left
    for n in range(1, 8):
        v = _over(qpow(n) - qpow(-n), 1)
        assert v == qnum(n)
        assert v.denom_pow == 0


def test_rational_scalars():
    half = RingElem.from_rational(Fraction(1, 2))
    assert half + half == ONE
    assert half * RingElem.from_rational(2) == ONE
    third = RingElem.monomial(0, (), Fraction(1, 3))
    assert third * RingElem.from_rational(3) == ONE


def test_floats_are_refused():
    # a float is not exact: 0.1 would become 3602879701896397/2^55; a bool
    # equals 1 or 0, but would render as True
    for c in (0.1, 0.5, 0.0, True, False):
        with pytest.raises(TypeError, match=repr(c)):
            RingElem.from_rational(c)
        with pytest.raises(TypeError, match=repr(c)):
            RingElem.monomial(1, (), c)


def test_integral_fractions_become_int():
    assert RingElem.from_rational(Fraction(-4, 2)).num == {(0, ()): -2}
    assert type(RingElem.from_rational(Fraction(-1)).num[(0, ())]) is int
    assert type(RingElem.from_rational(Fraction(1, 2)).num[(0, ())]) \
        is Fraction
    # -q^-1/(q - q^-1) = -1/(q^2 - 1) keeps int coefficients over k = 1
    v = _over(-qpow(-1), 1)
    assert v.denom_pow == 1
    assert {type(c) for c in (*v.num.values(), *v.den.values())} == {int}


def test_value_equality_ignores_unreduced_denominators():
    # (x s^2)/s^2 passes through a (q - q^-1)^2 denominator but equals x
    s2 = _power(_S, 2)
    for x in (ONE, qnum(2), _over(qnum(3, ((1, 1),)), 1),
              qpow(-1, ((2, 1),)) + ONE):
        assert _over(x * s2, 2) == x
    assert _over(ONE * s2, 2).is_one()


def _laurent(terms):
    out = ZERO
    for (qe, wkey), c in terms.items():
        out = out + RingElem.monomial(qe, wkey, c)
    return out


_COEFF = st.integers(-3, 3).filter(bool)
_NUMER = st.dictionaries(
    st.tuples(st.integers(-3, 3), st.sampled_from(((), ((1, 1),),
                                                   ((1, -1), (2, 2))))),
    _COEFF, max_size=4)
# a divisor c q^a (q - q^-1)^j, drawn as (c, a, j)
_DIVISOR = st.tuples(_COEFF, st.integers(-3, 3), st.integers(0, 3))


def _divisor(c, a, j):
    return RingElem.monomial(a, (), c) * _power(_S, j)


def _divide(x, c, a, j):
    """x / (c q^a (q - q^-1)^j)."""
    return _over(x * RingElem.monomial(-a, (), Fraction(1, c)), j)


@given(_NUMER, _DIVISOR, _DIVISOR)
@example({(0, ()): 1}, (1, 0, 1), (1, 0, 0))
@example({(1, ((1, 1),)): 1, (-1, ((1, -1), (2, 2))): -1}, (2, 1, 2),
         (-1, 0, 1))
@settings(max_examples=200)
def test_hash_agrees_with_eq(a, f, g):
    # (a f)/(g f) == a/g: x passes through a larger numerator and
    # denominator than y; the examples are s/s == 1 and a marker-bearing
    # numerator over (q - q^-1)^3 against the same over (q - q^-1)
    (cf, af, jf), (cg, ag, jg) = f, g
    a = _laurent(a)
    x = _divide(a * _divisor(cf, af, jf), cg * cf, ag + af, jg + jf)
    y = _divide(a, cg, ag, jg)
    assert x == y
    assert hash(x) == hash(y)


# ---------------------------------------------------------------------------
# the classical limit q -> 1
# ---------------------------------------------------------------------------

def test_eval_q1_of_qnum_is_the_integer():
    for n in range(-9, 10):
        assert qnum(n).eval_q1() == n


def test_eval_q1_rationals_and_failures():
    assert _S.eval_q1() == 0
    assert (qnum(3) * qnum(2)).eval_q1() == 6
    assert RingElem.from_rational(Fraction(2, 3)).eval_q1() == Fraction(2, 3)
    # (q + q^-1)/2 sums its Fraction coefficients to the int 1
    mean = (RingElem.monomial(1, (), Fraction(1, 2))
            + RingElem.monomial(-1, (), Fraction(1, 2)))
    assert type(mean.eval_q1()) is int
    # a denominator or a marker is refused, not evaluated
    with pytest.raises(ValueError):
        _over(ONE, 1).eval_q1()
    with pytest.raises(ValueError):
        qpow(0, ((1, 1),)).eval_q1()


# ---------------------------------------------------------------------------
# unit factors
# ---------------------------------------------------------------------------

def test_product_with_one_is_the_other_factor():
    marker_k2 = _over(qpow(1) + RingElem.monomial(0, ((1, 1),), 2), 2)
    assert marker_k2.denom_pow == 2
    for x in (_over(qnum(3), 1), qpow(2, ((1, -1),)), marker_k2,
              RingElem.from_rational(Fraction(2, 3))):
        for y in (x * ONE, RingElem.from_rational(1) * x):
            assert y is x
            assert y.render() == x.render()
            assert hash(y) == hash(x)


def test_is_one_with_and_without_a_denominator():
    assert ONE.is_one() and RingElem.from_rational(1).is_one()
    assert not qpow(1).is_one() and not ZERO.is_one()
    assert _over(_S, 1).is_one()
    assert not _over(ONE, 1).is_one()


# ---------------------------------------------------------------------------
# exact oracle: evaluation at rational points
# ---------------------------------------------------------------------------

# q = 2 with (Q1, Q2) = (3, 5/7), and q = 3/2 with (Q1, Q2) = (2, 1/3)
_POINTS = ((Fraction(2), {1: Fraction(3), 2: Fraction(5, 7)}),
           (Fraction(3, 2), {1: Fraction(2), 2: Fraction(1, 3)}))


def _value(x, q, Q):
    """x at a point, read from the num and denom_pow views alone."""
    total = Fraction(0)
    for (qe, wk), c in x.num.items():
        term = c * q ** qe
        for i, e in wk:
            term *= Q[i] ** e
        total += term
    return total / (q * q - 1) ** x.denom_pow


def _is_canonical(x):
    """(q^2 - 1) does not divide num when k > 0: some marker group of num
    is nonzero at q = 1 or at q = -1."""
    if not x.denom_pow:
        return True
    at = {}
    for (qe, wk), c in x.num.items():
        s1, sm1 = at.get(wk, (0, 0))
        at[wk] = (s1 + c, sm1 + c * (-1) ** qe)
    return any(s1 for s1, _ in at.values()) \
        or any(sm1 for _, sm1 in at.values())


_Q_MINUS_1 = qpow(1) - ONE
_Q_PLUS_1 = qpow(1) + ONE

# num * (q - 1)^a * (q + 1)^b / (q - q^-1)^j, drawn as (num, a, b, j), so
# that numerators vanish at q = 1, at q = -1, at both or at neither
_ELEM = st.tuples(_NUMER, st.integers(0, 2), st.integers(0, 2),
                  st.integers(0, 3))


def _elem(num, a, b, j):
    return _over(_laurent(num) * _power(_Q_MINUS_1, a)
                 * _power(_Q_PLUS_1, b), j)


def _same(x, y):
    return (x.num == y.num and x.denom_pow == y.denom_pow
            and hash(x) == hash(y))


@given(_ELEM, _ELEM, _ELEM, st.integers(0, 3))
@settings(max_examples=150, deadline=None)
def test_arithmetic_matches_exact_evaluation(a, b, c, j):
    a, b, c = _elem(*a), _elem(*b), _elem(*c)
    s = _power(_S, j)
    for q, Q in _POINTS:
        va, vb, sv = _value(a, q, Q), _value(b, q, Q), _value(s, q, Q)
        assert _value(a + b, q, Q) == va + vb
        assert _value(a - b, q, Q) == va - vb
        assert _value(a * b, q, Q) == va * vb
        assert _value(_over(a, j), q, Q) == va / sv
    for x in (a, b, a + b, a - b, a * b, _over(a, j), a * b * c):
        assert _is_canonical(x)
    # equal values built along different paths have one (num, k) and hash
    assert _same((a + b) + c, a + (b + c))
    assert _same(a * (b + c), a * b + a * c)
    assert _same(_over(a * b, j), a * _over(b, j))
    assert _same(a + (c - a), c)
    assert _same(_over(a * s, j), a)


@given(_ELEM, _ELEM, st.sampled_from((1, -1, Fraction(1, 2),
                                      Fraction(-5, 3))))
@settings(max_examples=150, deadline=None)
def test_difference_is_the_sum_with_the_negation(a, b, r):
    # either side may carry the higher k; markers come from _NUMER and
    # Fraction coefficients from r
    a, b = _elem(*a) * RingElem.from_rational(r), _elem(*b)
    for x, y in ((a, b), (b, a), (a, a), (a, ZERO), (ZERO, b)):
        assert _same(x - y, x + (-y))
        assert _is_canonical(x - y)


# a contribution (a, b, negate) to sum_of_products; b None stands for 1
_TRIPLE = st.tuples(_ELEM, st.none() | _ELEM, st.booleans())


@given(st.lists(_TRIPLE, min_size=1, max_size=4), st.booleans())
@settings(max_examples=150, deadline=None)
def test_sum_of_products_matches_exact_evaluation(drawn, cancel):
    terms = [(_elem(*a), None if b is None else _elem(*b), neg)
             for a, b, neg in drawn]
    if cancel:
        # each contribution again with the other sign: the sum is 0
        terms += [(a, b, not neg) for a, b, neg in terms]
    total = sum_of_products(terms)
    for q, Q in _POINTS:
        want = Fraction(0)
        for a, b, neg in terms:
            v = _value(a, q, Q) * (1 if b is None else _value(b, q, Q))
            want += -v if neg else v
        assert _value(total, q, Q) == want
    assert _is_canonical(total)
    pairwise = ZERO
    for a, b, neg in terms:
        p = a if b is None else a * b
        pairwise = pairwise - p if neg else pairwise + p
    assert _same(total, pairwise)
    if cancel:
        assert total == ZERO


def test_sum_of_products_checks_exponent_bounds():
    pole = _over(ONE, 1)
    # a product past LIMIT, alone or beside a term that fits
    with pytest.raises(OverflowError):
        sum_of_products(((qpow(LIMIT), qpow(1), False),))
    with pytest.raises(OverflowError):
        sum_of_products(((ONE, None, False),
                         (qpow(0, ((1, -LIMIT),)), qpow(0, ((1, -1),)),
                          True)))
    # q^LIMIT lifted to the pole's k = 1 reaches q^(LIMIT + 2)
    with pytest.raises(OverflowError):
        sum_of_products(((qpow(LIMIT), None, False), (pole, None, False)))
    with pytest.raises(OverflowError):
        qpow(LIMIT) - pole
    # a bound of LIMIT over the exact exponent 1 neither raises as a
    # factor nor when lifted
    loose = (qpow(1) + qpow(LIMIT)) - qpow(LIMIT)
    assert loose == qpow(1)
    assert sum_of_products(((loose, qpow(LIMIT - 1), False),)) \
        == qpow(LIMIT)
    assert sum_of_products(((loose, None, False), (pole, qpow(2), True))) \
        == qpow(1) - _over(qpow(2), 1)


def test_sums_that_cancel_a_denominator():
    # (q^2 - 1)/(q - q^-1)^2 = q^2/(q^2 - 1): two terms over k = 2 leave k = 1
    x = _over(qpow(2), 2)
    y = _over(-ONE, 2)
    assert (x + y).denom_pow == 1
    assert (x + y) == _over(qpow(1), 1)
    # a product whose factors vanish at q = 1 and at q = -1 respectively
    lo = _over(_Q_MINUS_1, 1)
    hi = _over(_Q_PLUS_1, 1)
    assert lo.denom_pow == hi.denom_pow == 1
    assert lo * hi == _over(qpow(1), 1)
    assert (lo * hi).denom_pow == 1


def test_a_unit_times_a_canonical_factor_is_not_scanned(monkeypatch):
    """A product one of whose factors is a single term, a unit, is not
    scanned for (q^2 - 1) when the other factor is canonical with k > 0
    or a unit too; it is scanned, and cancels, when the other has k = 0
    and its numerator q - q^-1 is divisible: (q - q^-1) / (q - q^-1) is
    1 in either order."""
    scans = [0]
    flags = scalars._flags

    def counted(n):
        scans[0] += 1
        return flags(n)
    monkeypatch.setattr(scalars, "_flags", counted)
    pole = _over(ONE, 1)            # q / (q^2 - 1): a unit over k = 1
    marker = qnum(1, ((1, 1),))     # [1 + lambda_1]: canonical, k = 1
    assert len(pole._n) == 1 and marker.denom_pow == 1
    scans[0] = 0
    for x, y in ((marker, qpow(3)), (qpow(3), marker), (pole, pole),
                 (pole, marker)):
        assert _is_canonical(x * y)
    assert scans[0] == 0
    assert _S * pole == pole * _S == ONE
    assert scans[0] == 2            # one scan each, then one division


def test_exponents_past_the_packed_field_raise():
    with pytest.raises(OverflowError):
        qpow(LIMIT + 1)
    with pytest.raises(OverflowError):
        qpow(0, ((2, -LIMIT - 1),))
    with pytest.raises(OverflowError):
        qpow(0, ((1, LIMIT), (1, 1)))
    with pytest.raises(OverflowError):
        qpow(LIMIT) * qpow(1)
    with pytest.raises(OverflowError):
        qpow(0, ((1, LIMIT),)) * qpow(0, ((1, 1), (2, -1)))
    # a loose bound is checked against the exact exponents before raising
    loose = (qpow(1) + qpow(LIMIT)) - qpow(LIMIT)
    assert loose * qpow(LIMIT - 1) == qpow(LIMIT)

