"""Tests for the exact coefficient ring: Laurent polynomials in q and the
weight markers Q_i over denominators (q - q^-1)^k."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from qsuperalg.scalars import (RingElem, NonPolynomialLimit, ZERO, ONE,
                               Q_MINUS_QINV, qpow, qnum, qfactorial)


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
    v = qnum(1, {2: 1})
    assert v.render() == "(q^{1} Q2^{1} - q^{-1} Q2^{-1}) / (q-q^-1)"
    assert v.denom_pow == 1
    # defining property: (q - q^-1) [c + lambda] = q^{c+lambda} - q^{-c-lambda}
    assert Q_MINUS_QINV * v == qpow(1, {2: 1}) - qpow(-1, {2: -1})


def test_qnum_marker_addition_law():
    lam = {1: 1, 3: -2}
    neg = {i: -c for i, c in lam.items()}
    for n in range(-4, 5):
        lhs = qnum(n + 2, lam)
        rhs = qpow(2, lam) * qnum(n) + qpow(-n) * qnum(2, lam)
        assert lhs == rhs
        assert qnum(-n - 2, neg) == -lhs


def test_qfactorial():
    assert qfactorial(0) == ONE
    assert qfactorial(1) == ONE
    assert qfactorial(2) == qnum(2)
    assert qfactorial(3) == qnum(2) * qnum(3)
    assert qfactorial(3).render() == "q^{3} + 2 q^{1} + 2 q^{-1} + q^{-3}"


# ---------------------------------------------------------------------------
# q-powers
# ---------------------------------------------------------------------------

def test_qpow_additivity():
    a = qpow(2, {1: 1})
    b = qpow(-3, {1: -1, 2: 2})
    assert a * b == qpow(-1, {2: 2})
    assert qpow(0) == ONE


def test_qpow_render_orders_markers():
    assert qpow(-2, {1: 1, 3: -1}).render() == "q^{-2} Q1^{1} Q3^{-1}"


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
        elem = elem + RingElem.monomial(qe, dict(wkey)) * RingElem.from_rational(c)
    if rng.random() < 0.4:
        elem = elem / Q_MINUS_QINV ** rng.randint(1, 2)
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
        blown = (a * Q_MINUS_QINV ** k) / Q_MINUS_QINV ** k
        assert blown == a
        if not a.is_zero():
            assert a != a + ONE


@given(st.integers(-6, 6), st.integers(-6, 6), st.integers(-6, 6))
@settings(max_examples=60)
def test_qpow_group_law(a, b, c):
    assert qpow(a) * qpow(b) * qpow(c) == qpow(a + b + c)


@given(st.integers(-8, 8), st.integers(1, 4))
@settings(max_examples=60)
def test_power_matches_repeated_product(n, k):
    base = qnum(n) + qpow(1)
    prod = ONE
    for _ in range(k):
        prod = prod * base
    assert base ** k == prod


# ---------------------------------------------------------------------------
# division and cancellation
# ---------------------------------------------------------------------------

def test_difference_of_qpowers_cancels_denominator():
    # (q^n - q^-n)/(q - q^-1) is the q-number [n], with no denominator left
    for n in range(1, 8):
        v = (qpow(n) - qpow(-n)) / Q_MINUS_QINV
        assert v == qnum(n)
        assert v.denom_pow == 0


def test_rational_scalars():
    half = RingElem.from_rational(Fraction(1, 2))
    assert half + half == ONE
    assert half * RingElem.from_rational(2) == ONE
    assert (ONE / RingElem.from_rational(3)) * RingElem.from_rational(3) == ONE


def test_integral_fractions_become_int():
    assert RingElem.from_rational(Fraction(-4, 2)).num == {(0, ()): -2}
    assert type(RingElem.from_rational(Fraction(-1)).num[(0, ())]) is int
    assert type(RingElem.from_rational(Fraction(1, 2)).num[(0, ())]) \
        is Fraction
    # a denominator with leading coefficient -1 is normalized by an int
    v = ONE / (ONE - qpow(2))
    assert {type(c) for c in (*v.num.values(), *v.den.values())} == {int}


def test_division_by_marker_bearing_element_is_rejected():
    with pytest.raises(ValueError):
        ONE / qpow(0, {1: 1})


def test_value_equality_ignores_unreduced_denominators():
    # 1/[2] * [2] keeps a (q^2+1)/(q^2+1) representation but equals one
    v = (ONE / qnum(2)) * qnum(2)
    assert v == ONE
    assert v.is_one()


def _laurent(terms):
    out = ZERO
    for (qe, wkey), c in terms.items():
        out = out + RingElem.monomial(qe, dict(wkey), c)
    return out


_COEFF = st.integers(-3, 3).filter(bool)
_NUMER = st.dictionaries(
    st.tuples(st.integers(-3, 3), st.sampled_from(((), ((1, 1),),
                                                   ((1, -1), (2, 2))))),
    _COEFF, max_size=4)
_DENOM = st.dictionaries(st.tuples(st.integers(-3, 3), st.just(())),
                         _COEFF, min_size=1, max_size=3)


@given(_NUMER, _DENOM, _DENOM)
@example({(0, ()): 1}, {(1, ()): 1, (0, ()): 1}, {(0, ()): 1})
@example({(0, ()): 1}, {(1, ()): 1, (0, ()): -1}, {(1, ()): 1, (0, ()): 1})
@settings(max_examples=200)
def test_hash_agrees_with_eq(a, f, g):
    # (a f)/(g f) == a/g; the examples are (q+1)/(q+1) == 1 and
    # (q-1)/(q^2-1) == 1/(q+1), kept in different representations
    a, f, g = _laurent(a), _laurent(f), _laurent(g)
    x, y = (a * f) / (g * f), a / g
    assert x == y
    assert hash(x) == hash(y)


# ---------------------------------------------------------------------------
# the classical limit q -> 1
# ---------------------------------------------------------------------------

def test_eval_q1_of_qnum_is_the_integer():
    for n in range(-9, 10):
        assert qnum(n).eval_q1() == n


def test_eval_q1_rationals_and_failures():
    assert Q_MINUS_QINV.eval_q1() == 0
    assert (qnum(3) * qnum(2)).eval_q1() == 6
    assert RingElem.from_rational(Fraction(2, 3)).eval_q1() == Fraction(2, 3)
    with pytest.raises(NonPolynomialLimit):
        (ONE / Q_MINUS_QINV).eval_q1()
    with pytest.raises(ValueError):
        qpow(0, {1: 1}).eval_q1()


def test_eval_q1_cancels_removable_singularity():
    # (q^2 - q^-2)/(q - q^-1) has a denominator but a finite q=1 value
    v = (qpow(2) - qpow(-2)) / Q_MINUS_QINV
    assert v.eval_q1() == 2
