"""Exact scalar arithmetic for the q-operator engine.

Scalars are Laurent polynomials in q and in weight markers Q1, Q2, ...
(the marker Qi stands for q raised to the i-th weight), divided by a
Laurent polynomial in q alone.  All coefficients are exact rationals;
there is no floating point anywhere.

A Laurent polynomial is stored as a dict mapping keys to nonzero
rational coefficients.  A key is a pair ``(qexp, wkey)`` where ``qexp``
is the exponent of q and ``wkey`` is a sorted tuple of
``(marker_index, exponent)`` pairs with nonzero exponents.

Denominators are kept canonical with minimal q-exponent 0 and leading
coefficient 1, and common factors of (q - q^-1) are cancelled exactly,
so elements whose denominator is a power of (q - q^-1) have a unique
representation.  Generic equality falls back to cross-multiplication.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache


class NonPolynomialLimit(Exception):
    """Raised when q -> 1 hits a genuinely singular denominator."""


# ---------------------------------------------------------------------------
# raw Laurent-polynomial helpers (dicts key -> coefficient)
# ---------------------------------------------------------------------------

def _wkey_add(a, b):
    if not a:
        return b
    if not b:
        return a
    d = dict(a)
    for i, e in b:
        e2 = d.get(i, 0) + e
        if e2:
            d[i] = e2
        else:
            del d[i]
    return tuple(sorted(d.items()))


def lp_add_into(acc, p, factor=1):
    for k, c in p.items():
        c2 = acc.get(k, 0) + factor * c
        if c2:
            acc[k] = c2
        else:
            del acc[k]


def lp_add(a, b):
    out = dict(a)
    lp_add_into(out, b)
    return out


def lp_neg(a):
    return {k: -c for k, c in a.items()}


def lp_mul(a, b):
    if not a or not b:
        return {}
    out = {}
    for (qa, wa), ca in a.items():
        for (qb, wb), cb in b.items():
            k = (qa + qb, _wkey_add(wa, wb))
            c = out.get(k, 0) + ca * cb
            if c:
                out[k] = c
            else:
                del out[k]
    return out


def lp_scale(a, c):
    if not c:
        return {}
    return {k: v * c for k, v in a.items()}


def lp_shift(a, n):
    """Multiply by q^n."""
    if n == 0:
        return a
    return {(qe + n, wk): c for (qe, wk), c in a.items()}


# q-only polynomials are dicts qexp -> coeff
def qp_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = ea + eb
            c = out.get(e, 0) + ca * cb
            if c:
                out[e] = c
            else:
                del out[e]
    return out


def qp_lift(a):
    """Embed a q-only dict into the full key space."""
    return {(e, ()): c for e, c in a.items()}


_QSQ1 = {2: 1, 0: -1}  # q^2 - 1


def _qp_div_qsq1(p):
    """Exact division of a q-only Laurent poly by q^2 - 1, or None."""
    if not p:
        return {}
    lo = min(p)
    hi = max(p)
    dense = [p.get(e, 0) for e in range(lo, hi + 1)]
    n = len(dense)
    if n < 3:
        return None
    quot = [0] * (n - 2)
    for j in range(n - 1, 1, -1):
        c = dense[j]
        if c:
            quot[j - 2] = c
            dense[j] = 0
            dense[j - 2] += c
    if dense[0] or dense[1]:
        return None
    return {lo + j: c for j, c in enumerate(quot) if c}


def _lp_div_s(p):
    """Exact division of a full Laurent poly by (q - q^-1), or None.

    Uses p / (q - q^-1) = (q * p) / (q^2 - 1), applied per marker group.
    """
    groups = {}
    for (qe, wk), c in p.items():
        groups.setdefault(wk, {})[qe + 1] = c
    out = {}
    for wk, g in groups.items():
        h = _qp_div_qsq1(g)
        if h is None:
            return None
        for e, c in h.items():
            out[(e, wk)] = c
    return out


# ---------------------------------------------------------------------------
# ring elements
# ---------------------------------------------------------------------------

class RingElem:
    """An exact scalar: Laurent poly over q and markers, over a q-only poly.

    Instances are immutable; all operations return new elements.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None, _reduced=False):
        if den is None:
            den = {0: 1}
        if not _reduced:
            num, den = _reduce(num, den)
        self.num = num
        self.den = den

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_rational(c):
        if not isinstance(c, int):
            c = Fraction(c)
            if c.denominator == 1:
                c = c.numerator
        if not c:
            return ZERO
        return RingElem({(0, ()): c}, None, _reduced=True)

    @staticmethod
    def monomial(qexp=0, weights=None, coeff=1):
        """The single monomial coeff * q^qexp * prod Qi^weights[i]."""
        if not coeff:
            return ZERO
        wk = tuple(sorted((i, e) for i, e in (weights or {}).items() if e))
        return RingElem({(qexp, wk): coeff}, None, _reduced=True)

    # -- predicates ---------------------------------------------------------

    def is_zero(self):
        return not self.num

    def is_one(self):
        if self.den == {0: 1} and self.num == {(0, ()): 1}:
            return True
        return self == ONE

    def has_markers(self):
        return any(wk for (_, wk) in self.num)

    @property
    def denom_pow(self):
        """k when the denominator is exactly (q - q^-1)^k, else None."""
        den = self.den
        k = 0
        while den != {0: 1}:
            den = _qp_div_qsq1(den)
            if den is None:
                return None
            k += 1
        return k

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if self.den == other.den:
            return RingElem(lp_add(self.num, other.num), self.den)
        num = lp_add(lp_mul(self.num, qp_lift(other.den)),
                     lp_mul(other.num, qp_lift(self.den)))
        return RingElem(num, qp_mul(self.den, other.den))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return RingElem(lp_neg(self.num), self.den, _reduced=True)

    def __mul__(self, other):
        if not self.num or not other.num:
            return ZERO
        den = (self.den if other.den == {0: 1}
               else other.den if self.den == {0: 1}
               else qp_mul(self.den, other.den))
        return RingElem(lp_mul(self.num, other.num), den)

    def __truediv__(self, other):
        """Division by a marker-free element."""
        if other.has_markers():
            raise ValueError("can only divide by marker-free scalars")
        if other.is_zero():
            raise ZeroDivisionError("division by zero scalar")
        bnum = {qe: c for (qe, _), c in other.num.items()}
        return RingElem(lp_mul(self.num, qp_lift(other.den)),
                        qp_mul(self.den, bnum))

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative powers not supported")
        out = ONE
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        if not isinstance(other, RingElem):
            return NotImplemented
        if self.den == other.den:
            return self.num == other.num
        return (lp_mul(self.num, qp_lift(other.den))
                == lp_mul(other.num, qp_lift(self.den)))

    def __hash__(self):
        # a == b means N_a^w D_b = N_b^w D_a for the numerator group N^w of
        # every marker key w, so the set of keys and, per key, the top and
        # bottom q-exponents of N^w less those of the denominator agree
        lo, hi = min(self.den), max(self.den)
        span = {}
        for qe, wk in self.num:
            a, b = span.get(wk, (qe, qe))
            span[wk] = (min(a, qe), max(b, qe))
        return hash(frozenset((wk, a - lo, b - hi)
                              for wk, (a, b) in span.items()))

    # -- evaluation ---------------------------------------------------------

    def eval_q1(self):
        """Substitute q = 1; exact rational result.

        Requires all weight markers to have been bound to integers first.
        """
        if self.has_markers():
            raise ValueError("weight markers present; bind weights first")
        den1 = sum(self.den.values())
        if not den1:
            raise NonPolynomialLimit("denominator vanishes at q = 1")
        num1 = sum(self.num.values())
        v = Fraction(num1, den1) if den1 != 1 else num1
        return v if isinstance(v, int) or v.denominator != 1 else v.numerator

    # -- rendering ----------------------------------------------------------

    def render(self):
        if not self.num:
            return "0"
        num = self.num
        den = self.den
        dp = self.denom_pow
        if dp:
            # display over (q-q^-1)^k: value = num/(q^2-1)^k = num*q^-k / s^k
            num = lp_shift(num, -dp)
        body = _render_lp(num)
        if den == {0: 1}:
            return body
        if dp is not None:
            suffix = "(q-q^-1)" if dp == 1 else "(q-q^-1)^%d" % dp
        else:
            suffix = "(" + _render_lp(qp_lift(den)) + ")"
        if len(num) > 1:
            body = "(" + body + ")"
        return body + " / " + suffix

    def __repr__(self):
        return "RingElem(%s)" % self.render()


def _render_lp(p):
    parts = []
    for (qe, wk) in sorted(p, key=lambda k: (-k[0],
                                             tuple((i, -e) for i, e in k[1]))):
        c = p[(qe, wk)]
        factors = []
        if qe:
            factors.append("q^{%d}" % qe)
        for i, e in wk:
            factors.append("Q%d^{%d}" % (i, e))
        if not factors:
            text = str(c)
        elif c == 1:
            text = " ".join(factors)
        elif c == -1:
            text = "-" + " ".join(factors)
        else:
            text = str(c) + " " + " ".join(factors)
        parts.append(text)
    out = parts[0]
    for t in parts[1:]:
        out += (" - " + t[1:]) if t.startswith("-") else (" + " + t)
    return out


def _reduce(num, den):
    if not num:
        return {}, {0: 1}
    # cancel common (q - q^-1) factors:
    #   num/den = (num/s) * q^-1 / (den/(q^2-1))
    while True:
        dq = _qp_div_qsq1(den)
        if dq is None:
            break
        nq = _lp_div_s(num)
        if nq is None:
            break
        num = lp_shift(nq, -1)
        den = dq
    # canonical denominator: min exponent 0, leading coefficient 1
    lo = min(den)
    if lo:
        den = {e - lo: c for e, c in den.items()}
        num = lp_shift(num, -lo)
    lc = den[max(den)]
    if lc != 1:
        inv = Fraction(1, 1) / lc
        if inv.denominator == 1:
            inv = inv.numerator
        den = {e: c * inv for e, c in den.items()}
        num = lp_scale(num, inv)
    return num, den


ZERO = RingElem({}, None, _reduced=True)
ONE = RingElem({(0, ()): 1}, None, _reduced=True)
MINUS_ONE = RingElem({(0, ()): -1}, None, _reduced=True)
Q_MINUS_QINV = RingElem({(1, ()): 1, (-1, ()): -1}, None, _reduced=True)


# ---------------------------------------------------------------------------
# q-powers and q-numbers of affine forms  c0 + sum_i d_i * lambda_i
# ---------------------------------------------------------------------------

def qpow(const, lam=None):
    """q^{const} * prod Qi^{lam[i]}, a single monomial."""
    key = tuple(sorted((i, e) for i, e in lam.items() if e)) if lam else ()
    return _qpow_cached(const, key)


@lru_cache(maxsize=None)
def _qpow_cached(const, lam_key):
    return RingElem.monomial(const, dict(lam_key))


@lru_cache(maxsize=None)
def _qnum_int(n):
    if n == 0:
        return ZERO
    if n < 0:
        return -_qnum_int(-n)
    # [n] = q^{n-1} + q^{n-3} + ... + q^{1-n}
    return RingElem({(n - 1 - 2 * k, ()): 1 for k in range(n)},
                    None, _reduced=True)


def qnum(const, lam=None):
    """[const + sum lam_i], the symmetric q-number of an affine form."""
    key = tuple(sorted((i, e) for i, e in lam.items() if e)) if lam else ()
    if not key:
        return _qnum_int(const)
    return _qnum_cached(const, key)


@lru_cache(maxsize=None)
def _qnum_cached(const, lam_key):
    lam = dict(lam_key)
    num = lp_add(qpow(const, lam).num,
                 lp_neg(qpow(-const, {i: -e for i, e in lam.items()}).num))
    return RingElem(num, {1: 1, -1: -1})


@lru_cache(maxsize=None)
def qfactorial(n):
    """[n]! = [1][2]...[n]."""
    out = ONE
    for k in range(2, n + 1):
        out = out * _qnum_int(k)
    return out
