"""Exact scalar arithmetic for the q-operator engine.

A scalar is a Laurent polynomial in q and the weight markers Q1, Q2, ...
(Qi stands for q to the i-th weight) over a power of (q - q^-1), since the
q-numbers [c + lambda] = (q^c Q - q^-c Q^-1)/(q - q^-1) are the only
denominators.  It is stored as (num, k), with value num / (q^2 - 1)^k and
exact rational coefficients, in canonical form: if k > 0, (q^2 - 1) does
not divide num.  So ``==`` and the hash read the pair.  One kernel,
``sum_of_products``, computes every result: it adds any number of
products +-a*b into one numerator per k, lifts each lower k once to the
highest by (q^2 - 1)^dk, and cancels (q^2 - 1) from the whole result at
the end.  ``+`` and ``-`` are its two-term case and ``*`` its one-product
case.

q - 1 and q + 1 are coprime primes of Q[q^+-1, Q^+-1], so (q^2 - 1)
divides num exactly when num vanishes at q = 1 and at q = -1 in every
marker group.  ``_canonical`` scans a result with k > 0 for those two
flags once, and again after each division by (q^2 - 1); it never scans a
k = 0 result, so every classical scalar goes unscanned.  A product of a
unit, one term, and a factor (q^2 - 1) does not divide, one with k > 0 or
a unit too, is canonical as it stands and is not scanned either.

A monomial q^e0 Q1^e1 Q2^e2 ... is keyed by the int e0 + e1 B + e2 B^2 + ...
with B = 2^16 and every |ei| <= LIMIT (Kronecker substitution, balanced
digits), so keys add under multiplication.  Each element bounds its
largest |ei|; bounds add under ``*``, grow by 2dk when a numerator is
lifted, and take the max over the parts of a sum.  A bound past LIMIT is
checked against the exact exponents and raises ``OverflowError`` if they
pass it too: a digit never wraps silently.

Scalars are only added, subtracted and multiplied, so every denominator
comes from a q-number of a marker form.  Sending each marker Qi to q^{n_i}
is a ring map that fixes q and turns [c + lambda] into the Laurent
polynomial [c + n.lambda], so it takes every scalar to one with k = 0.  A
marker-free scalar is its own image: it has k = 0, and its value at q = 1
(``eval_q1``) is the sum of its coefficients.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb

_W = 16
_H = 1 << (_W - 1)
_MASK = (1 << _W) - 1
LIMIT = _H - 1


# ---------------------------------------------------------------------------
# packed Laurent polynomials: dicts packed key -> nonzero coefficient
# ---------------------------------------------------------------------------

def _pack(qexp, weights):
    """The packed key of q^qexp prod Qi^e over the (i, e) pairs of
    ``weights``, and its largest |exponent|; a repeated marker's exponents
    add."""
    digits = {0: qexp}
    for i, e in weights:
        if i < 1:
            raise ValueError("weight markers are numbered from 1")
        digits[i] = digits.get(i, 0) + e
    return (sum(e << (_W * i) for i, e in digits.items()),
            _fit(max(map(abs, digits.values()))))


def _fit(bound):
    if bound > LIMIT:
        raise OverflowError("exponents up to %d leave the packed field "
                            "[-%d, %d]" % (bound, LIMIT, LIMIT))
    return bound


@lru_cache(maxsize=None)
def _unpack(key):
    """(qexp, sorted ((marker, exponent), ...)) of a packed key."""
    digits = []
    while key:
        d = ((key + _H) & _MASK) - _H
        digits.append(d)
        key = (key - d) >> _W
    return ((digits[0] if digits else 0),
            tuple((i, e) for i, e in enumerate(digits) if i and e))


def _exact_bound(n):
    """The largest |exponent| in the keys of n."""
    return max((max(abs(d) for d in (q, *(e for _, e in wk)))
                for q, wk in map(_unpack, n)), default=0)


def _flags(n):
    """Bit 1: num vanishes at q = 1, bit 2: at q = -1, in every marker
    group (a key less its q digit); a key's parity is its q exponent's."""
    at1, atm1 = {}, {}
    for key, c in n.items():
        g = (key + _H) >> _W
        at1[g] = at1.get(g, 0) + c
        atm1[g] = atm1.get(g, 0) + (-c if key & 1 else c)
    return (not any(at1.values())) | (not any(atm1.values())) << 1


def _div_qsq1(n):
    """num / (q^2 - 1) for a num vanishing at q = +-1 in every group: h[e]
    is the sum of num at e + 2, e + 4, ..., which is 0 between groups."""
    out = {}
    acc = [0, 0]
    last = [0, 0]
    for key in sorted(n, reverse=True):
        par = key & 1
        s = acc[par]
        if s:
            for x in range(key, last[par], 2):
                out[x] = s
        acc[par] = s + n[key]
        last[par] = key
    return out


def _lift(n, d):
    """num * (q^2 - 1)^d, zero coefficients included."""
    for _ in range(d):
        out = {key + 2: c for key, c in n.items()}
        get = out.get
        for key, c in n.items():
            out[key] = get(key, 0) - c
        n = out
    return n


def _nonzero(n):
    """n without its zero coefficients."""
    return {k: c for k, c in n.items() if c} if 0 in n.values() else n


def _rational(c):
    if isinstance(c, (float, bool)):
        raise TypeError("exact scalars take no float or bool: %r" % c)
    if not isinstance(c, int):
        c = Fraction(c)
        if c.denominator == 1:
            c = c.numerator
    return c


# ---------------------------------------------------------------------------
# ring elements
# ---------------------------------------------------------------------------

class RingElem:
    """An exact scalar num / (q^2 - 1)^k in canonical form; immutable.
    ``sum_of_products`` computes ``+`` and ``-``, and ``*`` unless a factor
    is 1.

    Read-only views: ``num`` maps (qexp, sorted marker tuple) to coefficients,
    ``den`` is (q^2 - 1)^k as a dict qexp -> coefficient, ``denom_pow`` is k.
    """

    __slots__ = ("_n", "_k", "_b")

    def __init__(self, n, k, b):
        self._n = n     # packed numerator
        self._k = k     # power of (q^2 - 1) in the denominator
        self._b = b     # bound on the largest |exponent| in any key

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_rational(c):
        c = _rational(c)
        return RingElem({0: c}, 0, 0) if c else ZERO

    @staticmethod
    def monomial(qexp=0, weights=(), coeff=1):
        """The single monomial coeff * q^qexp * prod Qi^e over the (i, e)
        pairs of ``weights``, marker indices i >= 1.  Order, zero exponents
        and repeated markers (whose exponents add) do not change it."""
        coeff = _rational(coeff)
        if not coeff:
            return ZERO
        key, bound = _pack(qexp, weights)
        return RingElem({key: coeff}, 0, bound)

    @property
    def num(self):
        return {_unpack(key): c for key, c in self._n.items()}

    @property
    def den(self):
        return {2 * j: comb(self._k, j) * (-1) ** (self._k - j)
                for j in range(self._k + 1)}

    @property
    def denom_pow(self):
        return self._k

    # -- predicates ---------------------------------------------------------

    def is_zero(self):
        return not self._n

    def is_one(self):
        return not self._k and self._n == _ONE_N

    def has_markers(self):
        return any((key + _H) >> _W for key in self._n)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        return sum_of_products(((self, None, False), (other, None, False)))

    def __sub__(self, other):
        return sum_of_products(((self, None, False), (other, None, True)))

    def __neg__(self):
        return RingElem({key: -c for key, c in self._n.items()},
                        self._k, self._b)

    def __mul__(self, other):
        # a unit factor skips the kernel: 2,753 of 14,070 products at (2,1)
        # prop3 degree 2, 3,201 of 5,113 at (2,1) classical degree 3;
        # elements are immutable, so the other factor is the product
        if other.is_one():
            return self
        if self.is_one():
            return other
        return sum_of_products(((self, other, False),))

    def __eq__(self, other):
        if not isinstance(other, RingElem):
            return NotImplemented
        return self._k == other._k and self._n == other._n

    def __hash__(self):
        return hash((self._k, frozenset(self._n.items())))

    # -- evaluation ---------------------------------------------------------

    def eval_q1(self):
        """The value at q = 1 of a marker-free scalar with k = 0: the sum of
        its coefficients.  Any other scalar raises ``ValueError``."""
        if self.has_markers():
            raise ValueError("weight markers present; bind weights first")
        if self._k:
            raise ValueError("a denominator (q^2 - 1)^%d; only a Laurent "
                             "polynomial is evaluated at q = 1" % self._k)
        return _rational(sum(self._n.values()))

    # -- rendering ----------------------------------------------------------

    def render(self):
        if not self._n:
            return "0"
        k = self._k
        # over (q-q^-1)^k: value = num/(q^2-1)^k = num*q^-k / (q-q^-1)^k
        num = {(qe - k, wk): c for (qe, wk), c in self.num.items()}
        body = _render_lp(num)
        if not k:
            return body
        suffix = "(q-q^-1)" if k == 1 else "(q-q^-1)^%d" % k
        if len(num) > 1:
            body = "(" + body + ")"
        return body + " / " + suffix

    def __repr__(self):
        return "RingElem(%s)" % self.render()


def sum_of_products(terms):
    """The sum of +-a*b over the (a, b, negate) triples of ``terms``, -a*b
    when ``negate``; ``b`` None stands for 1.

    Every product is added straight into one numerator per denominator
    power k.  Each lower power is then lifted once to the highest, zero
    coefficients are dropped, and (q^2 - 1) is cancelled once, from the
    whole sum.  A product's bound is the sum of its factors' bounds and a
    power lifted by d adds 2d; a bound past LIMIT is checked against the
    exact exponents before any key can wrap.
    """
    levels = {}     # k -> [numerator, bound]
    for a, b, neg in terms:
        n, k, bound = a._n, a._k, a._b
        if not n:
            continue
        if b is not None:
            nb = b._n
            if not nb:
                continue
            k += b._k
            bound += b._b
            if bound > LIMIT:
                bound = _fit(_exact_bound(n) + _exact_bound(nb))
        level = levels.get(k)
        if level is None:
            acc = {}
            levels[k] = [acc, bound]
        else:
            acc = level[0]
            if bound > level[1]:
                level[1] = bound
        get = acc.get
        if b is None:
            if neg:
                for key, c in n.items():
                    acc[key] = get(key, 0) - c
            else:
                for key, c in n.items():
                    acc[key] = get(key, 0) + c
            continue
        for ka, ca in n.items():
            if neg:
                ca = -ca
            for kb, cb in nb.items():
                key = ka + kb
                acc[key] = get(key, 0) + ca * cb
    if not levels:
        return ZERO
    top = max(levels)
    n, bound = levels.pop(top)
    get = n.get
    for k, (acc, b) in levels.items():
        d = top - k
        acc = _nonzero(acc)
        b += 2 * d
        if b > LIMIT:
            b = _fit(_exact_bound(acc) + 2 * d)
        if b > bound:
            bound = b
        for key, c in _lift(acc, d).items():
            n[key] = get(key, 0) + c
    if len(terms) == 1:
        (a, b, _), = terms
        if _unit_times_indivisible(a, b):
            return RingElem(n, top, bound)
    return _canonical(_nonzero(n), top, bound)


def _unit_times_indivisible(a, b):
    """Whether the product a*b (b None for 1) is canonical as it stands:
    one factor's numerator is a single term, a unit, and (q^2 - 1) does
    not divide the other's, which is canonical with k > 0 or a unit too.
    A unit times a numerator (q^2 - 1) does not divide is one it does not
    divide, and a unit factor cancels no coefficient."""
    if b is None:
        return False
    na, nb = len(a._n), len(b._n)
    return na == 1 and (nb == 1 or b._k) or nb == 1 and a._k


def _canonical(n, k, bound):
    """n / (q^2 - 1)^k in canonical form."""
    if not n:
        return ZERO
    while k and _flags(n) == 3:
        n = _div_qsq1(n)
        k -= 1
    return RingElem(n, k, bound)


def _render_lp(p):
    out = ""
    for qe, wk in sorted(p, key=lambda k: (-k[0],
                                           tuple((i, -e) for i, e in k[1]))):
        c = p[(qe, wk)]
        factors = " ".join((["q^{%d}" % qe] if qe else [])
                           + ["Q%d^{%d}" % ie for ie in wk])
        text = (str(c) if not factors else factors if c == 1
                else "-" + factors if c == -1 else "%s %s" % (c, factors))
        if not out:
            out = text
        elif text.startswith("-"):
            out += " - " + text[1:]
        else:
            out += " + " + text
    return out


_ONE_N = {0: 1}
ZERO = RingElem({}, 0, 0)
ONE = RingElem({0: 1}, 0, 0)
MINUS_ONE = RingElem({0: -1}, 0, 0)


# ---------------------------------------------------------------------------
# q-powers and q-numbers of affine forms  c0 + sum_i d_i * lambda_i
#
# ``lam`` is a tuple of (marker index i >= 1, multiple d_i) pairs, the form
# that ``LinForm.lam`` stores sorted and without zeros.  Order, zero
# multiples and repeated markers (whose multiples add) do not change the
# value, only the cache entry.
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def qpow(const, lam=()):
    """q^{const} * prod Qi^{d_i}, a single monomial."""
    return RingElem.monomial(const, lam)


@lru_cache(maxsize=None)
def qnum(const, lam=()):
    """[const + sum d_i lambda_i], the symmetric q-number of an affine form."""
    key, bound = _pack(const, lam)
    if not (key + _H) >> _W:
        # marker-free [n] = q^{n-1} + q^{n-3} + ... + q^{1-n}, odd in n
        if key <= 0:
            return -qnum(-key) if key else ZERO
        return RingElem({key - 1 - 2 * j: 1 for j in range(key)}, 0, key - 1)
    # (q^c Q - q^-c Q^-1)/(q - q^-1) = (q^{c+1} Q - q^{1-c} Q^-1)/(q^2 - 1)
    return _canonical({key + 1: 1, 1 - key: -1}, 1, _fit(bound + 1))


@lru_cache(maxsize=None)
def lin(const, lam=()):
    """const + sum d_i Qi: an affine form's value with its markers read
    classically, as the weights themselves."""
    return sum((RingElem.monomial(0, ((i, 1),), d) for i, d in lam),
               RingElem.from_rational(const))
