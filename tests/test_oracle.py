"""An independent evaluator of operators, used as the engine's oracle.

The evaluator reads only an operator's ``terms``, the data of its linear
forms (``coeffs``, ``const``, ``lam``) and the chart's ``cs.odd``. It
evaluates at a fixed rational point (q, Q_1, Q_2, ...), with exponent-tuple
monomials and ``Fraction`` scalars, and has no memo, no support mask and no
packing. A term coefficient, like every image coefficient of the engine, is
read through ``num`` and ``denom_pow`` alone.

The Koszul convention it pins: a monomial is the ordered product of its
coordinates in increasing position (row-major (l, m)). x(l,m) multiplies
from the left. D(l,m) and d(l,m) on an odd coordinate differentiate from
the left. So an odd coordinate is brought to the front of the monomial or
taken from it, past every odd coordinate before it in the monomial, each
giving a factor -1; even coordinates commute with everything. Reversing
this convention in both ``superpoly``'s ``sign_mask`` and its
``passed_odd`` still passes the relation suites, so only an
evaluator that owns the convention can catch that; this test fails on it
at every rank it runs.

Agreement at a point is a necessary check only: the verifier's exactness
does not rest on it. The points avoid q^2 = 1, where the denominators
vanish, and any zero marker.
"""

import itertools
from fractions import Fraction
from math import prod

import pytest

from qsuperalg.algebra import build_generators, build_root_data
from qsuperalg.operators import OpExpr
from qsuperalg.superpoly import mono_pack, mono_pairs

# (q, (Q_1, Q_2, Q_3, Q_4)); a rank with K weights reads the first K
_POINTS = ((Fraction(2), (Fraction(3), Fraction(5), Fraction(7),
                          Fraction(11))),
           (Fraction(-1, 3), (Fraction(1, 2), Fraction(-4, 3), Fraction(5),
                              Fraction(2, 7))))


def _scalar(c, q, Q):
    """A ``RingElem`` at the point, from ``num`` and ``denom_pow``."""
    total = sum(v * q ** qe * prod(Q[i - 1] ** e for i, e in wk)
                for (qe, wk), v in c.num.items())
    return total / (q * q - 1) ** c.denom_pow


def _elementary(cs, op, mono, q, Q):
    """(factor, monomial) of one elementary operator on a monomial, or
    None when it annihilates the monomial."""
    kind, arg = op
    if kind in ("x", "D", "d"):
        n = mono[arg]
        passed = sum(mono[p] for p in range(arg) if cs.odd[p])
        sign = -1 if cs.odd[arg] and passed % 2 else 1
        if kind == "x":
            if cs.odd[arg] and n:
                return None                 # th^2 = 0
            factor, n = 1, n + 1
        else:
            if not n:
                return None
            factor = n if kind == "d" else (q ** n - q ** -n) / (q - 1 / q)
            n -= 1
        return sign * factor, mono[:arg] + (n,) + mono[arg + 1:]
    v = arg.const + sum(c * mono[p] for p, c in arg.coeffs.items())
    if kind == "lin":
        return v + sum(c * Q[i - 1] for i, c in arg.lam), mono
    power = q ** v * prod(Q[i - 1] ** c for i, c in arg.lam)
    if kind == "qpow":
        return power, mono
    return (power - 1 / power) / (q - 1 / q), mono    # qnum


def _apply(op, poly, q, Q):
    """op applied to poly ({exponent tuple: Fraction}), factor by factor,
    right to left."""
    out = {}
    for coeff, factors in op.terms:
        c0 = _scalar(coeff, q, Q)
        cur = poly if c0 == 1 else {m: c * c0 for m, c in poly.items()}
        for f in reversed(factors):
            if isinstance(f, OpExpr):
                cur = _apply(f, cur, q, Q)
                continue
            nxt = {}
            for m, c in cur.items():
                r = _elementary(op.cs, f, m, q, Q)
                if r is not None:
                    nxt[r[1]] = nxt.get(r[1], 0) + c * r[0]
            cur = nxt
        for m, c in cur.items():
            out[m] = out.get(m, 0) + c
    return {m: c for m, c in out.items() if c}


def _basis(odd, degree):
    """Every exponent tuple of total degree <= degree, odd entries <= 1."""
    ranges = [range(2 if o else degree + 1) for o in odd]
    return [m for m in itertools.product(*ranges) if sum(m) <= degree]


@pytest.mark.parametrize("MN, variant", [
    ((1, 1), "prop2"), ((1, 1), "prop3"), ((1, 1), "classical"),
    ((2, 1), "classical")], ids=str)
def test_engine_images_agree_with_the_oracle(MN, variant):
    gens = build_generators(build_root_data(*MN), None, variant)
    cs = gens.cs
    nodes = [*gens.t.values(), *gens.e.values(), *gens.f.values(),
             *(x for (l, m), x in gens.roots.items() if l < m)]
    for mono in _basis(cs.odd, 2):
        for op in nodes:
            img = op.apply_monomial(mono_pack(enumerate(mono)))
            for q, Q in _POINTS:
                got = {}
                for m, c in img.items():
                    exps = [0] * len(cs.odd)
                    for p, e in mono_pairs(m):
                        exps[p] = e
                    got[tuple(exps)] = _scalar(c, q, Q)
                want = _apply(op, {mono: Fraction(1)}, q, Q)
                assert {m: c for m, c in got.items() if c} == want, \
                    (variant, op.render(), mono, q)
