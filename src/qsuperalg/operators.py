"""Operator calculus: ordered products of elementary operators and their
exact action on super-polynomials.

An operator expression is a finite sum of terms; each term is an overall
scalar coefficient together with an ordered tuple of elementary operators,
applied right-to-left.  Elementary operators:

  ('x', pos)      multiplication by the coordinate at pos (Koszul sign)
  ('D', pos)      q-difference on an even coordinate / Grassmann derivative
  ('d', pos)      classical derivative (x^n -> n x^(n-1); same on thetas)
  ('qpow', lf)    multiplication by q^{lf} evaluated on the exponent vector
  ('qnum', lf)    multiplication by the q-number [lf]
  ('lin', lf)     classical multiplication by the value of the linear form

No normal ordering is ever performed: expressions stay in the order they
were written, and equality of operators is extensional (action on a
degree-bounded monomial basis).
"""

from __future__ import annotations

from .scalars import RingElem, ONE, MINUS_ONE, qpow, qnum, _qnum_int
from . import superpoly as sp


class ContextMismatch(Exception):
    """Operator and operand built over different (M, N) charts."""


class MixedParity(Exception):
    """Expression whose terms do not share a single Z2 parity."""


class LinForm:
    """Integer linear form in the number operators M(l,m), the weights and 1.

    ``coeffs`` maps coordinate positions to integers, ``const`` is the
    integer part, ``lam`` maps weight indices to integer multiples of the
    corresponding weight.
    """

    __slots__ = ("coeffs", "const", "lam")

    def __init__(self, coeffs=None, const=0, lam=None):
        self.coeffs = {p: c for p, c in (coeffs or {}).items() if c}
        self.const = const
        self.lam = {i: c for i, c in (lam or {}).items() if c}

    def __add__(self, other):
        co = dict(self.coeffs)
        for p, c in other.coeffs.items():
            co[p] = co.get(p, 0) + c
        la = dict(self.lam)
        for i, c in other.lam.items():
            la[i] = la.get(i, 0) + c
        return LinForm(co, self.const + other.const, la)

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, k):
        return LinForm({p: k * c for p, c in self.coeffs.items()},
                       k * self.const, {i: k * c for i, c in self.lam.items()})

    def shift(self, n):
        return LinForm(self.coeffs, self.const + n, self.lam)

    def is_zero(self):
        return not self.coeffs and not self.const and not self.lam

    def eval_const(self, mono):
        """Integer part of the form on a monomial's exponent vector."""
        v = self.const
        if self.coeffs:
            for p, e in mono:
                c = self.coeffs.get(p)
                if c:
                    v += c * e
        return v

    def __eq__(self, other):
        return (isinstance(other, LinForm)
                and self.coeffs == other.coeffs
                and self.const == other.const
                and self.lam == other.lam)

    def render(self, cs):
        parts = []
        for p in sorted(self.coeffs):
            c = self.coeffs[p]
            l, m = cs.coords[p]
            parts.append((c, "M(%d,%d)" % (l, m)))
        for i in sorted(self.lam):
            parts.append((self.lam[i], "L(%d)" % i))
        if self.const:
            parts.append((self.const, None))
        if not parts:
            return "0"
        out = []
        for c, sym in parts:
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if sym is None:
                body = str(mag)
            elif mag == 1:
                body = sym
            else:
                body = "%d%s" % (mag, sym)
            out.append(sign + body)
        text = "".join(out)
        return text[1:] if text.startswith("+") else text


class Operator:
    """Common interface: sums, products and scalings of operator atoms.

    Products and sums are kept as trees rather than expanded into a flat
    list of terms; a monomial is threaded through the factors one at a
    time, which keeps intermediate results small even for deeply nested
    commutators.
    """

    __slots__ = ("cs",)

    def _check(self, other):
        if self.cs != other.cs:
            raise ContextMismatch("operators over different charts")

    def __add__(self, other):
        self._check(other)
        return SumOp(self.cs, (self, other))

    def __sub__(self, other):
        return self + other.scale(MINUS_ONE)

    def compose(self, other):
        """Operator product self . other (other acts first)."""
        self._check(other)
        return ProductOp(self.cs, (self, other))

    def __matmul__(self, other):
        return self.compose(other)

    def power(self, n):
        if n == 0:
            return OpExpr.identity(self.cs)
        out = self
        for _ in range(n - 1):
            out = out.compose(self)
        return out

    def apply(self, poly):
        """Exact action on a super-polynomial (dict monomial -> scalar)."""
        out = {}
        for mono, coeff in poly.items():
            for m, c in self.apply_monomial(mono, coeff).items():
                sp.poly_add_term(out, m, c)
        return out


class SumOp(Operator):
    """Sum of operators, applied part by part."""

    __slots__ = ("parts",)

    def __init__(self, cs, parts):
        self.cs = cs
        flat = []
        for p in parts:
            if isinstance(p, SumOp):
                flat.extend(p.parts)
            else:
                flat.append(p)
        self.parts = tuple(flat)

    def scale(self, c):
        return SumOp(self.cs, tuple(p.scale(c) for p in self.parts))

    def parity(self):
        par = None
        for p in self.parts:
            q = p.parity()
            if par is None:
                par = q
            elif par != q:
                raise MixedParity("summands of mixed parity")
        return 0 if par is None else par

    def apply_monomial(self, mono, coeff=ONE):
        out = {}
        for p in self.parts:
            for m, c in p.apply_monomial(mono, coeff).items():
                sp.poly_add_term(out, m, c)
        return out

    def __repr__(self):
        return "SumOp(%d parts)" % len(self.parts)


class ProductOp(Operator):
    """Composition of operators; the rightmost factor acts first."""

    __slots__ = ("factors", "coeff")

    def __init__(self, cs, factors, coeff=ONE):
        self.cs = cs
        flat = []
        for f in factors:
            if isinstance(f, ProductOp) and f.coeff.is_one():
                flat.extend(f.factors)
            else:
                flat.append(f)
        self.factors = tuple(flat)
        self.coeff = coeff

    def scale(self, c):
        return ProductOp(self.cs, self.factors, self.coeff * c)

    def parity(self):
        return sum(f.parity() for f in self.factors) & 1

    def apply_monomial(self, mono, coeff=ONE):
        poly = {mono: coeff * self.coeff}
        for f in reversed(self.factors):
            nxt = {}
            for m, c in poly.items():
                for m2, c2 in f.apply_monomial(m, c).items():
                    sp.poly_add_term(nxt, m2, c2)
            if not nxt:
                return {}
            poly = nxt
        return poly

    def __repr__(self):
        return "ProductOp(%d factors)" % len(self.factors)


class OpExpr(Operator):
    """A finite sum of ordered elementary-operator products."""

    __slots__ = ("terms",)

    def __init__(self, cs, terms):
        self.cs = cs
        self.terms = tuple((c, ops) for c, ops in terms if not c.is_zero())

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(cs):
        return OpExpr(cs, ())

    @staticmethod
    def identity(cs):
        return OpExpr(cs, ((ONE, ()),))

    @staticmethod
    def term(cs, ops, coeff=ONE):
        return OpExpr(cs, ((coeff, tuple(ops)),))

    # -- algebra ------------------------------------------------------------

    def __add__(self, other):
        self._check(other)
        if isinstance(other, OpExpr):
            return OpExpr(self.cs, self.terms + other.terms)
        return SumOp(self.cs, (self, other))

    def scale(self, c):
        return OpExpr(self.cs, tuple((c * tc, ops) for tc, ops in self.terms))

    # -- parity -------------------------------------------------------------

    def parity(self):
        """Common Z2 parity of all terms (0 for the empty expression)."""
        par = None
        for _, ops in self.terms:
            p = sum(1 for op in ops
                    if op[0] in ("x", "D", "d") and self.cs.odd[op[1]]) & 1
            if par is None:
                par = p
            elif par != p:
                raise MixedParity("terms of mixed parity in one expression")
        return 0 if par is None else par

    # -- action -------------------------------------------------------------

    def apply_monomial(self, mono, coeff=ONE):
        """Act on a single monomial with a scalar coefficient."""
        cs = self.cs
        out = {}
        for tc, ops in self.terms:
            m = mono
            c = coeff
            for op in reversed(ops):
                kind = op[0]
                if kind == "x":
                    r = sp.mul_coord(cs, op[1], m)
                    if r is None:
                        m = None
                        break
                    sign, m = r
                    if sign < 0:
                        c = -c
                elif kind == "D":
                    pos = op[1]
                    if cs.odd[pos]:
                        r = sp.grassmann_remove(cs, pos, m)
                        if r is None:
                            m = None
                            break
                        sign, m = r
                        if sign < 0:
                            c = -c
                    else:
                        n = sp.mono_exp(m, pos)
                        if n == 0:
                            m = None
                            break
                        c = c * _qnum_int(n)
                        m = sp.mono_dec(m, pos)
                elif kind == "d":
                    pos = op[1]
                    if cs.odd[pos]:
                        r = sp.grassmann_remove(cs, pos, m)
                        if r is None:
                            m = None
                            break
                        sign, m = r
                        if sign < 0:
                            c = -c
                    else:
                        n = sp.mono_exp(m, pos)
                        if n == 0:
                            m = None
                            break
                        c = c * RingElem.from_rational(n)
                        m = sp.mono_dec(m, pos)
                elif kind == "qpow":
                    lf = op[1]
                    c = c * qpow(lf.eval_const(m), lf.lam)
                elif kind == "qnum":
                    lf = op[1]
                    s = qnum(lf.eval_const(m), lf.lam)
                    if s.is_zero():
                        m = None
                        break
                    c = c * s
                else:  # 'lin': value is linear in the weight symbols
                    lf = op[1]
                    num = {}
                    v = lf.eval_const(m)
                    if v:
                        num[(0, ())] = v
                    for i, ci in lf.lam.items():
                        num[(0, ((i, 1),))] = ci
                    if not num:
                        m = None
                        break
                    c = c * RingElem(num, None, _reduced=True)
            if m is None:
                continue
            sp.poly_add_term(out, m, c * tc)
        return out

    # -- rendering ----------------------------------------------------------

    def render(self):
        if not self.terms:
            return "0"
        cs = self.cs
        parts = []
        for c, ops in self.terms:
            factors = []
            for op in ops:
                kind = op[0]
                if kind in ("x", "D", "d"):
                    l, m = cs.coords[op[1]]
                    factors.append("%s(%d,%d)" % (kind, l, m))
                elif kind == "qpow":
                    factors.append("q^{%s}" % op[1].render(cs))
                elif kind == "qnum":
                    factors.append("[%s]" % op[1].render(cs))
                else:
                    factors.append("{%s}" % op[1].render(cs))
            body = " ".join(factors)
            if not factors:
                parts.append(c.render())
            elif c.is_one():
                parts.append(body)
            else:
                ctext = c.render()
                if " " in ctext:
                    ctext = "(" + ctext + ")"
                parts.append(ctext + " * " + body)
        return " + ".join(parts)

    def __repr__(self):
        return "OpExpr(%s)" % self.render()


def graded_commutator(a, b, xi=None):
    """[a, b]_xi = a b - (-1)^{|a||b|} xi b a; xi defaults to 1."""
    sign = -1 if (a.parity() and b.parity()) else 1
    factor = MINUS_ONE if sign > 0 else ONE
    if xi is not None:
        factor = factor * xi
    return a.compose(b) + b.compose(a).scale(factor)


# ---------------------------------------------------------------------------
# degree-bounded monomial bases and extensional equality
# ---------------------------------------------------------------------------

def basis_monomials(cs, degree):
    """All monomials of total degree <= degree, graded then row-major lex."""
    for total in range(degree + 1):
        yield from _monos_of_degree(cs, 0, total, ())


def _monos_of_degree(cs, pos, remaining, acc):
    if remaining == 0:
        yield acc
        return
    if pos >= cs.ncoords:
        return
    top = 1 if cs.odd[pos] else remaining
    for e in range(min(top, remaining) + 1):
        tail = acc + ((pos, e),) if e else acc
        yield from _monos_of_degree(cs, pos + 1, remaining - e, tail)


def op_eq_on_basis(a, b, degree):
    """Extensional equality on all monomials of degree <= degree.

    Returns (True, None) or (False, (monomial, residual polynomial)),
    the witness being the first failing monomial in canonical order.
    """
    if a.cs != b.cs:
        raise ContextMismatch("operators over different charts")
    for mono in basis_monomials(a.cs, degree):
        pa = a.apply_monomial(mono)
        pb = b.apply_monomial(mono)
        diff = sp.poly_sub(pa, pb)
        if diff:
            return False, (mono, diff)
    return True, None


def op_is_zero_on_basis(a, degree):
    for mono in basis_monomials(a.cs, degree):
        img = a.apply_monomial(mono)
        if img:
            return False, (mono, img)
    return True, None
