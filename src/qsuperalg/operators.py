"""The operator calculus: sums of ordered operator products and their exact
action on super-polynomials.

``OpExpr`` is the only operator type.  It is a finite sum of terms; each
term is a scalar coefficient together with an ordered tuple of factors,
applied right-to-left.  A factor is a nested ``OpExpr`` or one of the
elementary operators:

  ('x', pos)      multiplication by the coordinate at pos (Koszul sign)
  ('D', pos)      q-difference on an even coordinate / Grassmann derivative
  ('d', pos)      classical derivative (x^n -> n x^(n-1); same on thetas)
  ('qpow', lf)    multiplication by q^{lf} evaluated on the exponent vector
  ('qnum', lf)    multiplication by the q-number [lf]
  ('lin', lf)     classical multiplication by the value of the linear form

No normal ordering is ever performed: expressions stay in the order they
were written, and equality of operators is extensional (action on a
degree-bounded monomial basis).

The same nested node (a root vector, its powers, a generator inside every
bracket) is reached many times with the same monomial, within one
operator and across every instance of a relation suite.  Evaluation
therefore keeps a memo of each nested factor's image of a monomial with
coefficient 1, keyed by (node, monomial), and scales that image by the
incoming coefficient on every later visit.  The memo lives for one
basis-monomial probe: ``first_failure``, the one probe loop, takes the
basis monomial as its outer loop, opens a fresh memo for each monomial,
shares it between both sides of every pair still being checked, and drops
it once that monomial is done, so no image outlives its probe.  The
witness is the one checking the pairs one by one would give; the cost is
on the failure path, where the pairs after the failing one have already
been probed on every monomial up to the failure.  ``apply`` opens one memo
per input monomial.
"""

from __future__ import annotations

from .scalars import ONE, MINUS_ONE, qpow, qnum, lin
from . import superpoly as sp


class ContextMismatch(Exception):
    """An operator and its operand built over different (M, N) charts."""


class MixedParity(Exception):
    """Expression whose terms do not share a single Z2 parity."""


class LinForm:
    """Integer linear form in the number operators M(l,m), the weights and 1.

    ``coeffs`` maps coordinate positions to integers, ``const`` is the
    integer part.  ``lam`` holds the integer multiple of each weight as
    sorted (weight index, multiple) pairs without zeros, the marker pairs
    ``qpow``, ``qnum`` and ``lin`` take; it is given as a mapping or as
    pairs, whose repeated indices add.
    """

    __slots__ = ("coeffs", "const", "lam")

    def __init__(self, coeffs=None, const=0, lam=()):
        self.coeffs = {p: c for p, c in (coeffs or {}).items() if c}
        self.const = const
        la = {}
        for i, c in (lam.items() if isinstance(lam, dict) else lam):
            la[i] = la.get(i, 0) + c
        self.lam = tuple(sorted((i, c) for i, c in la.items() if c))

    def __add__(self, other):
        co = dict(self.coeffs)
        for p, c in other.coeffs.items():
            co[p] = co.get(p, 0) + c
        return LinForm(co, self.const + other.const, self.lam + other.lam)

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, k):
        return LinForm({p: k * c for p, c in self.coeffs.items()},
                       k * self.const, tuple((i, k * c) for i, c in self.lam))

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
        for i, c in self.lam:
            parts.append((c, "L(%d)" % i))
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


class OpExpr:
    """A finite sum of ordered operator products: the one operator type.

    ``terms`` is a tuple of ``(coeff, factors)``.  Each factor is an
    elementary operator tuple or a nested ``OpExpr``; the factors act right
    to left.  Nested factors are never expanded: a monomial is threaded
    through them one at a time, which keeps intermediate results small even
    for deeply nested commutators.
    """

    __slots__ = ("cs", "terms", "_plan")

    def __init__(self, cs, terms):
        self.cs = cs
        self.terms = tuple((c, ops) for c, ops in terms if not c.is_zero())
        self._plan = tuple((c, _steps(ops)) for c, ops in self.terms)

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

    def _check(self, other):
        if self.cs != other.cs:
            raise ContextMismatch("operators over different charts")

    def __add__(self, other):
        self._check(other)
        return OpExpr(self.cs, self.terms + other.terms)

    def __sub__(self, other):
        return self + other.scale(MINUS_ONE)

    def scale(self, c):
        return OpExpr(self.cs, tuple((c * tc, ops) for tc, ops in self.terms))

    def compose(self, other):
        """The operator product self . other (other acts first).

        An operand that is a single term with coefficient 1 contributes its
        factors; any other operand becomes one nested factor.
        """
        self._check(other)
        factors = []
        for op in (self, other):
            if len(op.terms) == 1 and op.terms[0][0].is_one():
                factors.extend(op.terms[0][1])
            else:
                factors.append(op)
        return OpExpr(self.cs, ((ONE, tuple(factors)),))

    def __matmul__(self, other):
        return self.compose(other)

    def power(self, n):
        if n < 0:
            raise ValueError("negative powers not supported")
        if n == 0:
            return OpExpr.identity(self.cs)
        out = self
        for _ in range(n - 1):
            out = out.compose(self)
        return out

    # -- parity -------------------------------------------------------------

    def parity(self):
        """Common Z2 parity of all terms (0 for the empty expression)."""
        par = None
        for _, ops in self.terms:
            p = 0
            for op in ops:
                if isinstance(op, OpExpr):
                    p += op.parity()
                elif op[0] in ("x", "D", "d") and self.cs.odd[op[1]]:
                    p += 1
            p &= 1
            if par is None:
                par = p
            elif par != p:
                raise MixedParity("terms of mixed parity in one expression")
        return 0 if par is None else par

    # -- action -------------------------------------------------------------

    def apply(self, poly):
        """Exact action on a super-polynomial (dict monomial -> scalar).

        Each input monomial is its own probe, with its own image memo.
        """
        out = {}
        for mono, coeff in poly.items():
            for m, c in self.apply_monomial(mono, coeff).items():
                sp.poly_add_term(out, m, c)
        return out

    def apply_monomial(self, mono, coeff=ONE, _memo=None):
        """Act on a single monomial with a scalar coefficient.

        A nested factor's image of a monomial is computed once per probe
        with coefficient 1 and kept in ``_memo`` under (node, monomial);
        every visit multiplies that image by the coefficient it carries.
        ``_memo`` is private: a caller that probes one monomial with
        several operators passes one dict to all of them, anything else
        leaves it out and gets a fresh one.  Only nested factors' images
        are kept, so the caller owns the returned dict.
        """
        if _memo is None:
            _memo = {}
        cs = self.cs
        out = {}
        for tc, steps in self._plan:
            if len(steps) == 1 and type(steps[0]) is tuple:
                # a chain of elementary operators: the term coefficient is
                # multiplied in only if the monomial survives the chain
                r = _run(cs, steps[0], mono, coeff)
                if r is not None:
                    sp.poly_add_term(out, r[0], r[1] * tc)
                continue
            poly = {mono: coeff * tc}
            for step in steps:
                nxt = {}
                if type(step) is tuple:
                    # elementary operators send distinct monomials to
                    # distinct monomials, so the images never collide
                    for m, c in poly.items():
                        r = _run(cs, step, m, c)
                        if r is not None:
                            nxt[r[0]] = r[1]
                else:
                    for m, c in poly.items():
                        img = _memo.get((step, m))
                        if img is None:
                            img = _memo[step, m] = step.apply_monomial(
                                m, ONE, _memo)
                        for m2, c2 in img.items():
                            sp.poly_add_term(nxt, m2, c2 * c)
                if not nxt:
                    break
                poly = nxt
            else:
                for m, c in poly.items():
                    sp.poly_add_term(out, m, c)
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
                if isinstance(op, OpExpr):
                    factors.append("(" + op.render() + ")")
                    continue
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


def _steps(ops):
    """The factors of one term in acting order, each run of consecutive
    elementary operators grouped into one tuple; a term with no nested
    factor is a single (possibly empty) run."""
    steps = []
    for op in reversed(ops):
        if isinstance(op, OpExpr):
            steps.append(op)
        elif steps and type(steps[-1]) is list:
            steps[-1].append(op)
        else:
            steps.append([op])
    return tuple(s if isinstance(s, OpExpr) else tuple(s)
                 for s in steps) or ((),)


# the exponent step of each coordinate operator
_SHIFT = {"x": 1, "D": -1, "d": -1}

# the scalar each elementary operator multiplies in: a derivative's factor
# on the old exponent n, or the value of a factor's linear form
_FACTOR = {"D": qnum, "d": lin, "qpow": qpow, "qnum": qnum, "lin": lin}


def _run(cs, ops, m, c):
    """Thread (monomial, coefficient) through elementary ops in acting order.

    Each elementary operator maps a monomial to at most one monomial;
    returns the image pair, or None once the monomial is annihilated.  A
    derivative's factor [n] or n is multiplied in only for n > 1, since
    both are 1 at n = 1, the only old exponent an odd coordinate has.
    """
    for op in ops:
        kind = op[0]
        d = _SHIFT.get(kind)
        if d is not None:
            r = sp.shift_coord(cs, op[1], m, d)
            if r is None:
                return None
            sign, n, m = r
            if sign < 0:
                c = -c
            if d < 0 and n > 1:
                c = c * _FACTOR[kind](n)
        else:  # a linear form's q-power, q-number or classical value
            lf = op[1]
            s = _FACTOR[kind](lf.eval_const(m), lf.lam)
            if s.is_zero():
                return None
            c = c * s
    return m, c


def graded_commutator(a, b, xi=None):
    """[a, b]_xi = a b - (-1)^{|a||b|} xi b a; xi defaults to 1."""
    factor = ONE if (a.parity() and b.parity()) else MINUS_ONE
    if xi is not None:
        factor = factor * xi
    return a.compose(b) + b.compose(a).scale(factor)


# ---------------------------------------------------------------------------
# degree-bounded monomial bases and extensional equality
# ---------------------------------------------------------------------------

def basis_monomials(cs, degree):
    """All monomials of total degree <= degree, graded then row-major lex."""
    if degree < 0:
        raise ValueError("degree must be non-negative")
    return (mono for total in range(degree + 1)
            for mono in _monos_of_degree(cs, 0, total, ()))


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


def first_failure(pairs, degree):
    """The first failing (lhs, rhs) pair on the monomials of degree <= degree.

    Returns None when every pair agrees on every basis monomial, else
    (k, monomial, residual): k indexes the first failing pair, the
    monomial is its first failing one in canonical order and the residual
    is lhs - rhs there.  This is the witness checking the pairs one after
    another gives, but the basis monomial is the outer loop: each monomial
    is one probe with one memo, shared by every pair still being checked
    and dropped with the probe.  A failure of pair k stops the checks of
    pairs >= k; pairs before k go on to later monomials, where a failure
    replaces the witness, so pairs after the first failing one have been
    probed on every monomial up to its failure.
    """
    if not pairs:
        return None
    cs = pairs[0][0].cs
    for a, b in pairs:
        pairs[0][0]._check(a)
        a._check(b)
    live, found = len(pairs), None
    for mono in basis_monomials(cs, degree):
        memo = {}
        for k in range(live):
            a, b = pairs[k]
            diff = sp.poly_sub(a.apply_monomial(mono, ONE, memo),
                               b.apply_monomial(mono, ONE, memo))
            if diff:
                live, found = k, (k, mono, diff)
                break
        if not live:
            break
    return found


def op_eq_on_basis(a, b, degree):
    """Extensional equality on all monomials of degree <= degree.

    Returns (True, None) or (False, (monomial, residual polynomial)),
    the witness being the first failing monomial in canonical order.
    """
    found = first_failure(((a, b),), degree)
    return (True, None) if found is None else (False, found[1:])
