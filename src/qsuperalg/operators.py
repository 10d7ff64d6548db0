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

The same nested node (a root vector, a generator inside every bracket) is
reached many times, within one operator, across every instance of a
relation suite, across the basis monomials and across the suites.  A power
X^n built with ``@`` is no node of its own: ``compose`` flattens it to one
term whose n factors are each the node X (a root vector is a sum of terms,
so it stays one nested factor).  Evaluation therefore keeps a memo of each
nested factor's image with coefficient 1 and scales that image by the
incoming coefficient on every visit.  The memo belongs to the node: a
nested node keeps its images for as long as it lives.  An image is keyed by
a part of a monomial, not by the degree bound, so it is exact wherever the
node is reached.

A node's image depends only on the part of the monomial in its support,
so the memo is keyed by that part.  Each node carries a support mask,
computed once when it is built: the fields of every coordinate it steps
(x, D, d) or whose exponent one of its linear forms reads, its nested
factors' included.  The image of r = m & mask is kept under (node, r),
and the image of m is rebuilt from it with u = m - r: each term (m2, c)
of it becomes (m2 + u, +-c), and the sign is -1 exactly when
P(u) & (m2 ^ r) has an odd bit count, P(u) (``_passed_odd``) having the
low bit of each odd field p set when an odd number of u's odd coordinates
lie before p.  This is exact:

  * a range check, a derivative's factor and a form's value read only
    support fields, which u leaves alone, so the same paths survive with
    the same scalars;
  * a step at an odd position p passes every odd coordinate before p:
    along a path from m these are the current support part's and u's, so
    u adds the factor -1 to each such step exactly when P(u) has p's bit;
  * along any path the number of steps at an odd p has the parity of p's
    exponent change, which is bit p of m2 ^ r.

Nothing in this argument needs the mask to be the node's own: any mask
that contains the node's support serves.  So the same rule decides a pair
(a, b) on most monomials without probing it.  Let J be the union of the
two sides' masks, m a basis monomial, r = m & J and u = m - r:

  * each side's image at m is T_u of its image at r, where T_u maps each
    term (m2, c) to (m2 + u, +-c) and the sign depends only on
    P(u) & (m2 ^ r); T_u is one injective map for both sides, so the pair
    agrees at m if and only if it agrees at r;
  * when r != m, r is a basis monomial of lower degree, so it comes
    before m in the graded basis order and the pair's own check reached
    it first;
  * so ``first_failure`` probes a pair only on the monomials inside its
    joint support, m & J == m, and a pair's first failure, the witness,
    always lies among them.

A pair whose two sides have equal ``terms`` is not probed at all: equal
coefficients and the same factors in the same order make the two sides
one operator, which agrees with itself on every monomial.  Classically
AuxC18 compares the bracket [f_i, X(j,i-1)] with the table's X(j,i), the
node built as that same bracket.

A node's memo is an (images, pool) pair, made on the node's first nested
visit: ``images`` maps r to the image as a flat (m, c, m, c, ...) tuple,
and every monomial and coefficient stored is taken from ``pool``, so a
value many of the node's images hold is kept once.

A monomial is the packed int of ``superpoly``, and each elementary
operator is compiled once, when its term is built, to the exponent step,
position or form, and scalar constructor it needs.  Every term runs
through one loop: it starts as its monomial carrying the term's
coefficient and threads that through its factors in acting order.  A
step does no scalar addition while it runs.  Each image monomial it
reaches collects its contributions as (a, b, negate), the product +-a*b
with b None for 1, and the step ends with one reduction: a lone
contribution is its product, and two or more are summed in one pass by
``scalars.sum_of_products``, which lifts and cancels (q^2 - 1) once per
coefficient rather than once per addition.  A coefficient that cancels
drops its monomial, and a step left empty ends the term.  The last
factor's contributions, from every term, are collected in the result
and reduced once at the end.  A product with 1 is its other factor, so
a unit coefficient costs no arithmetic, and a memoised image scaled by
+1 or -1 contributes its stored coefficient with b None.
"""

from __future__ import annotations

from .scalars import ONE, MINUS_ONE, qpow, qnum, lin, sum_of_products
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
    ``qpow``, ``qnum`` and ``lin`` take; it is given as pairs, whose
    repeated indices add.
    """

    __slots__ = ("coeffs", "const", "lam", "_fields")

    def __init__(self, coeffs=None, const=0, lam=()):
        self.coeffs = {p: c for p, c in (coeffs or {}).items() if c}
        # (bit offset of the exponent field, coefficient) per coordinate
        self._fields = tuple((sp.FIELD_BITS * p, c)
                             for p, c in self.coeffs.items())
        self.const = const
        la = {}
        for i, c in lam:
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
        for shift, c in self._fields:
            v += c * (mono >> shift & sp.FIELD_TOP)
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

    __slots__ = ("cs", "terms", "_plan", "_mask", "_memo")

    def __init__(self, cs, terms):
        self.cs = cs
        self.terms = tuple((c, ops) for c, ops in terms if not c.is_zero())
        self._plan = tuple((c, _steps(ops)) for c, ops in self.terms)
        self._mask = _support(self.terms)
        self._memo = None   # (images, pool), once the node is nested

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(cs):
        return OpExpr(cs, ())

    @staticmethod
    def identity(cs):
        return OpExpr(cs, ((ONE, ()),))

    @staticmethod
    def term(cs, ops):
        return OpExpr(cs, ((ONE, tuple(ops)),))

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

    def apply_monomial(self, mono):
        """Act on a single monomial with coefficient 1.

        Every term threads the monomial, carrying the term's coefficient,
        through its steps in acting order, and each step sums every image
        coefficient in one pass (see the module docstring).  A nested
        factor's image is computed once and kept in the factor's memo under
        the monomial's part in its support; every visit rebuilds the image
        of its own monomial from it and scales that by the coefficient it
        carries.  The caller owns the returned dict.
        """
        cs = self.cs
        out = {}
        for tc, steps in self._plan:
            poly = {mono: tc}
            last = len(steps) - 1
            for k, step in enumerate(steps):
                # the last step's contributions go straight into out
                nxt = out if k == last else {}
                if type(step) is tuple:
                    for m, c in poly.items():
                        r = _run(cs, step, m, c)
                        if r is not None:
                            m, c, neg = r
                            nxt.setdefault(m, []).append((c, None, neg))
                else:
                    if step._memo is None:
                        step._memo = ({}, {})
                    seen, pool = step._memo
                    mask = step._mask
                    odd = mask & cs.odd_low
                    for m, c in poly.items():
                        r = m & mask
                        img = seen.get(r)
                        if img is None:
                            img = seen[r] = _stored(
                                step.apply_monomial(r), pool)
                        # the image of m is that of r moved by u, with
                        # the Koszul signs u adds (see the module docstring)
                        u = m - r
                        flip = (_passed_odd(cs, u) & odd
                                if odd and u & cs.odd_low else 0)
                        # an image scaled by +-1 needs no product
                        neg = c == MINUS_ONE
                        scale = None if neg or c.is_one() else c
                        it = iter(img)
                        for m2, c2 in zip(it, it):
                            sub = neg
                            if flip and ((m2 ^ r) & flip).bit_count() & 1:
                                sub = not neg
                            nxt.setdefault(m2 + u, []).append(
                                (c2, scale, sub))
                if k < last:
                    poly = _summed(nxt)
                    if not poly:
                        break
        return _summed(out)

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


def _support(terms):
    """The support mask: every field of a coordinate that the terms step
    or whose exponent one of their linear forms reads, nested factors
    included."""
    mask = 0
    for _, ops in terms:
        for op in ops:
            if isinstance(op, OpExpr):
                mask |= op._mask
            elif op[0] in _SHIFT:
                mask |= sp.FIELD_TOP << sp.FIELD_BITS * op[1]
            else:
                for shift, _ in op[1]._fields:
                    mask |= sp.FIELD_TOP << shift
    return mask


def _passed_odd(cs, u):
    """The low bit of each odd field p whose position has an odd number
    of u's odd coordinates before it: the Koszul sign that u adds to a
    step at p.  A prefix XOR over the fields, doubling its reach."""
    y = (u & cs.odd_low) << sp.FIELD_BITS
    reach, top = sp.FIELD_BITS, sp.FIELD_BITS * cs.ncoords
    while reach < top:
        y ^= y << reach
        reach <<= 1
    return y & cs.odd_low


def _summed(contribs):
    """Each monomial's coefficient: the sum of its contributions (a, b,
    negate), read as in ``sum_of_products``.  A lone contribution is its
    own product, which is never zero, since every coefficient carried or
    stored is nonzero and the scalars form a domain; a sum that cancels
    drops its monomial."""
    out = {}
    for m, terms in contribs.items():
        if len(terms) == 1:
            ((c, scale, neg),) = terms
            if scale is not None:
                c = c * scale
            out[m] = -c if neg else c
        else:
            c = sum_of_products(terms)
            if not c.is_zero():
                out[m] = c
    return out


def _stored(img, pool):
    """An image as the flat tuple (m, c, m, c, ...) the memo keeps, each
    monomial and coefficient taken from the memo's pool, so that a value
    is stored once however many images hold it."""
    intern = pool.setdefault
    return tuple([intern(x, x) for item in img.items() for x in item])


def _steps(ops):
    """The factors of one term in acting order, each run of consecutive
    elementary operators grouped into one tuple; a term with no nested
    factor is a single (possibly empty) run.  Each elementary operator is
    compiled to (d, arg, factor): a coordinate operator to its exponent
    step d = +-1, its position and its derivative's factor, a linear-form
    operator to d = 0, its form and the constructor of its value."""
    steps = []
    for op in reversed(ops):
        if isinstance(op, OpExpr):
            steps.append(op)
            continue
        if not (steps and type(steps[-1]) is list):
            steps.append([])
        steps[-1].append((_SHIFT.get(op[0], 0), op[1], _FACTOR.get(op[0])))
    return tuple(s if isinstance(s, OpExpr) else tuple(s)
                 for s in steps) or ((),)


# the exponent step of each coordinate operator; a linear-form operator
# steps by 0
_SHIFT = {"x": 1, "D": -1, "d": -1}

# the scalar each elementary operator multiplies in: a derivative's factor
# on the old exponent n, or the value of a factor's linear form
_FACTOR = {"D": qnum, "d": lin, "qpow": qpow, "qnum": qnum, "lin": lin}


def _run(cs, ops, m, c):
    """Thread (monomial, coefficient) through compiled elementary ops in
    acting order.

    Each elementary operator maps a monomial to at most one monomial;
    returns (monomial, coefficient, negate), the image being the
    coefficient negated when ``negate``, or None once the monomial is
    annihilated.  A derivative's factor [n] or n is multiplied in only for
    n > 1, since both are 1 at n = 1, the only old exponent an odd
    coordinate has.  The Koszul signs are collected in ``negate``, which
    the caller hands on with the coefficient rather than negating it.
    """
    neg = False
    for d, arg, factor in ops:
        if d:
            r = sp.shift_coord(cs, arg, m, d)
            if r is None:
                return None
            sign, n, m = r
            if sign < 0:
                neg = not neg
            if n > 1 and d < 0:
                c = c * factor(n)
        else:  # a linear form's q-power, q-number or classical value
            s = factor(arg.eval_const(m), arg.lam)
            if s.is_zero():
                return None
            c = c * s
    return m, c, neg


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
        yield sp.mono_pack(acc)
        return
    if pos >= cs.ncoords:
        return
    top = 1 if cs.odd[pos] else remaining
    for e in range(min(top, remaining) + 1):
        tail = acc + ((pos, e),) if e else acc
        yield from _monos_of_degree(cs, pos + 1, remaining - e, tail)


def first_failure(pairs, degree):
    """The first failing (lhs, rhs) pair on the monomials of degree <= degree.

    The pairs, any iterable of them, are checked one after another, each
    on the basis monomials in canonical order.  Returns None when every
    pair agrees on every basis monomial, else (k, monomial, residual): k
    indexes the first failing pair, the monomial is its first failing one
    and the residual is lhs - rhs there.  A pair is probed only on the
    monomials inside its joint support, since its verdict anywhere else is
    that of a monomial it was probed on before (see the module docstring).
    A pair whose sides have equal ``terms`` (equal coefficients, the same
    factors in the same order) is one operator and is not probed at all.
    """
    first = None
    for k, (a, b) in enumerate(pairs):
        if first is None:
            first, basis = a, tuple(basis_monomials(a.cs, degree))
        first._check(a)
        a._check(b)
        if a.terms == b.terms:
            continue    # one operator: the pair holds everywhere
        joint = a._mask | b._mask
        for mono in basis:
            if mono & joint != mono:
                continue
            img_a = a.apply_monomial(mono)
            img_b = b.apply_monomial(mono)
            # no image stores a zero coefficient, so == is exact equality
            if img_a != img_b:
                # the residual: img_a's terms plus img_b's, each negated
                diff = {m: [(c, None, False)] for m, c in img_a.items()}
                for m, c in img_b.items():
                    diff.setdefault(m, []).append((c, None, True))
                return k, mono, _summed(diff)
    return None
