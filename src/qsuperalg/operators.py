"""The operator calculus: sums of ordered operator products and their exact
action on super-polynomials.

``OpExpr`` is the only operator type.  It is a finite sum of terms; each
term is a scalar coefficient together with an ordered tuple of factors,
applied right-to-left.  A factor is a nested ``OpExpr`` or an elementary
operator (kind, arg): x, D or d at a coordinate position, or qpow, qnum or
lin of a ``LinForm``.  ``ELEMENTARY`` is the one description of the kinds,
which evaluation, parity, printing and the classical generators read.

No normal ordering is ever performed: expressions stay in the order they
were written, and equality of operators is extensional (action on a
degree-bounded monomial basis), but for the pairs decided below for every
monomial, by their terms, by grading or by differential order.

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
P(u) & (m2 ^ r) has an odd bit count, P(u) being the translate's Koszul
sign ``superpoly.passed_odd``: the low bit of each odd field p before which
u has an odd number of odd coordinates.  This is exact:

  * a range check, a derivative's factor and a form's value read only
    support fields, which u leaves alone, so the same paths survive with
    the same scalars;
  * a step at an odd position p passes every odd coordinate before p:
    along a path from m these are the current support part's and u's, so
    u adds the factor -1 to each such step exactly when P(u) has p's bit;
  * along any path the number of steps at an odd p has the parity of p's
    exponent change, which is bit p of m2 ^ r.

A pair (a, b) is probed as one operator, its residual a - b: the terms
of a and those of b with their coefficients negated, threaded through
once per monomial.  At each image monomial the two sides' contributions
are summed in one pass, so on a monomial where the pair agrees they
cancel inside that sum and neither side's coefficient is brought to
canonical form on its own.  A scalar's canonical form is unique, so the
residual's image is exactly a's image less b's, and it is empty exactly
when the two agree.

Nothing in the memo's argument needs the mask to be the node's own: any
mask that contains the node's support serves.  So the same rule decides
a pair on most monomials without probing it.  Let J be the residual's
mask, the union of the two sides' masks, m a basis monomial, r = m & J
and u = m - r:

  * the residual's image at m is T_u of its image at r, where T_u maps
    each term (m2, c) to (m2 + u, +-c) and the sign depends only on
    P(u) & (m2 ^ r); T_u is injective, so the pair agrees at m if and
    only if it agrees at r;
  * when r != m, r is a basis monomial of lower degree, so it comes
    before m in the graded basis order and the pair's own check reached
    it first;
  * so ``first_failure`` probes a pair only on the monomials inside its
    joint support, m & J == m, and a pair's first failure, the witness,
    always lies among them.

A pair whose two sides have equal ``terms`` is not probed at all: equal
coefficients and the same factors in the same order make the two sides
one operator, which agrees with itself on every monomial.  AuxQ41 at
n = 1 (AuxC18 classically) compares [f_i, X(j,i-1)]_{q^-nu_i} with the
table's X(j,i), the node built as that same bracket.

A pair of one diagonal shape is decided by grading: it is shown to be
one operator, on every monomial and so at every degree, without applying
either side.  Every elementary factor moves the exponent vector by a
fixed step (the ``step`` column of ``ELEMENTARY``: +-1 at one coordinate,
0 for a form).  So along each term path of a product F, one term chosen
in every nested sum, F sends a monomial m to m + delta times a scalar, or
to 0, and delta does not depend on m.  Let l be a linear form and
g(l, F) the set of values of l's coordinate part on the deltas of F's
paths.  The shape is c (kappa l, F...) against c (F..., kappa l'), with
kappa one of qpow, qnum and lin, and l' equal to l but for its constant,
which is l's plus k.  When g(l, F) = {k}, a path from m that survives
ends at m' = m + delta, and l(m') = l(m) + k exactly, since l's
coordinate part is linear and its constant and weight part do not read
the monomial.  So kappa(l(m')) = kappa(l'(m)), and either side is
kappa(l'(m)) times F's image of m.  Classically this is t_i x against
x {t_form[i] + k}, and quantum, since q^k q^{l(m)} = q^{l(m)+k}, t_i x
against x q^{t_form[i] + k}, which is t_i x = q^k x t_i.

A diagonal factor scales the coefficient and leaves the monomial alone,
so on both sides F acts on the same monomial m: both take the same paths,
with the same derivative factors and the same Koszul signs, and a path
that is annihilated (an exponent below 0, or an odd exponent past 1) dies
on both.  Every monomial of F's image of m comes from a path that
survives, so the diagonal scalar is the same for all of them.  The rule
reads l, k and F from the pair's own factors, so a parsed or a mutated
set is judged on what it holds.  A pair of another shape, or whose F
has two values in g(l, F) or none (F is zero), is probed.

A pair of operators of bounded differential order is decided at low
degree.  A (parity-homogeneous) operator A has order <= s when the
graded commutator [A, x_p] has order <= s - 1 for every coordinate p,
order <= -1 meaning A = 0; an inhomogeneous one when each parity part
does.  Products add orders, sums take their max, and a graded bracket
[A, B] of homogeneous A and B has order <= ord A + ord B - 1.  The lemma:
an operator A of order <= s that kills every monomial of degree <= s is
zero.  By induction on s, s = -1 being A = 0: a monomial's images under
A's two parity parts have different parities, so each part kills those
monomials and we take A homogeneous; then [A, x_p] = A x_p -+ x_p A kills
every monomial m of degree <= s - 1, since x_p m has degree <= s, and has
order <= s - 1, so it is zero; A supercommutes with every x_p, and
A m = +-m A(1) = 0 for every monomial m.

Each node carries an order bound, computed once when it is built (the
``order`` column of ``ELEMENTARY``):

  * x, and a form that reads no coordinate (a scalar): 0;
  * d, D at an odd position (the Grassmann derivative) and lin of a form
    that reads a coordinate (a sum of Euler operators x_p d_p and a
    scalar): 1;
  * D at an even position and qpow or qnum of a form that reads a
    coordinate, q-difference operators: unbounded (inf);
  * a product: the sum of its factors' bounds, inf as soon as one is; a
    sum: the max of its terms', -1 for the zero operator;
  * the plain bracket [A, B] that ``graded_commutator`` builds: at most
    ord A + ord B - 1, A and B homogeneous or A even.  The bound is stated
    there, where the bracket is built, and nowhere else: the same terms
    written by hand with ``+``, or a twisted bracket, keep their terms'
    bound, which is looser but still sound.

So ``first_failure`` probes a pair whose sides have bounds s_a and s_b
only on the basis monomials of degree <= min(degree, max(s_a, s_b)),
inside its joint support: lhs - rhs has order <= s = max(s_a, s_b), so
if it kills those monomials it is zero and the pair holds at every
degree, and if it does not, its first failing monomial in the graded
order, the witness, has degree <= s and is the one the probe finds.
Classically every e_i, f_i, h_i and
root vector has bound 1, so a bracket of them is probed at degree <= 1;
every quantum generator has a q-difference and is unbounded, and its
pairs are probed up to ``degree``.

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

from collections import namedtuple
from math import inf

from .scalars import ONE, MINUS_ONE, qpow, qnum, lin, sum_of_products
from . import superpoly as sp


# Per kind: the exponent step (+-1 at a coordinate, 0 for a form), the
# scalar multiplied in (a derivative's factor on the old exponent n, or the
# form's value), the printed form, the kind at q = 1 (a q-power is 1), and
# the differential order bound (see the module docstring)
Elementary = namedtuple("Elementary", "step factor form q1 order")
ELEMENTARY = {
    "x": Elementary(1, None, "x(%d,%d)", "x", 0),  # times x, Koszul sign
    "D": Elementary(-1, qnum, "D(%d,%d)", "d", inf),  # q-diff. / Grassmann d
    "d": Elementary(-1, lin, "d(%d,%d)", "d", 1),  # x^n -> n x^(n-1)
    "qpow": Elementary(0, qpow, "q^{%s}", None, inf),  # times q^{form}
    "qnum": Elementary(0, qnum, "[%s]", "lin", inf),  # times [form]
    "lin": Elementary(0, lin, "{%s}", "lin", 1),  # times the form's value
}


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

    __slots__ = ("cs", "terms", "_plan", "_mask", "_order", "_memo")

    def __init__(self, cs, terms):
        self.cs = cs
        self.terms = tuple((c, ops) for c, ops in terms if not c.is_zero())
        self._plan = tuple((c, _steps(ops)) for c, ops in self.terms)
        self._mask = _support(self.terms)
        self._order = _order(cs, self.terms)
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
        # -c copies each numerator once; a product with -1 would go
        # through the scalar kernel
        self._check(other)
        return OpExpr(self.cs, self.terms + tuple((-c, ops)
                                                  for c, ops in other.terms))

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
        cs, par = self.cs, None
        for _, ops in self.terms:
            p = 0
            for op in ops:
                if isinstance(op, OpExpr):
                    p += op.parity()
                elif ELEMENTARY[op[0]].step and cs.odd[op[1]]:
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
                        flip = (sp.passed_odd(cs, u) & odd
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
                row = ELEMENTARY[op[0]]
                factors.append(row.form % (cs.coords[op[1]] if row.step
                                           else op[1].render(cs)))
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
            elif ELEMENTARY[op[0]].step:
                mask |= sp.FIELD_TOP << sp.FIELD_BITS * op[1]
            else:
                for shift, _ in op[1]._fields:
                    mask |= sp.FIELD_TOP << shift
    return mask


def _run_order(cs, ops):
    """The order bound of the product of ``ops``: the sum of its factors',
    ``inf`` as soon as one factor is unbounded."""
    s = 0
    for op in ops:
        if isinstance(op, OpExpr):
            s += op._order
        else:
            kind, arg = op
            if ELEMENTARY[kind].step:
                # at an odd position D is the Grassmann derivative
                s += 1 if kind == "D" and cs.odd[arg] \
                    else ELEMENTARY[kind].order
            elif arg.coeffs:    # a form that reads no coordinate is a scalar
                s += ELEMENTARY[kind].order
        if s == inf:
            break
    return s


def _order(cs, terms):
    """The order bound of a sum of terms: the max of its terms', -1 for
    the zero operator."""
    bound = -1
    for _, ops in terms:
        bound = max(bound, _run_order(cs, ops))
        if bound == inf:
            break
    return bound


def _path_values(factors, form):
    """g(form, F) of the product F of ``factors``: each path's value is the
    sum of its factors' values, an elementary factor's being its step
    times the form's coefficient at its coordinate, a nested node's
    those of its terms' paths."""
    vals = {0}
    for op in factors:
        if isinstance(op, OpExpr):
            node = set().union(*(_path_values(ops, form)
                                 for _, ops in op.terms))
            vals = {a + b for a in vals for b in node}
        elif ELEMENTARY[op[0]].step:
            v = ELEMENTARY[op[0]].step * form.coeffs.get(op[1], 0)
            vals = {a + v for a in vals}
    return vals


def _graded(a, b):
    """Whether the pair (a, b) is one operator, c (kappa l, F...) against
    c (F..., kappa l'), decided by grading (see the module docstring)."""
    if len(a.terms) != 1 or len(b.terms) != 1:
        return False
    (c, ops), = a.terms
    (cb, ops_b), = b.terms
    head = ops[0] if ops else None
    tail = ops_b[-1] if ops_b else None
    if (type(head) is not tuple or type(tail) is not tuple
            or ELEMENTARY[head[0]].step or tail[0] != head[0] or cb != c
            or ops_b[:-1] != ops[1:]):
        return False
    form, shifted = head[1], tail[1]
    return (shifted.coeffs == form.coeffs and shifted.lam == form.lam
            and _path_values(ops[1:], form) == {shifted.const - form.const})


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
        row = ELEMENTARY[op[0]]
        steps[-1].append((row.step, op[1], row.factor))
    return tuple(s if isinstance(s, OpExpr) else tuple(s)
                 for s in steps) or ((),)


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
    """[a, b]_xi = a b - (-1)^{|a||b|} xi b a; xi defaults to 1.

    The plain bracket has order <= ord a + ord b - 1, which lowers the
    node's bound (see the module docstring).  ``parity`` has raised
    ``MixedParity`` on a mixed a, and on a mixed b when a is odd; for an
    even a the bracket is a b - b a, linear in b, so the bound holds for
    each of b's parity parts."""
    factor = ONE if (a.parity() and b.parity()) else MINUS_ONE
    if xi is not None:
        factor = factor * xi
    node = a.compose(b) + b.compose(a).scale(factor)
    if xi is None:
        node._order = min(node._order, a._order + b._order - 1)
    return node


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
    and the residual is lhs - rhs there.  A pair whose sides have equal
    ``terms`` (equal coefficients, the same factors in the same order), or
    that the grading decides, is one operator and is not probed at all.
    Any other pair is probed by one application of its residual lhs - rhs
    per monomial, only on the monomials inside its joint support, since
    its verdict anywhere else is that of a monomial it was probed on
    before, and only up to the larger of its sides' order bounds, past
    which a residual that vanishes below vanishes everywhere; a nonempty
    image is the residual (see the module docstring).
    A negative degree raises ``ValueError`` before any pair is read.
    """
    if degree < 0:
        raise ValueError("degree must be non-negative")
    first, bases = None, {}
    for k, (a, b) in enumerate(pairs):
        if first is None:
            first = a
        first._check(a)
        a._check(b)
        if a.terms == b.terms or _graded(a, b):
            continue    # one operator: the pair holds everywhere
        cap = min(degree, max(a._order, b._order))
        if cap < 0:
            continue    # both sides are zero
        # the basis of degree <= cap, a prefix of the graded basis
        basis = bases.get(cap)
        if basis is None:
            basis = bases[cap] = tuple(basis_monomials(a.cs, cap))
        residual = a - b
        joint = residual._mask      # a._mask | b._mask
        for mono in basis:
            if mono & joint != mono:
                continue
            img = residual.apply_monomial(mono)
            if img:
                return k, mono, img
    return None
