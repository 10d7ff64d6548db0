"""Root data for sl(M+1|N+1) and the generator realizations.

Builds the Chevalley generators as difference/differential operators on
the coordinate chart, in three flavours:

  * ``classical``: e_i and f_i are ``prop2``'s terms at q = 1, through
    the q -> 1 column of ``operators.ELEMENTARY``; h_i multiplies by the
    exponent form of t_i;
  * ``prop2``: the quantum generators with exponents written through the
    full triple sums over the Cartan matrix;
  * ``prop3``: the quantum generators with the exponents reduced to
    explicit nu-sign combinations.

prop2 and prop3 are one construction.  Each exponent is written once in
terms of the five reduction identities I43-I47, and each identity is one
function returning its (triple-sum side, reduced side) pair: prop2 (and
the classical variant) reads side 0, prop3 reads side 1.  The two sides
are equal LinForms, so both variants print identical listings, and
:func:`check_linform_identities` compares every pair the builders read
and I47 at i = j, a_ii = nu_i + nu_{i+1}, which none reads.
"""

from __future__ import annotations

import itertools

from .scalars import ONE, MINUS_ONE, qpow
from .superpoly import CoordSystem
from .operators import ELEMENTARY, LinForm, OpExpr, graded_commutator


class RootData:
    """Signs and Cartan matrix for sl(M+1|N+1)."""

    __slots__ = ("M", "N", "K", "nu", "cartan")

    def __init__(self, M, N):
        if M < 0 or N < 0:
            raise ValueError("M and N must be non-negative")
        self.M, self.N = M, N
        K = M + N + 1
        self.K = K
        # nu[j] for j = 1..M+N+2, stored 1-based (index 0 unused)
        nu = [0] + [1 if j <= M + 1 else -1 for j in range(1, K + 2)]
        self.nu = tuple(nu)
        self.cartan = tuple(
            tuple((nu[i] + nu[i + 1]) * (i == j)
                  - nu[i] * (i == j + 1)
                  - nu[i + 1] * (i + 1 == j)
                  for j in range(1, K + 1))
            for i in range(1, K + 1))

    def a(self, i, j):
        return self.cartan[i - 1][j - 1]

    def a_sum(self, i, lo, hi):
        """sum_{r=lo}^{hi} a_{ir}; zero for an empty range."""
        return sum(self.a(i, r) for r in range(lo, hi + 1))


def build_root_data(M, N):
    return RootData(M, N)


class GeneratorSet:
    """One realization: maps i -> t_i (or h_i), e_i, f_i as operators.

    ``t[i]`` is the single factor ``("qpow", t_form[i])``; classically it
    is h_i, multiplication by ``t_form[i]``, the single factor ``("lin",
    t_form[i])``.  The set states each piece in which a relation differs
    from its q -> 1 form, and the relation suites read them: ``twist(k)``,
    the bracket twist q^k; ``t_pow(i, s)``, t_i^s; ``t_shift(i, k)``,
    t_i q^k, the factor q^{t_form[i] + k}; and ``cartan(i)``, the
    q-number [t_form[i]].  At q -> 1 the twist is the plain bracket, t_i^s
    is 1, t_i q^k is h_i + k, the factor {t_form[i] + k}, and [t_form[i]]
    is h_i.

    ``roots`` maps (l, m) to the root vector X(l,m) for alpha_l + ... +
    alpha_m: X(l,l) = f_l and X(l,m) = [f_m, X(l,m-1)]_{q^{-nu_m}}, the
    plain graded bracket classically.  Each X(l,m) is bracketed onto the
    table's own X(l,m-1), so one node object stands for X(l,m-1) in all of
    them, and every relation check of the set reaches the same nodes.
    """

    __slots__ = ("data", "cs", "variant", "weights", "t", "e", "f", "t_form",
                 "roots")

    def __init__(self, data, cs, variant, weights, t, e, f, t_form):
        self.data = data
        self.cs = cs
        self.variant = variant
        self.weights = weights
        self.t = t            # dict i -> OpExpr (h_i in classical mode)
        self.e = e
        self.f = f
        self.t_form = t_form  # dict i -> LinForm (exponent of t_i / value of h_i)
        self.roots = {}
        for l in range(1, data.K + 1):
            x = self.roots[l, l] = f[l]
            for m in range(l + 1, data.K + 1):
                x = self.roots[l, m] = graded_commutator(
                    f[m], x, self.twist(-data.nu[m]))

    @property
    def quantum(self):
        return self.variant != "classical"

    def twist(self, k):
        """The bracket twist q^k; None, the plain bracket, classically."""
        return qpow(k) if self.quantum else None

    def t_pow(self, i, s):
        """t_i^s, the factor q^{s t_form[i]}; 1 classically."""
        if not self.quantum:
            return OpExpr.identity(self.cs)
        return OpExpr.term(self.cs, (("qpow", self.t_form[i].scale(s)),))

    def t_shift(self, i, k):
        """t_i q^k, the factor q^{t_form[i] + k}; h_i + k classically."""
        kind = "qpow" if self.quantum else "lin"
        return OpExpr.term(self.cs, ((kind, self.t_form[i].shift(k)),))

    def cartan(self, i):
        """[t_form[i]], the q-number of t_i's exponent; h_i classically."""
        if not self.quantum:
            return self.t[i]
        return OpExpr.term(self.cs, (("qnum", self.t_form[i]),))


def weight_form(i, weights):
    """lambda_i, the (alpha_i|weight) contribution, as a LinForm: the
    marker Qi for symbolic weights, else the integer w_i."""
    if weights is None:
        return LinForm(None, 0, ((i, 1),))
    return LinForm(None, weights[i - 1])


def _m(cs, l, m, c=1):
    return LinForm({cs.pos[(l, m)]: c})


def _sum(forms):
    return sum(forms, LinForm())


def _triple_sum(data, cs, i, m_from):
    """sum_{m>=m_from} sum_{l<=m} (sum_{r=l}^m a_{ir}) M_{lm}."""
    co = {}
    for m in range(m_from, data.K + 1):
        for l in range(1, m + 1):
            c = data.a_sum(i, l, m)
            if c:
                p = cs.pos[(l, m)]
                co[p] = co.get(p, 0) + c
    return LinForm(co)


def _row_pair(data, cs, i, m_from):
    """sum_{l>=m_from} nu_i M(i,l) - nu_{i+1} M(i+1,l), for m_from > i."""
    nu = data.nu
    return _sum(_m(cs, i, l, nu[i]) + _m(cs, i + 1, l, -nu[i + 1])
                for l in range(m_from, data.K + 1))


def _staircase(data, cs, i, hi):
    """sum_{l=1}^{hi} nu_{i+1} M(l,i) - nu_i M(l,i-1), for hi < i."""
    nu = data.nu
    return _sum(_m(cs, l, i, nu[i + 1]) + _m(cs, l, i - 1, -nu[i])
                for l in range(1, hi + 1))


# ---------------------------------------------------------------------------
# linear-form reduction identities behind the prop2 -> prop3 simplification:
# each returns (triple-sum side, reduced side); prop2 and the classical
# variant read side 0, prop3 reads side 1
# ---------------------------------------------------------------------------

def _i43(data, cs, i):
    """I43: the whole triple sum of row i (the exponent of t_i)."""
    nu = data.nu
    return (_triple_sum(data, cs, i, 1),
            _m(cs, i, i, nu[i] + nu[i + 1]) + _staircase(data, cs, i, i - 1)
            + _row_pair(data, cs, i, i + 1))


def _i44(data, cs, i, m_from):
    """I44: the triple sum over m >= m_from > i is a row pair."""
    return _triple_sum(data, cs, i, m_from), _row_pair(data, cs, i, m_from)


def _i45(data, cs, i, j):
    """I45, j < i: sum_{l=j+1}^{i} (sum_{r=l}^{i} a_{ir}) M(l,i)."""
    nu = data.nu
    return (_sum(_m(cs, l, i, data.a_sum(i, l, i))
                 for l in range(j + 1, i + 1)),
            _m(cs, i, i, nu[i] + nu[i + 1])
            + _sum(_m(cs, l, i, nu[i + 1]) for l in range(j + 1, i)))


def _i46(data, cs, i, j):
    """I46, i < j: sum_{l=i}^{j} (sum_{r=l}^{j} a_{ir}) M(l,j)."""
    nu = data.nu
    return (_sum(_m(cs, l, j, data.a_sum(i, l, j)) for l in range(i, j + 1)),
            _m(cs, i, j, nu[i]) + _m(cs, i + 1, j, -nu[i + 1]))


def _i47(data, cs, i, j):
    """I47, i <= j: sum_{l=i}^{j} a_{il} - sum_{l=i+1}^{j} a_{il}."""
    nu = data.nu
    return (LinForm(None, data.a_sum(i, i, j) - data.a_sum(i, i + 1, j)),
            LinForm(None, nu[i] + nu[i + 1]))


def _e_terms(data, cs, i):
    """e_i: D(i,i), then x(l,i-1) D(l,i) for l < i, each behind a q-power."""
    terms = []
    for l in (i, *range(1, i)):
        ops = (("D", cs.pos[(l, i)]),)
        if l < i:
            ops = (("x", cs.pos[(l, i - 1)]),) + ops
        pre = _staircase(data, cs, i, l - 1)
        if not pre.is_zero():
            ops = (("qpow", pre),) + ops
        terms.append((ONE, ops))
    return terms


def _f_terms(data, cs, i, side, weights):
    """f_i, its exponents read from side ``side`` of I43-I47."""
    nu = data.nu
    w = weight_form(i, weights)
    row = _i44(data, cs, i, i + 1)[side]
    terms = []
    for j in range(1, i):
        rho = w - row - _i45(data, cs, i, j)[side] \
            + _sum(_m(cs, l, i - 1, nu[i]) for l in range(j + 1, i))
        terms.append((ONE if nu[i] > 0 else MINUS_ONE, (
            ("qpow", rho), ("x", cs.pos[(j, i)]), ("D", cs.pos[(j, i - 1)]))))
    for j in range(i + 1, data.K + 1):
        eta = w - _i44(data, cs, i, j + 1)[side] \
            - _i46(data, cs, i, j)[side] + _i47(data, cs, i, j)[side]
        terms.append((MINUS_ONE if nu[i + 1] > 0 else ONE, (
            ("qpow", -eta), ("x", cs.pos[(i, j)]), ("D", cs.pos[(i + 1, j)]))))
    tail = w - row + _m(cs, i, i, -(nu[i] + nu[i + 1]) // 2)
    terms.append((ONE, (("x", cs.pos[(i, i)]), ("qnum", tail))))
    return terms


def _at_q1(terms):
    """Terms at q = 1: kinds renamed by ``ELEMENTARY``, q-powers dropped."""
    return [(c, tuple((ELEMENTARY[kind].q1, arg) for kind, arg in ops
                      if ELEMENTARY[kind].q1)) for c, ops in terms]


def build_generators(data, weights=None, variant="prop3"):
    """The generator set of any variant: prop2, prop3 or classical."""
    if variant not in ("prop2", "prop3", "classical"):
        raise ValueError("variant must be prop2, prop3 or classical")
    if weights is not None and (len(weights) != data.K or not all(
            type(w) is int for w in weights)):
        raise ValueError("weights must be None or %d ints, got %r"
                         % (data.K, weights))
    cs = CoordSystem(data.M, data.N)
    side = variant == "prop3"
    # classically prop2 at q = 1, but for h_i, which is no image of t_i
    q1, t_kind = (_at_q1, "lin") if variant == "classical" else (list, "qpow")
    t, e, f, t_form = {}, {}, {}, {}
    for i in range(1, data.K + 1):
        t_form[i] = weight_form(i, weights) - _i43(data, cs, i)[side]
        t[i] = OpExpr.term(cs, ((t_kind, t_form[i]),))
        e[i] = OpExpr(cs, q1(_e_terms(data, cs, i)))
        f[i] = OpExpr(cs, q1(_f_terms(data, cs, i, side, weights)))
    return GeneratorSet(data, cs, variant, weights, t, e, f, t_form)


def build_quantum(data, weights=None, variant="prop3"):
    """The quantum generator set; weights None means symbolic markers."""
    if variant == "classical":
        raise ValueError("a quantum variant is prop2 or prop3")
    return build_generators(data, weights, variant)


def build_classical(data, weights=None):
    """The classical generator set of plain differential operators."""
    return build_generators(data, weights, "classical")


def check_linform_identities(data):
    """Verify the five reduction identities as LinForm equalities.

    Compares the two sides of every instance the builders read and of
    I47 at i = j.  Returns a dict id -> {"instances": n, "failures": [labels]}.
    """
    cs = CoordSystem(data.M, data.N)
    report = {}

    def record(name, label, sides):
        entry = report.setdefault(name, {"instances": 0, "failures": []})
        entry["instances"] += 1
        if sides[0] != sides[1]:
            entry["failures"].append(label)

    for i in range(1, data.K + 1):
        record("I43", "i=%d" % i, _i43(data, cs, i))
        # f_i reads I44 at m_from = i+1 and, in eta(i,j), at every j+1 > i+1
        for m_from in range(i + 1, data.K + 2):
            record("I44", "i=%d,m=%d" % (i, m_from),
                   _i44(data, cs, i, m_from))
    for i, j in itertools.product(range(1, data.K + 1), repeat=2):
        label = "i=%d,j=%d" % (i, j)
        if j < i:
            record("I45", label, _i45(data, cs, i, j))
        if i < j:
            record("I46", label, _i46(data, cs, i, j))
        if i <= j:
            record("I47", label, _i47(data, cs, i, j))
    return report
