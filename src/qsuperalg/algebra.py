"""Root data for sl(M+1|N+1) and the generator realizations.

Builds the Chevalley generators as difference/differential operators on
the coordinate chart, in three flavours:

  * ``classical``: the q -> 1 form of ``prop2``: h_i, e_i, f_i with
    ordinary derivatives and plain linear-form multiplications (no q
    anywhere);
  * ``prop2``: the quantum generators with exponents written through the
    full triple sums over the Cartan matrix;
  * ``prop3``: the quantum generators with the exponents reduced to
    explicit nu-sign combinations.

prop2 and prop3 are one construction.  Each exponent is written once in
terms of the five reduction identities I43-I47, and each identity is one
function returning its (triple-sum side, reduced side) pair: prop2 (and
the classical variant) reads side 0, prop3 reads side 1.  The two sides
are equal LinForms, so both variants print identical listings, and
:func:`check_linform_identities` compares the very pairs the builders read.
"""

from __future__ import annotations

import itertools

from .scalars import ONE, MINUS_ONE, qpow
from .superpoly import CoordSystem
from .operators import LinForm, OpExpr, graded_commutator


class RootData:
    """Signs, Cartan matrix and generator parities for sl(M+1|N+1)."""

    __slots__ = ("M", "N", "K", "nu", "cartan", "gen_parity", "simple_roots")

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
        self.gen_parity = tuple(1 if i == M + 1 else 0 for i in range(1, K + 1))
        # alpha_i = nu_i e_i - nu_{i+1} e_{i+1} over the epsilon basis
        self.simple_roots = tuple(
            {i: nu[i], i + 1: -nu[i + 1]} for i in range(1, K + 1))

    def a(self, i, j):
        return self.cartan[i - 1][j - 1]

    def a_sum(self, i, lo, hi):
        """sum_{r=lo}^{hi} a_{ir}; zero for an empty range."""
        return sum(self.a(i, r) for r in range(lo, hi + 1))

    def root_inner(self, i, j):
        """(alpha_i | alpha_j) under (eps_i | eps_j) = nu_i delta_ij."""
        total = 0
        for k, ci in self.simple_roots[i - 1].items():
            cj = self.simple_roots[j - 1].get(k)
            if cj and k <= self.K + 1:
                total += ci * cj * self.nu[k]
        return total


def build_root_data(M, N):
    return RootData(M, N)


class GeneratorSet:
    """One realization: maps i -> t_i (or h_i), e_i, f_i as operators."""

    __slots__ = ("data", "cs", "variant", "weights", "t", "e", "f", "t_form")

    def __init__(self, data, cs, variant, weights, t, e, f, t_form):
        self.data = data
        self.cs = cs
        self.variant = variant
        self.weights = weights
        self.t = t            # dict i -> OpExpr (h_i in classical mode)
        self.e = e
        self.f = f
        self.t_form = t_form  # dict i -> LinForm (exponent of t_i / value of h_i)

    @property
    def quantum(self):
        return self.variant != "classical"

    def t_inv(self, i):
        if not self.quantum:
            raise ValueError("t_i^-1 only exists in the quantum variants")
        return OpExpr.term(self.cs, (("qpow", -self.t_form[i]),))


def _weight_form(i, weights):
    """The (alpha_i|weight) contribution as a LinForm tail."""
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


def _e_terms(data, cs, i, diff):
    """Shared shape of e_i: leading D plus the staircase terms.

    The classical form carries no q-power prefixes.
    """
    terms = []
    ops = (("d" if diff else "D", cs.pos[(i, i)]),)
    lead = _staircase(data, cs, i, i - 1)
    if not diff and not lead.is_zero():
        ops = (("qpow", lead),) + ops
    terms.append((ONE, ops))
    for l in range(1, i):
        ops = (("x", cs.pos[(l, i - 1)]), ("d" if diff else "D", cs.pos[(l, i)]))
        pre = _staircase(data, cs, i, l - 1)
        if not diff and not pre.is_zero():
            ops = (("qpow", pre),) + ops
        terms.append((ONE, ops))
    return terms


def _f_terms(data, cs, i, variant, weights):
    """f_i in any variant; the classical form is prop2 at q = 1."""
    nu = data.nu
    diff = variant == "classical"
    side = variant == "prop3"
    w = _weight_form(i, weights)
    row = _i44(data, cs, i, i + 1)[side]
    deriv = "d" if diff else "D"
    terms = []
    for j in range(1, i):
        ops = (("x", cs.pos[(j, i)]), (deriv, cs.pos[(j, i - 1)]))
        if not diff:
            rho = w - row - _i45(data, cs, i, j)[side] \
                + _sum(_m(cs, l, i - 1, nu[i]) for l in range(j + 1, i))
            ops = (("qpow", rho),) + ops
        terms.append((ONE if nu[i] > 0 else MINUS_ONE, ops))
    for j in range(i + 1, data.K + 1):
        ops = (("x", cs.pos[(i, j)]), (deriv, cs.pos[(i + 1, j)]))
        if not diff:
            eta = w - _i44(data, cs, i, j + 1)[side] \
                - _i46(data, cs, i, j)[side] + _i47(data, cs, i, j)[side]
            ops = (("qpow", -eta),) + ops
        terms.append((MINUS_ONE if nu[i + 1] > 0 else ONE, ops))
    tail = w - row + _m(cs, i, i, -(nu[i] + nu[i + 1]) // 2)
    terms.append((ONE, (("x", cs.pos[(i, i)]),
                        ("lin" if diff else "qnum", tail))))
    return terms


def _build(data, weights, variant):
    if weights is not None and (len(weights) != data.K or not all(
            type(w) is int for w in weights)):
        raise ValueError("weights must be None or %d ints, got %r"
                         % (data.K, weights))
    cs = CoordSystem(data.M, data.N)
    diff = variant == "classical"
    t, e, f, t_form = {}, {}, {}, {}
    for i in range(1, data.K + 1):
        t_form[i] = _weight_form(i, weights) \
            - _i43(data, cs, i)[variant == "prop3"]
        t[i] = OpExpr.term(cs, (("lin" if diff else "qpow", t_form[i]),))
        e[i] = OpExpr(cs, _e_terms(data, cs, i, diff))
        f[i] = OpExpr(cs, _f_terms(data, cs, i, variant, weights))
    return GeneratorSet(data, cs, variant, weights, t, e, f, t_form)


def build_quantum(data, weights=None, variant="prop3"):
    """The quantum generator set; weights None means symbolic markers."""
    if variant not in ("prop2", "prop3"):
        raise ValueError("variant must be prop2 or prop3")
    return _build(data, weights, variant)


def build_classical(data, weights=None):
    """The classical generator set of plain differential operators."""
    return _build(data, weights, "classical")


def build_generators(data, weights=None, variant="prop3"):
    """The generator set of any variant: prop2, prop3 or classical."""
    if variant not in ("prop2", "prop3", "classical"):
        raise ValueError("variant must be prop2, prop3 or classical")
    if variant == "classical":
        return build_classical(data, weights)
    return build_quantum(data, weights, variant)


def build_xminus(gens, l, m):
    """Root vector for alpha_l + ... + alpha_m as a nested twisted bracket.

    Quantum: X(l,m) = [f_m, X(l,m-1)]_{q^{-nu_m}}; classical uses the
    plain graded bracket at every level.
    """
    if not (1 <= l <= m <= gens.data.K):
        raise IndexError("need 1 <= l <= m <= %d" % gens.data.K)
    return next(itertools.islice(_xminus_chain(gens, l), m - l, None))


def root_vectors(gens):
    """Every root vector X(l,m) of the generator set, keyed by (l, m).

    Each X(l,m) is the bracket of build_xminus taken on the table's own
    X(l,m-1), so one node object stands for X(l,m-1) in all of them and a
    probe's memo evaluates it once per monomial.
    """
    return {(l, m): x for l in range(1, gens.data.K + 1)
            for m, x in enumerate(_xminus_chain(gens, l), l)}


def _xminus_chain(gens, l):
    """X(l,l) = f_l, X(l,l+1), ..., X(l,K), each bracketed onto the last."""
    x = gens.f[l]
    yield x
    for k in range(l + 1, gens.data.K + 1):
        xi = qpow(-gens.data.nu[k]) if gens.quantum else None
        x = graded_commutator(gens.f[k], x, xi)
        yield x


def check_linform_identities(data):
    """Verify the five reduction identities as LinForm equalities.

    Compares the two sides of exactly the identities the prop3 builders
    read.  Returns a dict id -> {"instances": n, "failures": [labels]}.
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
