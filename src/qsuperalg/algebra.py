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

The two quantum variants must agree extensionally; that agreement is
exactly the content of the five linear-form reduction identities checked
by :func:`check_linform_identities`.
"""

from __future__ import annotations

import itertools

from .scalars import ONE, MINUS_ONE, qpow, qfactorial
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
        return LinForm(None, 0, {i: 1})
    return LinForm(None, weights[i - 1], None)


def _triple_sum(data, cs, i, m_from):
    """sum_{m>=m_from} sum_{l<=m} (sum_{r=l}^m a_{ir}) M_{lm}."""
    co = {}
    for m in range(m_from, data.K + 1):
        for l in range(1, m + 1):
            c = sum(data.a(i, r) for r in range(l, m + 1))
            if c:
                p = cs.pos[(l, m)]
                co[p] = co.get(p, 0) + c
    return LinForm(co)


def _m(cs, l, m, c=1):
    return LinForm({cs.pos[(l, m)]: c})


def _t_form_prop3(data, cs, i, weights):
    nu = data.nu
    f = _weight_form(i, weights)
    for l in range(1, i):
        f = f + _m(cs, l, i, -nu[i + 1]) + _m(cs, l, i - 1, nu[i])
    for l in range(i + 1, data.K + 1):
        f = f + _m(cs, i, l, -nu[i]) + _m(cs, i + 1, l, nu[i + 1])
    return f + _m(cs, i, i, -(nu[i] + nu[i + 1]))


def _e_terms(data, cs, i, diff):
    """Shared shape of e_i: leading D plus the staircase terms.

    The classical form carries no q-power prefixes.
    """
    nu = data.nu

    def expo(upper):
        f = LinForm()
        for k in range(1, upper + 1):
            f = f + _m(cs, k, i, nu[i + 1]) + _m(cs, k, i - 1, -nu[i])
        return f

    terms = []
    ops = (("d" if diff else "D", cs.pos[(i, i)]),)
    lead = expo(i - 1)
    if not diff and not lead.is_zero():
        ops = (("qpow", lead),) + ops
    terms.append((ONE, ops))
    for l in range(1, i):
        ops = (("x", cs.pos[(l, i - 1)]), ("d" if diff else "D", cs.pos[(l, i)]))
        pre = expo(l - 1)
        if not diff and not pre.is_zero():
            ops = (("qpow", pre),) + ops
        terms.append((ONE, ops))
    return terms


def _rho_prop3(data, cs, i, j, weights):
    nu = data.nu
    f = _weight_form(i, weights) + _m(cs, i, i, -(nu[i] + nu[i + 1]))
    for l in range(j + 1, i):
        f = f + _m(cs, l, i, -nu[i + 1]) + _m(cs, l, i - 1, nu[i])
    for l in range(i + 1, data.K + 1):
        f = f + _m(cs, i, l, -nu[i]) + _m(cs, i + 1, l, nu[i + 1])
    return f


def _eta_prop3(data, cs, i, j, weights):
    nu = data.nu
    f = _weight_form(i, weights).shift(nu[i] + nu[i + 1])
    for l in range(j, data.K + 1):
        f = f + _m(cs, i, l, -nu[i]) + _m(cs, i + 1, l, nu[i + 1])
    return f


def _rho_prop2(data, cs, i, j, weights):
    nu = data.nu
    f = _weight_form(i, weights) - _triple_sum(data, cs, i, i + 1)
    for l in range(j + 1, i + 1):
        c = sum(data.a(i, r) for r in range(l, i + 1))
        f = f + _m(cs, l, i, -c)
    for l in range(j + 1, i):
        f = f + _m(cs, l, i - 1, nu[i])
    return f


def _eta_prop2(data, cs, i, j, weights):
    f = _weight_form(i, weights) - _triple_sum(data, cs, i, j + 1)
    for l in range(i, j + 1):
        c = sum(data.a(i, r) for r in range(l, j + 1))
        f = f + _m(cs, l, j, -c)
    const = sum(data.a(i, l) for l in range(i, j + 1)) \
        - sum(data.a(i, l) for l in range(i + 1, j + 1))
    return f.shift(const)


def _f_terms(data, cs, i, variant, weights):
    """f_i in any variant; the classical form is prop2 at q = 1."""
    nu = data.nu
    diff = variant == "classical"
    rho = _rho_prop3 if variant == "prop3" else _rho_prop2
    eta = _eta_prop3 if variant == "prop3" else _eta_prop2
    deriv = "d" if diff else "D"
    terms = []
    for j in range(1, i):
        ops = (("x", cs.pos[(j, i)]), (deriv, cs.pos[(j, i - 1)]))
        if not diff:
            ops = (("qpow", rho(data, cs, i, j, weights)),) + ops
        terms.append((ONE if nu[i] > 0 else MINUS_ONE, ops))
    for j in range(i + 1, data.K + 1):
        ops = (("x", cs.pos[(i, j)]), (deriv, cs.pos[(i + 1, j)]))
        if not diff:
            ops = (("qpow", -eta(data, cs, i, j, weights)),) + ops
        terms.append((MINUS_ONE if nu[i + 1] > 0 else ONE, ops))
    if variant == "prop3":
        tail = _weight_form(i, weights) \
            + _m(cs, i, i, -(nu[i] + nu[i + 1]) // 2)
        for l in range(i + 1, data.K + 1):
            tail = tail + _m(cs, i, l, -nu[i]) + _m(cs, i + 1, l, nu[i + 1])
    else:
        tail = _weight_form(i, weights) - _triple_sum(data, cs, i, i + 1) \
            + _m(cs, i, i, -(nu[i] + nu[i + 1]) // 2)
    terms.append((ONE, (("x", cs.pos[(i, i)]),
                        ("lin" if diff else "qnum", tail))))
    return terms


def _build(data, weights, variant):
    cs = CoordSystem(data.M, data.N)
    diff = variant == "classical"
    t, e, f, t_form = {}, {}, {}, {}
    for i in range(1, data.K + 1):
        if variant == "prop3":
            form = _t_form_prop3(data, cs, i, weights)
        else:
            form = _weight_form(i, weights) - _triple_sum(data, cs, i, 1)
        t_form[i] = form
        t[i] = OpExpr.term(cs, (("lin" if diff else "qpow", form),))
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
    x = gens.f[l]
    for k in range(l + 1, m + 1):
        xi = qpow(-gens.data.nu[k]) if gens.quantum else None
        x = graded_commutator(gens.f[k], x, xi)
    return x


def q_exponential(cs, coord, X, order):
    """Truncation of sum_n x^n X^n / [n]! as an operator expression.

    ``coord`` is an (l, m) coordinate pair; for a Grassmann coordinate the
    order-1 truncation is already exact.
    """
    if order < 0:
        raise ValueError("order must be non-negative")
    pos = cs.pos[coord]
    if cs.odd[pos] and order > 1:
        order = 1
    out = OpExpr.identity(cs)
    for n in range(1, order + 1):
        xs = OpExpr.term(cs, (("x", pos),) * n)
        coeff = ONE / qfactorial(n)
        out = out + xs.compose(X.power(n)).scale(coeff)
    return out


# ---------------------------------------------------------------------------
# linear-form reduction identities behind the prop2 -> prop3 simplification
# ---------------------------------------------------------------------------

def check_linform_identities(data):
    """Verify the five Cartan-substitution identities as LinForm equalities.

    Returns a dict id -> {"instances": n, "failures": [labels]}.
    """
    cs = CoordSystem(data.M, data.N)
    nu = data.nu
    K = data.K
    report = {}

    def record(name, label, lhs, rhs):
        entry = report.setdefault(name, {"instances": 0, "failures": []})
        entry["instances"] += 1
        if lhs != rhs:
            entry["failures"].append(label)

    for i in range(1, K + 1):
        lhs = _triple_sum(data, cs, i, 1)
        rhs = _m(cs, i, i, nu[i] + nu[i + 1])
        for l in range(1, i):
            rhs = rhs + _m(cs, l, i, nu[i + 1]) + _m(cs, l, i - 1, -nu[i])
        for l in range(i + 1, K + 1):
            rhs = rhs + _m(cs, i, l, nu[i]) + _m(cs, i + 1, l, -nu[i + 1])
        record("I43", "i=%d" % i, lhs, rhs)

        lhs = _triple_sum(data, cs, i, i + 1)
        rhs = LinForm()
        for l in range(i + 1, K + 1):
            rhs = rhs + _m(cs, i, l, nu[i]) + _m(cs, i + 1, l, -nu[i + 1])
        record("I44", "i=%d" % i, lhs, rhs)

    for i, j in itertools.product(range(1, K + 1), repeat=2):
        if j < i:
            lhs = LinForm()
            for l in range(j + 1, i + 1):
                c = sum(data.a(i, r) for r in range(l, i + 1))
                lhs = lhs + _m(cs, l, i, c)
            rhs = _m(cs, i, i, nu[i] + nu[i + 1])
            for l in range(j + 1, i):
                rhs = rhs + _m(cs, l, i, nu[i + 1])
            record("I45", "i=%d,j=%d" % (i, j), lhs, rhs)
        if i < j:
            lhs = LinForm()
            for l in range(i, j + 1):
                c = sum(data.a(i, r) for r in range(l, j + 1))
                lhs = lhs + _m(cs, l, j, c)
            rhs = _m(cs, i, j, nu[i]) + _m(cs, i + 1, j, -nu[i + 1])
            record("I46", "i=%d,j=%d" % (i, j), lhs, rhs)
        if i <= j:
            lhs = sum(data.a(i, l) for l in range(i, j + 1)) \
                - sum(data.a(i, l) for l in range(i + 1, j + 1))
            record("I47", "i=%d,j=%d" % (i, j),
                   LinForm(None, lhs), LinForm(None, nu[i] + nu[i + 1]))
    return report
