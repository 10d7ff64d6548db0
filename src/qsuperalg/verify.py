"""Relation suites: machine verification of every defining and auxiliary
relation on degree-bounded monomial bases.

Every check is exact: a suite passes only when the residual operator
annihilates every basis monomial of total degree up to the bound.  On
failure the first failing monomial (in the canonical graded order) and
the full residual polynomial are recorded as a witness.

A suite's instances are checked one after another
(``operators.first_failure``), each on the basis monomials inside its
support; elsewhere its verdict is that of a monomial it was probed on
before.  The suites read the root vectors from the set's one table
(``gens.roots``), whose X(l,m) is built on the very X(l,m-1) node, so
these shared nodes are the same objects in every suite.

The classical weight relations C1, C2, C3 and WeightConj, [h_i, x] = k x,
are stated as h_i x = x (h_i + k), the q -> 1 form of t_i x = q^k x t_i,
with h_i + k one elementary factor; lhs - rhs is the same operator
[h_i, x] - k x, so every verdict and witness is that of the bracket form.
A pair whose two sides are one sum of terms, such as classical AuxC18's
[f_i, X(j,i-1)] against the table's X(j,i), is not probed.

HighestWeight is the same loop at degree 0: its instances e_i = 0 and
t_i = q^{lambda_i} (h_i = lambda_i classically) are probed on the degree-0
basis, which is exactly {1}.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

from .scalars import RingElem, qpow, qnum
from . import superpoly as sp
from .operators import LinForm, OpExpr, graded_commutator, first_failure
from .algebra import build_root_data, build_generators


@dataclass
class SuiteResult:
    id: str
    instances: int
    status: str                 # "pass" | "fail" | "vacuous"
    witness: str | None = None
    millis: int = 0

    def to_dict(self, timings=True):
        d = {"id": self.id, "instances": self.instances,
             "status": self.status, "witness": self.witness}
        if timings:
            d["millis"] = self.millis
        return d


@dataclass
class VerificationReport:
    M: int
    N: int
    mode: str
    variant: str
    degree: int
    nmax: int
    suites: list = field(default_factory=list)

    @property
    def ok(self):
        return all(s.status != "fail" for s in self.suites)

    def to_dict(self, timings=True):
        return {
            "algebra": {"M": self.M, "N": self.N},
            "mode": self.mode,
            "variant": self.variant,
            "degree": self.degree,
            "nmax": self.nmax,
            "suites": [s.to_dict(timings) for s in self.suites],
            "pass": self.ok,
        }

    def to_json(self, timings=True):
        return json.dumps(self.to_dict(timings), indent=2) + "\n"

    def to_text(self):
        lines = ["relation suites for (M,N)=(%d,%d) variant=%s mode=%s degree=%d"
                 % (self.M, self.N, self.variant, self.mode, self.degree)]
        for s in self.suites:
            line = "  %-12s %-8s instances=%-4d %dms" % (
                s.id, s.status.upper(), s.instances, s.millis)
            lines.append(line)
            if s.witness:
                lines.append("    witness: " + s.witness)
        lines.append("overall: " + ("PASS" if self.ok else "FAIL"))
        return "\n".join(lines) + "\n"


# classical suite of each quantum relation family: eqs. 20-23 -> 1-4 and
# 39-42 -> 16-19 of the paper
_CLASSICAL_TAG = {"Q20": "C1", "Q21": "C2", "Q22": "C3", "Q23": "C4",
                  "QSerreA": "CSerreA", "QSerreOdd": "CSerreOdd",
                  "AuxQ39": "AuxC16", "AuxQ40": "AuxC17",
                  "AuxQ41": "AuxC18", "AuxQ42": "AuxC19"}


class _Deformation:
    """The pieces in which a quantum relation differs from its q -> 1 form.

    Each relation family is stated once against this object: a bracket
    twist q^k becomes the plain bracket, an eigenvalue q^k becomes k, the
    weight relations t_i x = q^k x t_i (and t_i x t_i^-1 = q^k x) become
    h_i x = x (h_i + k), and bare t_i factors drop out.  h_i + k is the
    one elementary factor {t_form[i] + k}, since h_i is multiplication by
    t_form[i]; lhs - rhs is [h_i, x] - k x, the bracket form, as an
    operator.
    """

    def __init__(self, gens):
        self.gens = gens
        self.quantum = gens.quantum

    def tag(self, quantum_tag):
        return quantum_tag if self.quantum else _CLASSICAL_TAG[quantum_tag]

    def xi(self, k):
        """Bracket twist q^k; None (the plain bracket) classically."""
        return qpow(k) if self.quantum else None

    def eig(self, k):
        """Eigenvalue factor q^k; the rational k classically."""
        return qpow(k) if self.quantum else RingElem.from_rational(k)

    def conj(self, i, x, k):
        """(lhs, rhs) of t_i x t_i^-1 = q^k x; classically the weight
        relation h_i x = x (h_i + k), whose lhs - rhs is [h_i, x] - k x."""
        if self.quantum:
            return self.gens.t[i] @ x @ self.gens.t_inv(i), x.scale(qpow(k))
        return self.weight(i, x, k)

    def weight(self, i, x, k):
        """(lhs, rhs) of t_i x = q^k x t_i; of h_i x = x (h_i + k)
        classically, whose lhs - rhs is [h_i, x] - k x."""
        t = self.gens.t[i]
        if self.quantum:
            return t @ x, (x @ t).scale(qpow(k))
        shifted = (("lin", self.gens.t_form[i].shift(k)),)
        return t @ x, x @ OpExpr.term(self.gens.cs, shifted)

    def t_right(self, x, i):
        """x t_i; x classically."""
        return x.compose(self.gens.t[i]) if self.quantum else x

    def t_inv_left(self, i, x):
        """t_i^-1 x; x classically."""
        return self.gens.t_inv(i).compose(x) if self.quantum else x

    def cartan(self, i):
        """[e_i, f_i] = [t-exponent of t_i] as a q-number; h_i classically."""
        if self.quantum:
            return OpExpr.term(self.gens.cs, (("qnum", self.gens.t_form[i]),))
        return self.gens.t[i]


def _run(tag, degree, instances):
    """Check each (label, lhs, rhs) instance of one relation family.

    Every instance is counted, and the instances are checked in order.
    The witness is the first failing monomial of the first failing
    instance.
    """
    t0 = time.monotonic()
    instances = list(instances)
    found = first_failure([(lhs, rhs) for _, lhs, rhs in instances], degree)
    status, witness = ("pass" if instances else "vacuous"), None
    if found is not None:
        k, mono, residual = found
        label, lhs, _ = instances[k]
        status = "fail"
        witness = "%s at monomial %s: residual %s" % (
            label, sp.mono_render(lhs.cs, mono),
            sp.poly_render(lhs.cs, residual))
    millis = int((time.monotonic() - t0) * 1000)
    return SuiteResult(tag, len(instances), status, witness, millis)


# ---------------------------------------------------------------------------
# Cartan / commutation relations
# ---------------------------------------------------------------------------

def check_cartan_relations(gens, degree):
    d = _Deformation(gens)
    data, cs = gens.data, gens.cs
    pairs = [(i, j) for i in range(1, data.K + 1)
             for j in range(1, data.K + 1)]
    results = [_run(d.tag("Q20"), degree, (
        ("i=%d,j=%d" % (i, j), *d.weight(i, gens.t[j], 0))
        for i, j in pairs if i < j))]
    for tag, fam, sgn in (("Q21", gens.e, 1), ("Q22", gens.f, -1)):
        results.append(_run(d.tag(tag), degree, (
            ("i=%d,j=%d" % (i, j), *d.conj(i, fam[j], sgn * data.a(i, j)))
            for i, j in pairs)))
    results.append(_run(d.tag("Q23"), degree, (
        ("i=%d,j=%d" % (i, j), graded_commutator(gens.e[i], gens.f[j]),
         d.cartan(i) if i == j else OpExpr.zero(cs))
        for i, j in pairs)))
    return results


# ---------------------------------------------------------------------------
# Serre relations
# ---------------------------------------------------------------------------

def check_serre(gens, degree):
    d = _Deformation(gens)
    data, cs = gens.data, gens.cs
    K = data.K
    odd = data.M + 1
    fams = ((gens.e, "e"), (gens.f, "f"))

    def serre_a():
        for fam, name in fams:
            for j in range(1, K + 1):
                if j == odd:
                    continue
                for i in range(1, K + 1):
                    if i == j or abs(data.a(i, j)) != 1:
                        continue
                    inner = graded_commutator(fam[j], fam[i], d.xi(-1))
                    yield ("%s:j=%d,i=%d" % (name, j, i),
                           graded_commutator(fam[j], inner, d.xi(1)),
                           OpExpr.zero(cs))

    def serre_odd():
        if data.M < 1 or data.N < 1:
            return
        for fam, name in fams:
            inner = graded_commutator(fam[odd], fam[odd - 1], d.xi(-1))
            mid = graded_commutator(fam[odd + 1], inner, d.xi(1))
            yield name, graded_commutator(fam[odd], mid), OpExpr.zero(cs)

    return [_run(d.tag("QSerreA"), degree, serre_a()),
            _run(d.tag("QSerreOdd"), degree, serre_odd()),
            # nilpotency of the odd generators; implicit in the Z2 grading
            # and reported apart so a failure cannot pass for a Serre one
            _run("OddNil", degree,
                 ((name + "^2", fam[odd] @ fam[odd], OpExpr.zero(cs))
                  for fam, name in fams))]


# ---------------------------------------------------------------------------
# auxiliary root-vector relations
# ---------------------------------------------------------------------------

def check_aux(gens, degree, nmax):
    if nmax < 1:
        raise ValueError("nmax must be >= 1")
    d = _Deformation(gens)
    data, cs = gens.data, gens.cs
    K = data.K
    nu = data.nu
    X = gens.roots
    below = [(i, j) for j in range(1, K + 1) for i in range(j + 1, K + 1)]

    def aux39():
        for i, j in below:
            rhs = d.t_right(X[(j, i - 1)], i)
            yield ("i=%d,j=%d" % (i, j),
                   graded_commutator(gens.e[i], X[(j, i)]),
                   rhs.scale(RingElem.from_rational(nu[i])))

    def aux40():
        for i in range(1, K + 1):
            for j in range(i + 1, K + 1):
                rhs = d.t_inv_left(i, X[(i + 1, j)])
                yield ("i=%d,j=%d" % (i, j),
                       graded_commutator(gens.e[i], X[(i, j)]),
                       rhs.scale(RingElem.from_rational(-nu[i + 1])))

    def aux41():
        # the quantum relation is a power law in X(j,i-1); its classical
        # form is the single bracket that defines X(j,i)
        for i, j in below:
            base = X[(j, i - 1)]
            if not d.quantum:
                yield ("i=%d,j=%d" % (i, j),
                       graded_commutator(gens.f[i], base), X[(j, i)])
                continue
            # powers of an odd root vector vanish, so the power law
            # is only meaningful for even ones beyond n = 1
            top = nmax if base.parity() == 0 else 1
            # X^n is the flat chain (X, ..., X) of n copies of the node
            xn = OpExpr.identity(cs)
            for n in range(1, top + 1):
                prev, xn = xn, xn @ base
                lhs = gens.f[i] @ xn
                rhs = xn.compose(gens.f[i]).scale(qpow(-n * nu[i])) \
                    + prev.compose(X[(j, i)]).scale(qnum(n))
                yield "i=%d,j=%d,n=%d" % (i, j, n), lhs, rhs

    def aux42():
        for i, j in below:
            yield ("f_i:i=%d,j=%d" % (i, j),
                   graded_commutator(gens.f[i], X[(j, i)], d.xi(nu[i + 1])),
                   OpExpr.zero(cs))
            yield ("f_j:i=%d,j=%d" % (i, j),
                   graded_commutator(gens.f[j], X[(j, i)], d.xi(-nu[j])),
                   OpExpr.zero(cs))
            for k in range(j + 1, i):
                yield ("f_k:i=%d,j=%d,k=%d" % (i, j, k),
                       graded_commutator(gens.f[k], X[(j, i)]),
                       OpExpr.zero(cs))

    return [_run(d.tag("AuxQ39"), degree, aux39()),
            _run(d.tag("AuxQ40"), degree, aux40()),
            _run(d.tag("AuxQ41"), degree, aux41()),
            _run(d.tag("AuxQ42"), degree, aux42())]


# ---------------------------------------------------------------------------
# weight conjugation of root vectors
# ---------------------------------------------------------------------------

def check_weight_conjugation(gens, degree):
    d = _Deformation(gens)
    data = gens.data
    K = data.K
    X = gens.roots

    def instances():
        for i in range(1, K + 1):
            for l in range(1, K + 1):
                for m in range(l, K + 1):
                    yield ("i=%d,l=%d,m=%d" % (i, l, m),
                           *d.weight(i, X[(l, m)], -data.a_sum(i, l, m)))

    return [_run("WeightConj", degree, instances())]


# ---------------------------------------------------------------------------
# coordinate-level helper identities ([M]x = x[M+1], ...)
# ---------------------------------------------------------------------------

def check_heisenberg(cs, degree):
    def instances():
        for pos, (l, m) in enumerate(cs.coords):
            label = "(%d,%d)" % (l, m)
            mf = LinForm({pos: 1})
            num = OpExpr.term(cs, (("qnum", mf),))
            num_p1 = OpExpr.term(cs, (("qnum", mf.shift(1)),))
            num_m1 = OpExpr.term(cs, (("qnum", mf.shift(-1)),))
            xop = OpExpr.term(cs, (("x", pos),))
            dop = OpExpr.term(cs, (("D", pos),))
            yield "53" + label, num @ xop, xop @ num_p1
            yield "54" + label, num @ dop, dop @ num_m1
            if cs.odd[pos]:
                yield ("56" + label, dop @ xop + xop @ dop,
                       OpExpr.identity(cs))
            else:
                yield "55" + label, dop @ xop - xop @ dop, num_p1 - num

    return [_run("Heis", degree, instances())]


# ---------------------------------------------------------------------------
# highest-weight behaviour of the realization
# ---------------------------------------------------------------------------

def check_highest_weight(gens):
    """e_i 1 = 0 and t_i 1 = q^{lambda_i} (h_i 1 = lambda_i classically),
    probed on the degree-0 basis {1}."""
    d = _Deformation(gens)
    cs, K = gens.cs, gens.data.K
    name = "t" if d.quantum else "h"

    def instances():
        for i in range(1, K + 1):
            yield "e_%d" % i, gens.e[i], OpExpr.zero(cs)
        for i in range(1, K + 1):
            if gens.weights is None:
                # the marker Qi: q^{lambda_i}, or lambda_i classically
                expect = RingElem.monomial(0, ((i, 1),))
            else:
                expect = d.eig(gens.weights[i - 1])
            yield ("%s_%d" % (name, i), gens.t[i],
                   OpExpr.identity(cs).scale(expect))

    return [_run("HighestWeight", 0, instances())]


# ---------------------------------------------------------------------------
# full run
# ---------------------------------------------------------------------------

def run_full(M, N, degree=3, nmax=2, variant="prop3", weights=None):
    """Build the algebra and run every applicable suite.

    ``weights`` is None for symbolic weights (the markers Q_i), or a list
    of M+N+1 integers; the report's mode reads "symbolic" or "integer".
    """
    if degree < 0:
        raise ValueError("degree must be non-negative")
    if nmax < 1:
        raise ValueError("nmax must be >= 1")
    gens = build_generators(build_root_data(M, N), weights, variant)
    mode = "symbolic" if weights is None else "integer"
    report = VerificationReport(M, N, mode, variant, degree, nmax)
    report.suites += check_cartan_relations(gens, degree)
    report.suites += check_serre(gens, degree)
    report.suites += check_aux(gens, degree, nmax)
    report.suites += check_weight_conjugation(gens, degree)
    report.suites += check_heisenberg(gens.cs, degree)
    report.suites += check_highest_weight(gens)
    return report
