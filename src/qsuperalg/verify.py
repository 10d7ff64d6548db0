"""Relation suites: machine verification of every defining and auxiliary
relation on degree-bounded monomial bases.

Every check is exact: a suite passes only when the residual operator
annihilates every basis monomial of total degree up to the bound.  On
failure the first failing monomial (in the canonical graded order) and
the full residual polynomial are recorded as a witness.

A suite's outcome is one record: a dict with the keys ``id``,
``instances``, ``status``, ``witness`` and ``millis``, in that order, as
``--format json`` writes it.  ``status`` is "fail" if an instance fails,
with the first failing monomial as ``witness``; else ``witness`` is None
and ``status`` is "vacuous" for no instances, "pass" otherwise.
``millis`` is the suite's wall time.

A suite's instances are checked one after another
(``operators.first_failure``), each on the basis monomials inside its
support; elsewhere its verdict is that of a monomial it was probed on
before.  The suites read the root vectors from the set's one table
(``gens.roots``), whose X(l,m) is built on the very X(l,m-1) node, so
these shared nodes are the same objects in every suite.

Each relation family is stated once, for both variants, through the
set's own pieces (see ``algebra.GeneratorSet``): the bracket twist, t_i^s
(``t_pow``), t_i q^k (``t_shift``) and [t_form[i]] (``cartan``), which
at q -> 1 are the plain bracket, 1, h_i + k and h_i.  Only the suite
tags, AuxQ41's power law and HighestWeight's label t or h tell the two
variants apart.  Classically t_i^s is the identity, so AuxQ39's rhs
nu_i X t_i, X = X(j,i-1), is nu_i times the node X nested once, and
AuxQ40's likewise.

The weight relations t_i x = q^k x t_i are stated as t_i x against
x t_i q^k, the factor q^{t_form[i] + k}; classically [h_i, x] = k x is
h_i x = x (h_i + k), with h_i + k one elementary factor, and lhs - rhs is
the same operator [h_i, x] - k x, so every verdict and witness is that of
the bracket form.  t_i x t_i^-1 = q^k x (Q21, Q22) is the weight relation
of x t_i^-1, which is x classically: t_i (x t_i^-1) against (x t_i^-1)
q^{t_form[i] + k}.  On a monomial m that rhs multiplies by
q^{l(m)+k} q^{-l(m)} = q^k, l = t_form[i], before x acts, so it is the
operator q^k x: lhs - rhs is t_i x t_i^-1 - q^k x, and every verdict and
witness is that of the rhs q^k x.  Such a pair and Heis 53 and 54 are
decided by grading when x is homogeneous of grade k (see ``operators``):
they then hold at every degree, not only up to the bound.  Every
generator and root vector is homogeneous, so on a built set Q20, Q21, Q22
and WeightConj (C1, C2, C3 and WeightConj classically) hold at all
degrees, and so do Heis 53 and 54.  A pair whose two sides are one sum
of terms, such as AuxQ41 at n = 1 below, is not probed either.

The differential order bound (see ``operators``) decides the rest of the
classical suites from low degrees.  Every classical e_i, f_i, h_i and
root vector has order 1, and so does every bracket of them, so C4,
CSerreA, CSerreOdd, AuxC16, AuxC17 and AuxC19 are probed at degree <= 1
and, when they pass, hold at every degree; OddNil (e_{M+1}^2 and
f_{M+1}^2, order 2) is probed at degree <= 2.  Heis 55 and 56 are built
by ``graded_commutator``, which bounds a bracket: Heis 56, [D, th] = 1 on
an odd coordinate, has order 1 + 0 - 1 = 0 and is probed on the monomial
1 alone; Heis 55, [D, z] = [M+1] - [M] on an even coordinate, holds the
q-difference D and is probed up to ``degree``; both in both variants.  A
failing suite keeps the witness of the probe up to ``degree``.  Every
quantum generator holds a q-difference, which has no finite order, so
every quantum pair but Heis 56 is probed up to ``degree``.

AuxQ41 (AuxC18 classically) at n = 1 is the table's own bracket: with
X = X(j,i-1), [f_i, X]_{q^{-nu_i}} (plain classically) against X(j,i),
two sides with equal terms, so it holds by construction.  f_i and X are
never both odd (f_i is odd only at i = M+1, and X(j,M) is even), so it is
f_i X = q^{-nu_i} X f_i + [1] X(j,i).  For an even X the quantum power
law f_i X^n = q^{-n nu_i} X^n f_i + [n] X^{n-1} X(j,i) goes on for
n = 2..nmax, its rhs stated as X^{n-1} W, W = q^{-n nu_i} X f_i
+ [n] X(j,i) nested once.  Scalars are central, so X^{n-1} (a X f_i
+ [n] Y) = a X^n f_i + [n] X^{n-1} Y: the same operator, for parsed and
mutated sets too.  The n - 1 copies of X then act once on W's merged
image, not once per term.

HighestWeight is the same loop at degree 0: its instances e_i = 0 and
t_i = q^{lambda_i} (h_i = lambda_i classically) are probed on the degree-0
basis, which is exactly {1}.  lambda_i is ``algebra.weight_form``, Qi or
w_i, read as a q-power or, classically, as itself.
"""

import json
import time

from .scalars import RingElem, qpow, qnum, lin
from . import superpoly as sp
from .operators import LinForm, OpExpr, graded_commutator, first_failure
from .algebra import build_root_data, build_generators, weight_form


class VerificationReport:
    """The suites' records of one run, in the order they ran."""

    def __init__(self, M, N, mode, variant, degree, nmax):
        self.M, self.N, self.mode, self.variant = M, N, mode, variant
        self.degree, self.nmax = degree, nmax
        self.suites = []

    @property
    def ok(self):
        return all(s["status"] != "fail" for s in self.suites)

    def to_dict(self):
        return {
            "algebra": {"M": self.M, "N": self.N},
            "mode": self.mode,
            "variant": self.variant,
            "degree": self.degree,
            "nmax": self.nmax,
            "suites": [dict(s) for s in self.suites],
            "pass": self.ok,
        }

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2) + "\n"

    def to_text(self):
        lines = ["relation suites for (M,N)=(%d,%d) variant=%s mode=%s degree=%d"
                 % (self.M, self.N, self.variant, self.mode, self.degree)]
        for s in self.suites:
            lines.append("  %-12s %-8s instances=%-4d %dms" % (
                s["id"], s["status"].upper(), s["instances"], s["millis"]))
            if s["witness"]:
                lines.append("    witness: " + s["witness"])
        lines.append("overall: " + ("PASS" if self.ok else "FAIL"))
        return "\n".join(lines) + "\n"


# classical suite of each quantum relation family: eqs. 20-23 -> 1-4 and
# 39-42 -> 16-19 of the paper
_CLASSICAL_TAG = {"Q20": "C1", "Q21": "C2", "Q22": "C3", "Q23": "C4",
                  "QSerreA": "CSerreA", "QSerreOdd": "CSerreOdd",
                  "AuxQ39": "AuxC16", "AuxQ40": "AuxC17",
                  "AuxQ41": "AuxC18", "AuxQ42": "AuxC19"}


def _tag(gens, quantum_tag):
    return quantum_tag if gens.quantum else _CLASSICAL_TAG[quantum_tag]


def _weight(gens, i, x, k):
    """(lhs, rhs) of t_i x = q^k x t_i, stated as t_i x against x t_i q^k
    (h_i x = x (h_i + k) classically; see the module docstring)."""
    return gens.t[i] @ x, x @ gens.t_shift(i, k)


def _run(tag, degree, instances):
    """Check each (label, lhs, rhs) instance of one relation family.

    Every instance is counted, and the instances are checked in order.
    The witness is the first failing monomial of the first failing
    instance.  Returns the suite's record (see the module docstring).
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
    return {"id": tag, "instances": len(instances), "status": status,
            "witness": witness, "millis": int((time.monotonic() - t0) * 1000)}


# ---------------------------------------------------------------------------
# Cartan / commutation relations
# ---------------------------------------------------------------------------

def check_cartan_relations(gens, degree):
    data, cs = gens.data, gens.cs
    pairs = [(i, j) for i in range(1, data.K + 1)
             for j in range(1, data.K + 1)]
    results = [_run(_tag(gens, "Q20"), degree, (
        ("i=%d,j=%d" % (i, j), *_weight(gens, i, gens.t[j], 0))
        for i, j in pairs if i < j))]
    # t_i x t_i^-1 = q^k x as the weight relation of x t_i^-1
    for tag, fam, sgn in (("Q21", gens.e, 1), ("Q22", gens.f, -1)):
        results.append(_run(_tag(gens, tag), degree, (
            ("i=%d,j=%d" % (i, j), *_weight(
                gens, i, fam[j] @ gens.t_pow(i, -1), sgn * data.a(i, j)))
            for i, j in pairs)))
    results.append(_run(_tag(gens, "Q23"), degree, (
        ("i=%d,j=%d" % (i, j), graded_commutator(gens.e[i], gens.f[j]),
         gens.cartan(i) if i == j else OpExpr.zero(cs))
        for i, j in pairs)))
    return results


# ---------------------------------------------------------------------------
# Serre relations
# ---------------------------------------------------------------------------

def check_serre(gens, degree):
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
                    inner = graded_commutator(fam[j], fam[i], gens.twist(-1))
                    yield ("%s:j=%d,i=%d" % (name, j, i),
                           graded_commutator(fam[j], inner, gens.twist(1)),
                           OpExpr.zero(cs))

    def serre_odd():
        if data.M < 1 or data.N < 1:
            return
        for fam, name in fams:
            inner = graded_commutator(fam[odd], fam[odd - 1], gens.twist(-1))
            mid = graded_commutator(fam[odd + 1], inner, gens.twist(1))
            yield name, graded_commutator(fam[odd], mid), OpExpr.zero(cs)

    return [_run(_tag(gens, "QSerreA"), degree, serre_a()),
            _run(_tag(gens, "QSerreOdd"), degree, serre_odd()),
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
    data, cs = gens.data, gens.cs
    K = data.K
    nu = data.nu
    X = gens.roots
    below = [(i, j) for j in range(1, K + 1) for i in range(j + 1, K + 1)]

    def aux39():
        for i, j in below:
            rhs = X[(j, i - 1)] @ gens.t_pow(i, 1)
            yield ("i=%d,j=%d" % (i, j),
                   graded_commutator(gens.e[i], X[(j, i)]),
                   rhs.scale(RingElem.from_rational(nu[i])))

    def aux40():
        for i in range(1, K + 1):
            for j in range(i + 1, K + 1):
                rhs = gens.t_pow(i, -1) @ X[(i + 1, j)]
                yield ("i=%d,j=%d" % (i, j),
                       graded_commutator(gens.e[i], X[(i, j)]),
                       rhs.scale(RingElem.from_rational(-nu[i + 1])))

    def aux41():
        # n = 1 is the table's own bracket (see the module docstring)
        one = OpExpr.identity(cs)
        for i, j in below:
            base = X[(j, i - 1)]
            yield ("i=%d,j=%d" % (i, j) + (",n=1" if gens.quantum else ""),
                   graded_commutator(gens.f[i], base, gens.twist(-nu[i])),
                   X[(j, i)])
            # powers of an odd root vector vanish, so the power law is only
            # meaningful for even ones; classically there is none
            if not gens.quantum or base.parity():
                continue
            # X^n is the flat chain (X, ..., X) of n copies of the node, and
            # the rhs X^(n-1) W shares it (see the module docstring)
            xn = base
            for n in range(2, nmax + 1):
                prev, xn = xn, xn @ base
                w = (base @ gens.f[i]).scale(qpow(-n * nu[i])) \
                    + (one @ X[(j, i)]).scale(qnum(n))
                yield ("i=%d,j=%d,n=%d" % (i, j, n), gens.f[i] @ xn,
                       prev @ w)

    def aux42():
        for i, j in below:
            yield ("f_i:i=%d,j=%d" % (i, j),
                   graded_commutator(gens.f[i], X[(j, i)],
                                     gens.twist(nu[i + 1])),
                   OpExpr.zero(cs))
            yield ("f_j:i=%d,j=%d" % (i, j),
                   graded_commutator(gens.f[j], X[(j, i)], gens.twist(-nu[j])),
                   OpExpr.zero(cs))
            for k in range(j + 1, i):
                yield ("f_k:i=%d,j=%d,k=%d" % (i, j, k),
                       graded_commutator(gens.f[k], X[(j, i)]),
                       OpExpr.zero(cs))

    return [_run(_tag(gens, "AuxQ39"), degree, aux39()),
            _run(_tag(gens, "AuxQ40"), degree, aux40()),
            _run(_tag(gens, "AuxQ41"), degree, aux41()),
            _run(_tag(gens, "AuxQ42"), degree, aux42())]


# ---------------------------------------------------------------------------
# weight conjugation of root vectors
# ---------------------------------------------------------------------------

def check_weight_conjugation(gens, degree):
    data = gens.data
    K = data.K
    X = gens.roots

    def instances():
        for i in range(1, K + 1):
            for l in range(1, K + 1):
                for m in range(l, K + 1):
                    yield ("i=%d,l=%d,m=%d" % (i, l, m),
                           *_weight(gens, i, X[(l, m)], -data.a_sum(i, l, m)))

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
            # [D, th] = 1 on an odd coordinate, [D, z] = [M+1] - [M]
            tag, rhs = (("56", OpExpr.identity(cs)) if cs.odd[pos]
                        else ("55", num_p1 - num))
            yield tag + label, graded_commutator(dop, xop), rhs

    return [_run("Heis", degree, instances())]


# ---------------------------------------------------------------------------
# highest-weight behaviour of the realization
# ---------------------------------------------------------------------------

def check_highest_weight(gens):
    """e_i 1 = 0 and t_i 1 = q^{lambda_i} (h_i 1 = lambda_i classically),
    probed on the degree-0 basis {1}."""
    cs, K = gens.cs, gens.data.K
    name, value = ("t", qpow) if gens.quantum else ("h", lin)

    def instances():
        for i in range(1, K + 1):
            yield "e_%d" % i, gens.e[i], OpExpr.zero(cs)
        for i in range(1, K + 1):
            form = weight_form(i, gens.weights)
            yield ("%s_%d" % (name, i), gens.t[i],
                   OpExpr.identity(cs).scale(value(form.const, form.lam)))

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
