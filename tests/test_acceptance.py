"""Acceptance gate: the ten headline checks, each with its stated exact
tolerance and runtime budget.  Every test prints one pass/fail line."""

import os
import subprocess
import sys
import time

from qsuperalg.superpoly import CoordSystem
from qsuperalg.operators import OpExpr, basis_monomials, first_failure
from qsuperalg.algebra import (build_root_data, build_quantum,
                               build_classical, check_linform_identities)
from qsuperalg.verify import (check_cartan_relations, check_serre, check_aux,
                              check_heisenberg, check_highest_weight)
from qsuperalg.grammar import parse_opexpr, parse_linform


FIVE_RANKS = [(1, 0), (0, 1), (1, 1), (2, 1), (1, 2)]
FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures",
                       "sl21_prop3.txt")


def _report(name, ok, t0, budget):
    elapsed = time.monotonic() - t0
    print("%s criterion %s (%.1fs, budget %ds)"
          % ("PASS" if ok else "FAIL", name, elapsed, budget))
    assert ok, "criterion %s failed" % name
    assert elapsed < budget, "criterion %s exceeded %ds" % (name, budget)


def test_criterion_1_sl21_golden_reproduction():
    t0 = time.monotonic()
    out = subprocess.run(
        [sys.executable, "-m", "qsuperalg.cli", "generators",
         "--M", "1", "--N", "0", "--variant", "prop3"],
        capture_output=True, text=True)
    with open(FIXTURE) as fh:
        golden = fh.read()
    ok = out.returncode == 0 and out.stdout == golden
    _report("1 (sl(2|1) golden reproduction)", ok, t0, 1)


def test_criterion_2_odd_cartan_pairing_degree_6():
    t0 = time.monotonic()
    gens = build_quantum(build_root_data(1, 0))
    lhs = gens.e[2] @ gens.f[2] + gens.f[2] @ gens.e[2]
    rhs = OpExpr.term(gens.cs, (("qnum", gens.t_form[2]),))
    ok = first_failure([(lhs, rhs)], 6) is None
    _report("2 ([e2,f2] pairing at degree 6)", ok, t0, 10)


def test_criterion_3_full_quantum_suites_five_ranks():
    t0 = time.monotonic()
    ok = True
    for M, N in FIVE_RANKS:
        gens = build_quantum(build_root_data(M, N))
        for res in check_cartan_relations(gens, 3) + check_serre(gens, 3):
            ok = ok and res["status"] != "fail"
    _report("3 (defining + Serre suites, five ranks)", ok, t0, 300)


def test_criterion_4_variant_agreement():
    t0 = time.monotonic()
    ok = True
    for M, N in FIVE_RANKS:
        data = build_root_data(M, N)
        g2 = build_quantum(data, variant="prop2")
        g3 = build_quantum(data, variant="prop3")
        for i in range(1, data.K + 1):
            ok = ok and first_failure([(g2.t[i], g3.t[i])], 3) is None
            ok = ok and first_failure([(g2.e[i], g3.e[i])], 3) is None
            ok = ok and first_failure([(g2.f[i], g3.f[i])], 3) is None
    _report("4 (triple-sum and reduced variants agree)", ok, t0, 120)


def test_criterion_5_classical_suites_and_q1_limit():
    t0 = time.monotonic()
    ok = True
    for M, N in FIVE_RANKS:
        gens = build_classical(build_root_data(M, N))
        for res in check_cartan_relations(gens, 3) + check_serre(gens, 3):
            ok = ok and res["status"] != "fail"
    # entrywise q -> 1 limit against the classical build
    for M, N in FIVE_RANKS:
        data = build_root_data(M, N)
        weights = [(-1) ** k * (k + 1) for k in range(data.K)]
        gq = build_quantum(data, weights=weights)
        gc = build_classical(data, weights=weights)
        cs = gq.cs
        for mono in basis_monomials(cs, 3):
            for i in range(1, data.K + 1):
                pairs = [(gq.e[i], gc.e[i]), (gq.f[i], gc.f[i]),
                         (OpExpr.term(cs, (("qnum", gq.t_form[i]),)),
                          gc.t[i])]
                for qop, cop in pairs:
                    left = {m: c.eval_q1()
                            for m, c in qop.apply_monomial(mono).items()}
                    right = {m: c.eval_q1()
                             for m, c in cop.apply_monomial(mono).items()}
                    ok = ok and left == right
    _report("5 (classical suites and q=1 limit)", ok, t0, 120)


def test_criterion_6_auxiliary_root_vector_relations():
    t0 = time.monotonic()
    ok = True
    for M, N in [(1, 0), (1, 1), (2, 1)]:
        data = build_root_data(M, N)
        for res in check_aux(build_quantum(data), 3, nmax=3):
            ok = ok and res["status"] != "fail"
        for res in check_aux(build_classical(data), 3, nmax=3):
            ok = ok and res["status"] != "fail"
    _report("6 (auxiliary root-vector relations)", ok, t0, 180)


def test_criterion_7_linform_identities_rank_8():
    t0 = time.monotonic()
    ok = True
    for M in range(0, 8):
        for N in range(0, 8 - M):
            report = check_linform_identities(build_root_data(M, N))
            ok = ok and not any(e["failures"] for e in report.values())
    _report("7 (linear-form identities up to rank 8)", ok, t0, 10)


def test_criterion_8_heisenberg_identities_rank_4():
    t0 = time.monotonic()
    ok = True
    for M in range(0, 4):
        for N in range(0, 4 - M):
            cs = CoordSystem(M, N)
            for res in check_heisenberg(cs, 5):
                ok = ok and res["status"] == "pass"
    _report("8 (coordinate Heisenberg identities)", ok, t0, 30)


# single-token corruptions of the golden generator listing; every one of
# them must trip at least one relation suite
MUTATIONS = [
    ("-2M(1,1)-M(1,2)", "-M(1,1)-M(1,2)"),            # t1 exponent coeff
    ("q^{M(1,1)+M(1,2)+L(2)}", "q^{M(1,1)-M(1,2)+L(2)}"),  # t2 sign
    ("e1 = D(1,1)", "e1 = D(2,2)"),                   # e1 wrong coordinate
    ("q^{-M(1,1)-M(1,2)} D(2,2)", "q^{M(1,1)-M(1,2)} D(2,2)"),  # e2 prefix
    (" + x(1,1) D(1,2)", ""),                         # e2 dropped term
    ("D(1,2)", "D(2,2)"),                             # e2 wrong derivative
    ("-1 * q^{M(1,2)", "q^{M(1,2)"),                  # f1 dropped sign
    ("-L(1)-2}", "-L(1)-1}"),                         # f1 wrong constant
    ("+M(2,2)+L(1)]", "-M(2,2)+L(1)]"),               # f1 tail sign
    ("q^{L(2)} x(1,2)", "q^{-L(2)} x(1,2)"),          # f2 prefix sign
    ("x(2,2) [L(2)]", "x(2,2) [L(2)+1]"),             # f2 tail shift
    ("x(1,2) D(1,1)", "x(2,2) D(1,1)"),               # f2 wrong coordinate
]


def _gens_from_text(text):
    from qsuperalg.algebra import GeneratorSet
    data = build_root_data(1, 0)
    cs = CoordSystem(1, 0)
    t, e, f, t_form = {}, {}, {}, {}
    for line in text.strip().splitlines():
        name, body = line.split(" = ", 1)
        i = int(name[1:])
        op = parse_opexpr(body, cs)
        if name[0] == "t":
            t[i] = op
            t_form[i] = parse_linform(body[len("q^{"):-1], cs)
        elif name[0] == "e":
            e[i] = op
        else:
            f[i] = op
    return GeneratorSet(data, cs, "prop3", None, t, e, f, t_form)


def test_criterion_9_mutation_sensitivity():
    t0 = time.monotonic()
    with open(FIXTURE) as fh:
        golden = fh.read()
    # sanity: the untouched listing passes everything
    clean = _gens_from_text(golden)
    baseline = check_cartan_relations(clean, 2) + check_serre(clean, 2) \
        + check_highest_weight(clean)
    ok = all(r["status"] != "fail" for r in baseline)
    for old, new in MUTATIONS:
        assert golden.count(old) == 1, "mutation token not unique: %r" % old
        gens = _gens_from_text(golden.replace(old, new))
        results = check_cartan_relations(gens, 2) + check_serre(gens, 2) \
            + check_highest_weight(gens)
        failed = [r for r in results if r["status"] == "fail"]
        ok = ok and failed and all(r["witness"] for r in failed)
    _report("9 (mutation sensitivity, %d mutations)" % len(MUTATIONS),
            bool(ok), t0, 60)


def test_criterion_10_highest_weight_behaviour():
    t0 = time.monotonic()
    ok = True
    for M, N in FIVE_RANKS:
        data = build_root_data(M, N)
        for gens in (build_quantum(data, variant="prop3"),
                     build_quantum(data, variant="prop2"),
                     build_classical(data),
                     build_quantum(data, weights=list(range(1, data.K + 1)))):
            for res in check_highest_weight(gens):
                ok = ok and res["status"] == "pass"
    _report("10 (highest-weight behaviour)", ok, t0, 1)
