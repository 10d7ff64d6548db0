"""Tests for the relation-suite runner and its reports."""

import json
from math import inf

import pytest

from qsuperalg import operators, scalars, verify
from qsuperalg.scalars import RingElem, qpow
from qsuperalg.superpoly import CoordSystem, mono_render, poly_render
from qsuperalg.operators import OpExpr, graded_commutator, first_failure
from qsuperalg.grammar import parse_opexpr
from qsuperalg.algebra import (GeneratorSet, build_root_data, build_quantum,
                               build_classical)
from qsuperalg.verify import (run_full, check_cartan_relations,
                              check_aux, check_weight_conjugation,
                              check_heisenberg, check_highest_weight)
from test_golden_reports import timing_free


QUANTUM_SUITES = {"Q20", "Q21", "Q22", "Q23", "QSerreA", "QSerreOdd",
                  "OddNil", "AuxQ39", "AuxQ40", "AuxQ41", "AuxQ42",
                  "WeightConj", "Heis", "HighestWeight"}
CLASSICAL_SUITES = {"C1", "C2", "C3", "C4", "CSerreA", "CSerreOdd", "OddNil",
                    "AuxC16", "AuxC17", "AuxC18", "AuxC19",
                    "WeightConj", "Heis", "HighestWeight"}


def test_full_run_sl21_passes():
    report = run_full(1, 0, degree=3, nmax=2)
    assert report.ok
    assert {s["id"] for s in report.suites} == QUANTUM_SUITES
    for s in report.suites:
        assert s["status"] in ("pass", "vacuous")
        assert s["witness"] is None


def test_full_run_classical_passes():
    report = run_full(1, 0, degree=3, nmax=2, variant="classical")
    assert report.ok
    assert {s["id"] for s in report.suites} == CLASSICAL_SUITES


def test_odd_serre_vacuous_without_both_blocks():
    report = run_full(1, 0, degree=2)
    by_id = {s["id"]: s for s in report.suites}
    assert by_id["QSerreOdd"]["status"] == "vacuous"
    report = run_full(1, 1, degree=2)
    by_id = {s["id"]: s for s in report.suites}
    assert by_id["QSerreOdd"]["status"] == "pass"
    assert by_id["QSerreOdd"]["instances"] == 2


def test_sl11_degenerate_rank():
    # M = N = 0: a single odd generator, no Serre pairs at all
    report = run_full(0, 0, degree=3)
    assert report.ok
    by_id = {s["id"]: s for s in report.suites}
    assert by_id["QSerreA"]["status"] == "vacuous"
    assert by_id["QSerreOdd"]["status"] == "vacuous"
    assert by_id["OddNil"]["status"] == "pass"


def test_integer_weight_runs():
    report = run_full(1, 0, degree=3, weights=[2, -1])
    assert report.ok and report.mode == "integer"
    report = run_full(1, 1, degree=2, weights=[0, 1, -2],
                      variant="classical")
    assert report.ok and report.mode == "integer"
    assert run_full(1, 0, degree=1).mode == "symbolic"


def test_run_full_argument_validation():
    with pytest.raises(ValueError, match="weights must be None or 2 ints"):
        run_full(1, 0, weights=[1])                   # wrong length
    with pytest.raises(TypeError):
        run_full(1, 0, mode="integer", weights=[2, -1])
    with pytest.raises(ValueError):
        run_full(1, 0, degree=-1)


def test_report_json_shape():
    report = run_full(0, 1, degree=2)
    payload = json.loads(report.to_json())
    assert payload["algebra"] == {"M": 0, "N": 1}
    assert payload["pass"] is True
    assert payload["variant"] == "prop3"
    # the records themselves, in the order the golden fixtures pin
    assert payload["suites"] == report.suites
    for suite in payload["suites"]:
        assert list(suite) == ["id", "instances", "status", "witness",
                               "millis"]
        assert suite["status"] in ("pass", "fail", "vacuous")


def test_report_deterministic_modulo_timings():
    a = timing_free(run_full(1, 0, degree=2))
    b = timing_free(run_full(1, 0, degree=2))
    assert a == b


def test_editing_to_dict_leaves_the_report_unchanged():
    report = run_full(1, 0, degree=1)
    before = report.to_json()
    payload = report.to_dict()
    payload["suites"][0]["status"] = "fail"
    del payload["suites"][1]["millis"]
    payload["suites"].clear()
    assert report.to_json() == before


def test_report_text_format():
    report = run_full(1, 0, degree=2)
    text = report.to_text()
    assert text.splitlines()[-1] == "overall: PASS"
    assert "Q23" in text and "HighestWeight" in text


def test_mutated_generator_fails_with_witness():
    data = build_root_data(1, 0)
    gens = build_quantum(data)
    # corrupt e1 by a stray q-power: Q23 must notice and say where
    gens.e[1] = gens.e[1].scale(qpow(1))
    results = check_cartan_relations(gens, 2)
    failed = [r for r in results if r["status"] == "fail"]
    assert failed
    assert all(r["witness"] and "residual" in r["witness"] for r in failed)


def _one_instance_after_another(instances, degree):
    """The witness of a suite whose instances are checked one by one."""
    for label, lhs, rhs in instances:
        found = first_failure([(lhs, rhs)], degree)
        if found is not None:
            mono, residual = found[1:]
            return "%s at monomial %s: residual %s" % (
                label, mono_render(lhs.cs, mono),
                poly_render(lhs.cs, residual))
    return None


def _passes_d2_one():
    """A suite whose second instance fails and whose third instance,
    with sides of its own, would fail at an earlier monomial."""
    cs = CoordSystem(1, 0)                  # z(1,1), th(1,2), th(2,2)
    d = OpExpr.term(cs, (("D", 0),))
    x = OpExpr.term(cs, (("x", 0),))
    return [
        ("passes", x, x),
        ("D^2", d @ d, OpExpr.zero(cs)),    # fails only at z(1,1)^2
        ("1", OpExpr.identity(cs), OpExpr.zero(cs)),  # fails at monomial 1
    ]


def test_the_first_failing_instance_is_the_witness():
    instances = _passes_d2_one()
    want = _one_instance_after_another(instances, 2)
    assert want.startswith("D^2 at monomial z(1,1)^2: residual ")
    result = verify._run("T", 2, iter(instances))
    assert (result["status"], result["instances"]) == ("fail", 3)
    assert result["witness"] == want


def test_instances_after_the_failing_one_are_not_applied(monkeypatch):
    instances = _passes_d2_one()
    applied = []
    apply = OpExpr.apply_monomial

    def recorded(self, mono):
        applied.append(self)
        return apply(self, mono)
    monkeypatch.setattr(OpExpr, "apply_monomial", recorded)
    result = verify._run("T", 2, instances)
    assert result["witness"].startswith("D^2 at monomial z(1,1)^2: ")
    _, lhs, rhs = instances[2]
    assert not any(op is lhs or op is rhs for op in applied)


def _counted(monkeypatch, name):
    """Count the calls of the private scalars function ``name``."""
    calls = [0]
    fn = getattr(scalars, name)

    def counted(*args):
        calls[0] += 1
        return fn(*args)
    monkeypatch.setattr(scalars, name, counted)
    return calls


def test_cancellation_work_is_pinned(monkeypatch):
    # the (q^2 - 1) divisions do not depend on how products are formed,
    # and a classical run, every scalar over k = 0, scans no flag at all
    divisions = _counted(monkeypatch, "_div_qsq1")
    assert run_full(1, 1, degree=3, nmax=3).ok
    assert divisions[0] == 850
    scans = _counted(monkeypatch, "_flags")
    assert run_full(1, 1, degree=3, nmax=3, variant="classical").ok
    assert scans[0] == 0


def test_flag_scans_are_pinned(monkeypatch):
    """(q^2 - 1) scans on run_full(2, 1, 2, 3, "prop3"): a product of a
    unit, one term, and a factor (q^2 - 1) does not divide is not
    scanned.  Scanning every product with k > 0 took 18,307 scans; now
    14,383, with the same 5,140 divisions.  q-numbers are cached, so the
    cache is emptied first: the count is that of a fresh process."""
    scalars.qnum.cache_clear()
    divisions = _counted(monkeypatch, "_div_qsq1")
    scans = _counted(monkeypatch, "_flags")
    assert run_full(2, 1, degree=2, nmax=3, variant="prop3").ok
    assert (scans[0], divisions[0]) == (14383, 5140)


def test_suite_timings_are_recorded():
    report = run_full(1, 0, degree=2)
    assert all(s["millis"] >= 0 for s in report.suites)


def test_weight_conjugation_and_heisenberg_standalone():
    gens = build_quantum(build_root_data(0, 1))
    assert all(r["status"] == "pass"
               for r in check_weight_conjugation(gens, 3))
    assert all(r["status"] == "pass"
               for r in check_heisenberg(gens.cs, 4))
    assert all(r["status"] == "pass" for r in check_highest_weight(gens))


def test_highest_weight_witness_uses_the_common_format():
    def witness(gens):
        (result,) = check_highest_weight(gens)
        assert (result["status"], result["instances"]) == ("fail", 6)
        return result["witness"]

    data = build_root_data(1, 1)
    # the listing's t1 with the sign of its L(1) term flipped
    gens = build_quantum(data)
    text = gens.t[1].render()
    assert text.count("+L(1)") == 1
    gens.t[1] = parse_opexpr(text.replace("+L(1)", "-L(1)"), gens.cs)
    assert witness(gens) == "t_1 at monomial 1: residual (-Q1^{1} + Q1^{-1})"
    gens = build_classical(data)
    gens.t[1] = gens.t[1].scale(RingElem.from_rational(2))
    assert witness(gens) == "h_1 at monomial 1: residual Q1^{1}"
    gens = build_quantum(data)
    gens.e[1] = gens.e[1] + OpExpr.identity(gens.cs)
    assert witness(gens) == "e_1 at monomial 1: residual 1"


def test_aux_suites_standalone_classical():
    gens = build_classical(build_root_data(1, 1))
    results = check_aux(gens, 2, nmax=2)
    assert {r["id"] for r in results} == {"AuxC16", "AuxC17", "AuxC18",
                                          "AuxC19"}
    assert all(r["status"] == "pass" for r in results)


def test_suites_reject_negative_degree():
    gens = build_quantum(build_root_data(1, 0))
    with pytest.raises(ValueError):
        check_cartan_relations(gens, -1)
    # at (0,0) the aux suites state no instance, so no pair is read
    with pytest.raises(ValueError):
        check_aux(build_quantum(build_root_data(0, 0)), -1, 3)


def test_nmax_below_one_is_rejected(monkeypatch):
    gens = build_quantum(build_root_data(1, 0))
    with pytest.raises(ValueError):
        check_aux(gens, 2, 0)

    def unreachable(*args):
        raise AssertionError("nmax must be checked before any build")

    monkeypatch.setattr(verify, "build_generators", unreachable)
    with pytest.raises(ValueError, match="nmax"):
        run_full(1, 0, degree=2, nmax=0)


def _stated_and_checked(monkeypatch, gens, degree):
    """Run the generator-dependent suites on gens at degree, nmax 2.
    Returns each suite's instances as stated, by tag, and its result."""
    stated, results = {}, {}
    run = verify._run

    def recorded(tag, deg, instances):
        stated[tag] = list(instances)
        results[tag] = run(tag, deg, stated[tag])
        return results[tag]
    with monkeypatch.context() as mp:
        mp.setattr(verify, "_run", recorded)
        check_cartan_relations(gens, degree)
        verify.check_serre(gens, degree)
        check_aux(gens, degree, 2)
        check_weight_conjugation(gens, degree)
        check_highest_weight(gens)
    return stated, results


def _bracket_form(gens):
    """The classical weight suites as brackets: (label, [h_i, x], k x) for
    each instance of C1, C2, C3 and WeightConj, by tag."""
    data, X = gens.data, gens.roots
    K = data.K
    h = gens.t

    def bracket(i, x, k):
        return graded_commutator(h[i], x), x.scale(RingElem.from_rational(k))

    pairs = [(i, j) for i in range(1, K + 1) for j in range(1, K + 1)]
    return {
        "C1": [("i=%d,j=%d" % (i, j), *bracket(i, h[j], 0))
               for i, j in pairs if i < j],
        "C2": [("i=%d,j=%d" % (i, j), *bracket(i, gens.e[j], data.a(i, j)))
               for i, j in pairs],
        "C3": [("i=%d,j=%d" % (i, j), *bracket(i, gens.f[j], -data.a(i, j)))
               for i, j in pairs],
        "WeightConj": [
            ("i=%d,l=%d,m=%d" % (i, l, m),
             *bracket(i, X[(l, m)], -data.a_sum(i, l, m)))
            for i in range(1, K + 1) for l in range(1, K + 1)
            for m in range(l, K + 1)],
    }


@pytest.mark.parametrize("MN", [(1, 1), (2, 1)], ids=["(1,1)", "(2,1)"])
def test_classical_weight_statement_is_the_bracket_operator(monkeypatch, MN):
    """h_i x = x (h_i + k) has lhs - rhs = [h_i, x] - k x as an operator,
    for every instance of C1, C2, C3 and WeightConj."""
    gens = build_classical(build_root_data(*MN))
    stated, _ = _stated_and_checked(monkeypatch, gens, 0)
    for tag, want in _bracket_form(gens).items():
        assert [label for label, _, _ in stated[tag]] \
            == [label for label, _, _ in want]
        for (label, lhs, rhs), (_, blhs, brhs) in zip(stated[tag], want):
            assert first_failure([(lhs - rhs, blhs - brhs)], 3) is None, \
                (tag, label)


def _corrupted_classical_sets(MN):
    """Classical sets at MN with one generator corrupted: each e_i scaled
    by 2, each f_i with the sign of its {...} form flipped, and e_i and
    f_i each plus the other, terms of the same parity and the opposite
    weight."""
    data = build_root_data(*MN)
    gens = build_classical(data)
    cs = gens.cs

    def corrupted(e, f):
        return GeneratorSet(data, cs, "classical", None, gens.t, e, f,
                            gens.t_form)

    for i in range(1, data.K + 1):
        yield "2 e_%d" % i, corrupted(
            {**gens.e, i: gens.e[i].scale(RingElem.from_rational(2))},
            gens.f)
        *rest, (c, (xop, (kind, form))) = gens.f[i].terms
        assert kind == "lin"
        flipped = OpExpr(cs, (*rest, (c, (xop, (kind, -form)))))
        yield "-{} f_%d" % i, corrupted(gens.e, {**gens.f, i: flipped})
        yield "e_%d + f_%d" % (i, i), corrupted(
            {**gens.e, i: gens.e[i] + gens.f[i]},
            {**gens.f, i: gens.f[i] + gens.e[i]})


def test_corrupted_classical_sets_keep_the_bracket_verdicts(monkeypatch):
    """On every corrupted classical set at (1,1) and (2,1), degree 2, each
    suite's status and witness are those of its instances checked one by
    one, with C1, C2, C3 and WeightConj stated as brackets: the weight
    relations keep the bracket form's first failing instance, monomial
    and residual."""
    failing = set()
    for MN in ((1, 1), (2, 1)):
        for name, gens in _corrupted_classical_sets(MN):
            stated, results = _stated_and_checked(monkeypatch, gens, 2)
            stated.update(_bracket_form(gens))
            for tag, instances in stated.items():
                degree = 0 if tag == "HighestWeight" else 2
                want = _one_instance_after_another(instances, degree)
                status = "fail" if want else "pass"
                got = results[tag]
                assert (got["status"], got["witness"]) == (status, want), \
                    (MN, name, tag)
                if want:
                    failing.add((MN, name, tag))
    # 115 suites fail, among them C2, C3 and WeightConj on every
    # e_i + f_i set, each with a witness of its own
    assert len(failing) == 115
    swapped = [(MN, name) for MN, name, tag in failing if tag == "C2"]
    assert len(swapped) == 7
    for MN, name in swapped:
        assert {(MN, name, "C3"), (MN, name, "WeightConj")} <= failing


# (family, index, mutation) of each mutated classical set
_MUTATIONS = (("e", 1, "sign"), ("f", 1, "reversed"), ("e", 2, "d->x"),
              ("f", 2, "drop"), ("f", 3, "2x"), ("e", 1, "dd"),
              ("f", 2, "dd"))


def _mutated(op, mutation):
    """The classical generator op with one mutation, as a wrong listing
    would state it: its first term negated, with its first d read as x,
    or scaled by 2, its last term reversed or dropped, or "dd", the first
    term times d(1,1) added, a second-order term of the same parity (e_1
    is d(1,1), so e_1 gains 3 d(1,1) d(1,1))."""
    (c, ops), *rest = op.terms
    if mutation == "sign":
        terms = [(-c, ops)] + rest
    elif mutation == "reversed":
        *rest, (c, ops) = op.terms
        terms = rest + [(c, ops[::-1])]
    elif mutation == "d->x":
        k = [kind for kind, _ in ops].index("d")
        terms = [(c, ops[:k] + (("x", ops[k][1]),) + ops[k + 1:])] + rest
    elif mutation == "2x":
        terms = [(c * RingElem.from_rational(2), ops)] + rest
    elif mutation == "drop":
        terms = op.terms[:-1]
    else:
        terms = op.terms + ((RingElem.from_rational(3), ops + (("d", 0),)),)
    return OpExpr(op.cs, terms)


def _mutant_verdicts(MN):
    """Each mutated classical set's suites at MN, degree 3, nmax 2, and
    Heis: (mutation, suite id, status, witness) for every suite."""
    data = build_root_data(*MN)
    out = []
    for fam, i, mutation in _MUTATIONS:
        gens = build_classical(data)
        e, f = dict(gens.e), dict(gens.f)
        gen = e if fam == "e" else f
        gen[i] = _mutated(gen[i], mutation)
        mutated = GeneratorSet(data, gens.cs, "classical", None, gens.t,
                               e, f, gens.t_form)
        suites = (check_cartan_relations(mutated, 3)
                  + verify.check_serre(mutated, 3)
                  + check_aux(mutated, 3, 2)
                  + check_weight_conjugation(mutated, 3)
                  + check_highest_weight(mutated))
        out += [("%s_%d %s" % (fam, i, mutation), s["id"], s["status"],
                 s["witness"]) for s in suites]
    out += [("-", s["id"], s["status"], s["witness"])
            for s in check_heisenberg(CoordSystem(*MN), 3)]
    return out


@pytest.mark.parametrize("MN", [(1, 1), (2, 1)], ids=["(1,1)", "(2,1)"])
def test_order_bound_keeps_every_mutant_verdict(monkeypatch, MN):
    """On mutated classical sets at degree 3, among them sets with a
    second-order term d d, each suite's status and witness are those of
    the same run with every order bound unbounded, which probes each
    pair on every basis monomial up to the degree."""
    bounded = _mutant_verdicts(MN)
    with monkeypatch.context() as mp:
        mp.setattr(operators, "_order", lambda cs, terms: inf)
        unbounded = _mutant_verdicts(MN)
    assert bounded == unbounded
    failed = {(name, tag) for name, tag, status, _ in bounded
              if status == "fail"}
    # a d d term breaks the brackets it enters
    assert ("e_1 dd", "C4") in failed and ("f_2 dd", "AuxC19") in failed
    assert len({name for name, _ in failed}) == len(_MUTATIONS)
