"""Tests for the relation-suite runner and its reports."""

import json

import pytest

from qsuperalg import verify
from qsuperalg.scalars import qpow
from qsuperalg.superpoly import CoordSystem, mono_render, poly_render
from qsuperalg.operators import OpExpr, op_eq_on_basis
from qsuperalg.algebra import build_root_data, build_quantum, build_classical
from qsuperalg.verify import (run_full, check_cartan_relations,
                              check_aux, check_weight_conjugation,
                              check_heisenberg, check_highest_weight)


QUANTUM_SUITES = {"Q20", "Q21", "Q22", "Q23", "QSerreA", "QSerreOdd",
                  "OddNil", "AuxQ39", "AuxQ40", "AuxQ41", "AuxQ42",
                  "WeightConj", "Heis", "HighestWeight"}
CLASSICAL_SUITES = {"C1", "C2", "C3", "C4", "CSerreA", "CSerreOdd", "OddNil",
                    "AuxC16", "AuxC17", "AuxC18", "AuxC19",
                    "WeightConj", "Heis", "HighestWeight"}


def test_full_run_sl21_passes():
    report = run_full(1, 0, degree=3, nmax=2)
    assert report.ok
    assert {s.id for s in report.suites} == QUANTUM_SUITES
    for s in report.suites:
        assert s.status in ("pass", "vacuous")
        assert s.witness is None


def test_full_run_classical_passes():
    report = run_full(1, 0, degree=3, nmax=2, variant="classical")
    assert report.ok
    assert {s.id for s in report.suites} == CLASSICAL_SUITES


def test_odd_serre_vacuous_without_both_blocks():
    report = run_full(1, 0, degree=2)
    by_id = {s.id: s for s in report.suites}
    assert by_id["QSerreOdd"].status == "vacuous"
    report = run_full(1, 1, degree=2)
    by_id = {s.id: s for s in report.suites}
    assert by_id["QSerreOdd"].status == "pass"
    assert by_id["QSerreOdd"].instances == 2


def test_sl11_degenerate_rank():
    # M = N = 0: a single odd generator, no Serre pairs at all
    report = run_full(0, 0, degree=3)
    assert report.ok
    by_id = {s.id: s for s in report.suites}
    assert by_id["QSerreA"].status == "vacuous"
    assert by_id["QSerreOdd"].status == "vacuous"
    assert by_id["OddNil"].status == "pass"


def test_integer_weight_runs():
    report = run_full(1, 0, mode="integer", degree=3, weights=[2, -1])
    assert report.ok
    report = run_full(1, 1, mode="integer", degree=2, weights=[0, 1, -2],
                      variant="classical")
    assert report.ok


def test_run_full_argument_validation():
    with pytest.raises(ValueError):
        run_full(1, 0, mode="integer")                # weights missing
    with pytest.raises(ValueError):
        run_full(1, 0, mode="integer", weights=[1])   # wrong length
    with pytest.raises(ValueError, match="mode integer"):
        run_full(1, 0, mode="symbolic", weights=[2, -1])
    with pytest.raises(ValueError):
        run_full(1, 0, mode="numeric")
    with pytest.raises(ValueError):
        run_full(1, 0, degree=-1)


def test_report_json_shape():
    report = run_full(0, 1, degree=2)
    payload = json.loads(report.to_json())
    assert payload["algebra"] == {"M": 0, "N": 1}
    assert payload["pass"] is True
    assert payload["variant"] == "prop3"
    for suite in payload["suites"]:
        assert set(suite) == {"id", "instances", "status", "witness", "millis"}
        assert suite["status"] in ("pass", "fail", "vacuous")


def test_report_deterministic_modulo_timings():
    a = run_full(1, 0, degree=2).to_dict(timings=False)
    b = run_full(1, 0, degree=2).to_dict(timings=False)
    assert a == b


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
    failed = [r for r in results if r.status == "fail"]
    assert failed
    assert all(r.witness and "residual" in r.witness for r in failed)


def _one_instance_after_another(instances, degree):
    """The witness of a suite whose instances are checked one by one."""
    for label, lhs, rhs in instances:
        ok, wit = op_eq_on_basis(lhs, rhs, degree)
        if not ok:
            mono, residual = wit
            return "%s at monomial %s: residual %s" % (
                label, mono_render(lhs.cs, mono),
                poly_render(lhs.cs, residual))
    return None


def test_probe_outer_loop_keeps_the_first_failing_instance():
    cs = CoordSystem(1, 0)                  # z(1,1), th(1,2), th(2,2)
    d = OpExpr.term(cs, (("D", 0),))
    x = OpExpr.term(cs, (("x", 0),))
    zero = OpExpr.zero(cs)
    instances = [
        ("passes", x, x),
        ("D^2", d @ d, zero),               # fails only at z(1,1)^2
        ("1", OpExpr.identity(cs), zero),   # fails at the first monomial
    ]
    # the probe-outer loop meets instance "1" first, at monomial 1, and
    # must still report instance "D^2"
    want = _one_instance_after_another(instances, 2)
    assert want.startswith("D^2 at monomial z(1,1)^2: residual ")
    result = verify._run("T", 2, iter(instances))
    assert (result.status, result.instances) == ("fail", 3)
    assert result.witness == want


def test_suite_timings_are_recorded():
    report = run_full(1, 0, degree=2)
    assert all(s.millis >= 0 for s in report.suites)


def test_weight_conjugation_and_heisenberg_standalone():
    gens = build_quantum(build_root_data(0, 1))
    assert all(r.status == "pass"
               for r in check_weight_conjugation(gens, 3))
    assert all(r.status == "pass"
               for r in check_heisenberg(gens.cs, 4))
    assert all(r.status == "pass" for r in check_highest_weight(gens))


def test_aux_suites_standalone_classical():
    gens = build_classical(build_root_data(1, 1))
    results = check_aux(gens, 2, nmax=2)
    assert {r.id for r in results} == {"AuxC16", "AuxC17", "AuxC18", "AuxC19"}
    assert all(r.status == "pass" for r in results)


def test_suites_reject_negative_degree():
    gens = build_quantum(build_root_data(1, 0))
    with pytest.raises(ValueError):
        check_cartan_relations(gens, -1)


def test_nmax_below_one_is_rejected(monkeypatch):
    gens = build_quantum(build_root_data(1, 0))
    with pytest.raises(ValueError):
        check_aux(gens, 2, 0)

    def unreachable(*args):
        raise AssertionError("nmax must be checked before any build")

    monkeypatch.setattr(verify, "build_generators", unreachable)
    with pytest.raises(ValueError, match="nmax"):
        run_full(1, 0, degree=2, nmax=0)
