"""Timing-free reports compared byte for byte with committed fixtures.

The fixtures hold the JSON reports of clean runs at (M,N)=(1,1) for each
variant, and of every relation suite on each criterion-9 mutant of the
sl(2|1) listing, witnesses included.  A change in how a relation is stated
must leave all of them unchanged.

Regenerate (only when a report is meant to change) with
``PYTHONPATH=src python3 tests/test_golden_reports.py``.
"""

import json
import os

import pytest

from qsuperalg.verify import (VerificationReport, run_full,
                              check_cartan_relations, check_serre, check_aux,
                              check_weight_conjugation, check_heisenberg,
                              check_highest_weight)
from test_acceptance import FIXTURE, MUTATIONS, _gens_from_text

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "fixtures")
CLEAN = ("prop3", "prop2", "classical")
MUTANTS = "report_10_mutants.json"


def timing_free(report):
    """``report.to_dict()`` without the suites' wall times (``millis``)."""
    payload = report.to_dict()
    for suite in payload["suites"]:
        del suite["millis"]
    return payload


def _clean_report(variant):
    report = run_full(1, 1, degree=2, nmax=3, variant=variant)
    return json.dumps(timing_free(report), indent=2) + "\n"


def _mutant_reports():
    with open(FIXTURE) as fh:
        golden = fh.read()
    out = []
    for old, new in MUTATIONS:
        gens = _gens_from_text(golden.replace(old, new))
        report = VerificationReport(1, 0, "symbolic", gens.variant, 2, 2)
        report.suites += check_cartan_relations(gens, 2)
        report.suites += check_serre(gens, 2)
        report.suites += check_aux(gens, 2, 2)
        report.suites += check_weight_conjugation(gens, 2)
        report.suites += check_heisenberg(gens.cs, 2)
        report.suites += check_highest_weight(gens)
        out.append({"mutation": [old, new],
                    "report": timing_free(report)})
    return json.dumps(out, indent=2) + "\n"


NAMES = ["report_11_%s.json" % v for v in CLEAN] + [MUTANTS]


def _golden(name):
    if name == MUTANTS:
        return _mutant_reports()
    return _clean_report(name[len("report_11_"):-len(".json")])


@pytest.mark.parametrize("name", NAMES)
def test_report_matches_golden_fixture(name):
    with open(os.path.join(FIXTURES, name), encoding="utf-8") as fh:
        want = fh.read()
    assert _golden(name) == want


def test_mutant_fixture_records_failing_suites():
    with open(os.path.join(FIXTURES, MUTANTS), encoding="utf-8") as fh:
        entries = json.load(fh)
    failed = [s for e in entries for s in e["report"]["suites"]
              if s["status"] == "fail"]
    assert len(entries) == len(MUTATIONS)
    assert len(failed) == 42 and all(s["witness"] for s in failed)


if __name__ == "__main__":
    for name in NAMES:
        with open(os.path.join(FIXTURES, name), "w", encoding="utf-8") as fh:
            fh.write(_golden(name))
