"""Self-tests of the benchmark.  Run: python3 -m pytest -q bench

They run smoke-sized passes (degree 1 or 2) through the same worker,
tracer and verdict checks as the benchmark itself.
"""

import hashlib
import json
import os
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import mutants  # noqa: E402
import run  # noqa: E402

# Smoke sizes: every mutant drawn at degree 2 is still caught, and the
# clean workloads keep their rank and variant.
SMOKE_DEGREE = {"q21_symbolic": 1, "c21_symbolic": 1, "q11_mutants": 2}

# sha256 of json.dumps(mutants.stream(listing, 7)); changes only if the
# listing, the site rules or the sampling change.
STREAM_7_SHA256 = (
    "482c655fa39edead1deb8288c7f4c18915e7633e826271c15a496e750d35f335")


def smoke_job(name, seed=3, **extra):
    return dict(run.jobs_for(name, seed), degree=SMOKE_DEGREE[name], **extra)


def one_pass(job):
    return run.run_pass(job, time.monotonic() + 120)


def listing():
    with open(mutants.LISTING, encoding="utf-8") as fh:
        return fh.read()


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_smoke_run_has_no_wrong_verdicts(name):
    job = smoke_job(name)
    passed = one_pass(job)
    verdicts = [run.check_job(job["kind"], r) for r in passed["results"]]
    assert verdicts and all(verdicts)


def test_traced_counts_repeat_exactly():
    job = smoke_job("q11_mutants", trace=1)
    first, second = one_pass(job), one_pass(job)
    assert first["trace"]["count"] == second["trace"]["count"]
    assert first["trace"]["peak"] == second["trace"]["peak"]
    assert first["trace"]["count"]["operators.apply_calls"] > 0


def test_traced_metrics_cover_every_per_layer_name():
    job = smoke_job("q21_symbolic", trace=1)
    metrics = run.layer_metrics(one_pass(job), 1.0)
    assert set(metrics) == set(run.PER_LAYER)
    assert metrics["scalars.mul_calls"] > 0
    assert metrics["verify.instances"] > 0


def test_mutant_stream_is_byte_stable():
    text = listing()
    a = json.dumps(mutants.stream(text, 7)).encode()
    assert a == json.dumps(mutants.stream(text, 7)).encode()
    assert a != json.dumps(mutants.stream(text, 8)).encode()
    assert hashlib.sha256(a).hexdigest() == STREAM_7_SHA256


def test_mutants_edit_one_token_each():
    text = listing()
    every = mutants.sites(text)
    assert len({s["offset"] for s in every}) == len(every)
    for s in every:
        edited = mutants.apply_site(text, s)
        assert edited != text
        assert len(edited.splitlines()) == len(text.splitlines())
    terms = {s["term"] for s in every}
    assert terms == {t for _, ts in mutants.CLASSES for t in ts}


def test_flips_of_an_absent_odd_coordinate_are_not_sites():
    # f1 = -1 * q^{...-M(2,2)...} x(1,2) D(2,2) + ...: D(2,2) removes the
    # odd coordinate (2,2) first, so M(2,2) always reads 0 there.
    offsets = {s["offset"] for s in mutants.sites(listing())}
    text = listing()
    f1 = text.index("f1 = ")
    assert f1 + text[f1:].index("-M(2,2)") not in offsets
    assert f1 + text[f1:].index("+M(1,3)") in offsets


def test_listing_is_what_the_program_prints():
    out = subprocess.run(
        [sys.executable, "-m", "qsuperalg.cli", "generators",
         "--M", "1", "--N", "1"], capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=os.path.join(run.ROOT, "src")))
    assert out.stdout == listing()


def test_refuses_to_run_without_the_package(tmp_path):
    bench = tmp_path / "bench"
    bench.mkdir()
    for name in os.listdir(HERE):
        if name.endswith((".py", ".txt")):
            (bench / name).write_bytes(open(os.path.join(HERE, name),
                                            "rb").read())
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "q21_symbolic",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""


def test_benchmark_json_names_what_the_run_prints():
    path = os.path.join(run.ROOT, "BENCHMARK.json")
    with open(path, encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
