"""The verifier benchmark: time to verdict, set-up time and peak memory.

Usage:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports the package from ``src/``.
Each job runs in a fresh worker process (``worker.py``), one at a time,
so module-level caches never carry over from one pass to the next.  The
benchmark is a closed loop with one client: a pass is one fixed stream of
jobs, and passes repeat while the next one still fits in ``--seconds``.
At least one pass always runs.

Every verdict is checked (see ``check_job``).  Informational lines come
first on standard output; the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace
0`` the metrics are the end-to-end ones, with ``--trace 1`` the per-layer
ones from a traced pass (see ``METRICS.md``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import mutants  # noqa: E402

# One stream of jobs per workload; see METRICS.md for why each was chosen.
WORKLOADS = {
    "q21_symbolic": {"kind": "cli", "M": 2, "N": 1, "degree": 2, "nmax": 3,
                     "variant": "prop3"},
    "c21_symbolic": {"kind": "cli", "M": 2, "N": 1, "degree": 3, "nmax": 3,
                     "variant": "classical"},
    "q11_mutants": {"kind": "mutants", "degree": 3, "nmax": 3},
}

# Set-up is short and its spread across process starts is wide, so every
# run starts this many set-up-only workers before the passes and as many
# after them, and reports the median of all set-up samples.
SETUP_PROBES = 6

# A run must end within 180 s, traced or not; workers share this budget.
RUN_BUDGET_S = 170

SUITE_IDS = ("Q20", "Q21", "Q22", "Q23", "QSerreA", "QSerreOdd",
             "C1", "C2", "C3", "C4", "CSerreA", "CSerreOdd", "OddNil",
             "AuxQ39", "AuxQ40", "AuxQ41", "AuxQ42",
             "AuxC16", "AuxC17", "AuxC18", "AuxC19",
             "WeightConj", "Heis", "HighestWeight")

END_TO_END = {"verify_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = dict(
    [("scalars.mul_calls", "count"), ("scalars.add_calls", "count"),
     ("scalars.neg_calls", "count"), ("scalars.self_s", "s"),
     ("scalars.peak_num_terms", "count"),
     ("scalars.nonunit_den_frac", "ratio"),
     ("scalars.general_den_frac", "ratio"),
     ("scalars.fraction_coeff_frac", "ratio"),
     ("superpoly.mul_coord_calls", "count"),
     ("superpoly.grassmann_remove_calls", "count"),
     ("superpoly.mono_dec_calls", "count"),
     ("superpoly.poly_add_term_calls", "count"),
     ("superpoly.cancel_frac", "ratio"), ("superpoly.self_s", "s"),
     ("operators.apply_calls", "count"),
     ("operators.apply_repeat_frac", "ratio"),
     ("operators.peak_poly_terms", "count"), ("operators.self_s", "s"),
     ("operators.eq_calls", "count"), ("operators.basis_probes", "count"),
     ("operators.eq_early_exit_frac", "ratio"),
     ("algebra.build_s", "s"), ("grammar.parse_s", "s"),
     ("verify.instances", "count"), ("verify.self_s", "s")]
    + [("verify.suite_s." + s, "s") for s in SUITE_IDS]
    + [("trace.overhead", "ratio")])


class BenchError(Exception):
    """A worker failed or the run ran out of time."""


def jobs_for(name, seed):
    """The job of one pass of a workload; inputs depend only on ``seed``."""
    spec = dict(WORKLOADS[name])
    if spec["kind"] == "mutants":
        with open(mutants.LISTING, encoding="utf-8") as fh:
            listing = fh.read()
        spec["sites"] = mutants.stream(listing, seed)
    return spec


def check_job(kind, result):
    """Whether one job's verdict is right.

    A clean job is right when it exits 0 and every suite passes.  A mutant
    job is right when at least one suite fails with a witness.
    """
    suites = result["report"]["suites"]
    if kind == "mutants":
        return any(s["status"] == "fail" and s["witness"] for s in suites)
    return (result["exit"] == 0 and result["report"]["pass"]
            and all(s["status"] == "pass" for s in suites))


def verdict_text(result):
    """The timing-free content of a report: ids, statuses, witnesses."""
    lines = [result["label"]]
    for s in result["report"]["suites"]:
        lines.append("%s %s %d %s" % (s["id"], s["status"], s["instances"],
                                      s["witness"] or "-"))
    return "\n".join(lines) + "\n"


def run_pass(job, deadline):
    """Run one pass in a fresh worker process, to end by ``deadline``."""
    start = time.monotonic()
    if start >= deadline:
        raise BenchError("out of time before starting a worker")
    proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"),
                           json.dumps(job)], cwd=ROOT, capture_output=True,
                          text=True, timeout=deadline - start, check=False,
                          env=dict(os.environ, PYTHONHASHSEED="0"))
    if proc.returncode != 0:
        raise BenchError("worker exited %d: %s" % (
            proc.returncode, proc.stderr.strip()[-2000:]))
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"setup_s": out["ready"] - start,
            "verify_s": out["done"] - out["ready"],
            "peak_rss_mb": out["peak_rss_mb"],
            "results": out["results"], "trace": out.get("trace")}


def layer_metrics(passed, plain_verify_s):
    """Per-layer metrics from one traced pass."""
    tr = passed["trace"]
    count, peak, self_s = tr["count"], tr["peak"], tr["self_s"]

    def frac(num, den):
        d = count.get(den, 0)
        return count.get(num, 0) / d if d else 0.0

    m = {k: count.get(k, 0) for k in PER_LAYER if k.endswith("_calls")}
    m.update({
        "scalars.peak_num_terms": peak.get("scalars.num_terms", 0),
        "scalars.nonunit_den_frac": frac("scalars.nonunit_den",
                                         "scalars.results"),
        "scalars.general_den_frac": frac("scalars.general_den",
                                         "scalars.results"),
        "scalars.fraction_coeff_frac": frac("scalars.fraction_coeff",
                                            "scalars.results"),
        "superpoly.cancel_frac": frac("superpoly.poly_add_term_cancels",
                                      "superpoly.poly_add_term_calls"),
        "operators.apply_repeat_frac": frac("operators.apply_repeats",
                                            "operators.apply_calls"),
        "operators.peak_poly_terms": peak.get("operators.poly_terms", 0),
        "operators.basis_probes": count.get("operators.basis_probes", 0),
        "operators.eq_early_exit_frac": frac("operators.eq_early_exits",
                                             "operators.eq_calls"),
        "algebra.build_s": self_s.get("algebra", 0.0),
        "grammar.parse_s": self_s.get("grammar", 0.0),
        "verify.self_s": self_s.get("verify", 0.0),
        "trace.overhead": passed["verify_s"] / plain_verify_s,
    })
    for layer in ("scalars", "superpoly", "operators"):
        m[layer + ".self_s"] = self_s.get(layer, 0.0)
    suite_ms = dict.fromkeys(SUITE_IDS, 0)
    instances = 0
    for r in passed["results"]:
        for s in r["report"]["suites"]:
            instances += s["instances"]
            if s["id"] in suite_ms:
                suite_ms[s["id"]] += s["millis"]
    m["verify.instances"] = instances
    for sid, ms in suite_ms.items():
        m["verify.suite_s." + sid] = ms / 1000.0
    return m


def main(argv=None):
    ap = argparse.ArgumentParser(description="qsuperalg verifier benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    cfg = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "qsuperalg",
                                       "__init__.py")):
        print("bench: no package at src/qsuperalg; run from a checkout",
              file=sys.stderr)
        return 2

    job = jobs_for(cfg.workload, cfg.seed)
    kind = job["kind"]
    t0 = time.monotonic()
    deadline = t0 + RUN_BUDGET_S
    try:
        if cfg.trace:
            plain = run_pass(job, deadline)
            traced = run_pass(dict(job, trace=1), deadline)
            passes = [plain, traced]
        else:
            probe = dict(job, setup_only=True)
            setups = [run_pass(probe, deadline)["setup_s"]
                      for _ in range(SETUP_PROBES)]
            passes = [run_pass(job, deadline)]
            while (time.monotonic() - t0 + passes[-1]["verify_s"]
                   + passes[-1]["setup_s"] <= cfg.seconds):
                passes.append(run_pass(job, deadline))
            setups += [run_pass(probe, deadline)["setup_s"]
                       for _ in range(SETUP_PROBES)]
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print("bench: %s" % exc, file=sys.stderr)
        return 1

    attempted = failed = 0
    digest = hashlib.sha256()
    for k, p in enumerate(passes):
        for r in p["results"]:
            ok = check_job(kind, r)
            attempted += 1
            failed += not ok
            if k == 0:
                digest.update(verdict_text(r).encode())
                if kind == "mutants":
                    fails = [s["id"] for s in r["report"]["suites"]
                             if s["status"] == "fail"]
                    print("mutant %-26s %-6s %6.2fs fails=%s" % (
                        r["label"], "caught" if ok else "MISSED",
                        r["seconds"], ",".join(fails) or "-"))
                elif not ok:
                    print("job %s: wrong verdict" % r["label"])
    print("workload %s seed %d: %d pass(es), %d job(s), report digest %s"
          % (cfg.workload, cfg.seed, len(passes), attempted,
             digest.hexdigest()[:16]))

    if cfg.trace:
        metrics = layer_metrics(passes[1], passes[0]["verify_s"])
        units = PER_LAYER
        if passes[1]["trace"]["missing"]:
            print("trace: not in the package: "
                  + ", ".join(passes[1]["trace"]["missing"]))
        for name, row in sorted(passes[1]["trace"]["spans"].items()):
            print("span %-26s count=%-6d total=%.3fs self=%.3fs"
                  % (name, row["count"], row["total_s"], row["self_s"]))
    else:
        metrics = {
            "verify_s": statistics.median(p["verify_s"] for p in passes),
            "setup_s": statistics.median(
                setups + [p["setup_s"] for p in passes]),
            "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
        }
        units = END_TO_END
    for name in units:
        print("%-32s %14.6g %s" % (name, metrics[name], units[name]))
    print("%-32s %14.6g %s" % ("fail_frac", failed / attempted, "ratio"))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in units}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
