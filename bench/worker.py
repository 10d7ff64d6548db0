"""One benchmark job in a fresh interpreter.

Usage: python3 bench/worker.py '<job JSON>'

The job JSON names a workload kind and its parameters (see ``run.py``).
The worker imports the package from ``src/`` of the checkout, sets up,
runs the job through the package's public entry points and prints one
JSON line with its timestamps, peak memory and verdicts.  Timestamps are
``time.monotonic()`` readings, which share one clock across processes,
so the parent can measure set-up from the moment it started the worker.

Set-up ends at the first relation check.  It covers the interpreter,
``import qsuperalg``, ``build_root_data`` and building (or parsing) the
generator set.  With ``"setup_only": true`` the worker stops there.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


def peak_rss_mb():
    """Peak resident set of this process in MiB.

    ``VmHWM`` covers only this process image; ``ru_maxrss`` can also hold
    the high-water mark of the parent that spawned it.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _cli_job(job, tracer):
    from qsuperalg import algebra, cli
    data = algebra.build_root_data(job["M"], job["N"])
    if job["variant"] == "classical":
        algebra.build_classical(data)
    else:
        algebra.build_quantum(data, variant=job["variant"])
    ready = time.monotonic()
    if job.get("setup_only"):
        return ready, ready, []
    argv = ["verify", "--M", str(job["M"]), "--N", str(job["N"]),
            "--degree", str(job["degree"]), "--nmax", str(job["nmax"]),
            "--variant", job["variant"], "--format", "json"]
    out = io.StringIO()
    with tracer.job(), contextlib.redirect_stdout(out):
        code = cli.main(argv)
    done = time.monotonic()
    report = json.loads(out.getvalue())
    return ready, done, [{"label": "verify " + " ".join(argv[1:-2]),
                          "exit": code, "seconds": done - ready,
                          "report": report}]


def gens_from_listing(text, M, N):
    """Parse a ``qsuperalg generators`` listing into a generator set."""
    from qsuperalg import algebra, grammar
    from qsuperalg.superpoly import CoordSystem
    data = algebra.build_root_data(M, N)
    cs = CoordSystem(M, N)
    fams = {"t": {}, "e": {}, "f": {}}
    t_form = {}
    for line in text.strip().splitlines():
        name, body = line.split(" = ", 1)
        i = int(name[1:])
        fams[name[0]][i] = grammar.parse_opexpr(body, cs)
        if name[0] == "t":
            t_form[i] = grammar.parse_linform(body[len("q^{"):-1], cs)
    return algebra.GeneratorSet(data, cs, "prop3", None, fams["t"],
                                fams["e"], fams["f"], t_form)


def run_suites(gens, degree, nmax):
    """Every relation suite that ``run_full`` runs, on a given set."""
    from qsuperalg import verify
    report = verify.VerificationReport(gens.data.M, gens.data.N, "symbolic",
                                       gens.variant, degree, nmax)
    report.suites += verify.check_cartan_relations(gens, degree)
    report.suites += verify.check_serre(gens, degree)
    report.suites += verify.check_aux(gens, degree, nmax)
    report.suites += verify.check_weight_conjugation(gens, degree)
    report.suites += verify.check_heisenberg(gens.cs, degree)
    report.suites += verify.check_highest_weight(gens)
    return report


def _mutant_job(job, tracer):
    import mutants
    with open(mutants.LISTING, encoding="utf-8") as fh:
        listing = fh.read()
    texts = [mutants.apply_site(listing, s) for s in job["sites"]]
    gens = gens_from_listing(texts[0], 1, 1)
    ready = time.monotonic()
    if job.get("setup_only"):
        return ready, ready, []
    results = []
    start = ready
    for k, (site, text) in enumerate(zip(job["sites"], texts)):
        with tracer.job():
            if k:
                gens = gens_from_listing(text, 1, 1)
            report = run_suites(gens, job["degree"], job["nmax"])
        end = time.monotonic()
        results.append({"label": mutants.describe(site),
                        "exit": 0 if report.ok else 1,
                        "seconds": end - start, "report": report.to_dict()})
        start = end
    return ready, end, results


class _NoTrace:
    """Stands in for ``tracing.Tracer`` when the job is not traced."""

    def job(self):
        return contextlib.nullcontext()


def main():
    job = json.loads(sys.argv[1])
    tracer = _NoTrace()
    if job.get("trace"):
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    run = _mutant_job if job["kind"] == "mutants" else _cli_job
    ready, done, results = run(job, tracer)
    out = {"ready": ready, "done": done, "peak_rss_mb": peak_rss_mb(),
           "results": results}
    if job.get("trace"):
        tracer.uninstall()
        out["trace"] = tracer.summary()
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main()
