"""Command-line front end.

Commands:
  generators    print a generator set in the canonical operator grammar
  verify        run the relation suites and emit a text or JSON report
  example-sl21  step-by-step transcript of the [e2,f2] check in U_q(sl(2|1))
  identities    check the Cartan-substitution linear-form identities

Exit codes: 0 all checks pass, 1 a suite failed, 2 usage error; an exit-2
run leaves an existing --output file as it was and creates no new one.
"""

import argparse
import contextlib
import errno
import io
import json
import os
import re
import sys

from . import superpoly as sp
from .operators import ELEMENTARY, OpExpr, graded_commutator
from .algebra import (build_root_data, build_quantum, build_generators,
                      check_linform_identities)
from .verify import run_full


def _parse_weights(cfg, parser):
    """The --weights list as ints, or None: symbolic weights."""
    if cfg.weights is None:
        return None
    # a sign and ASCII digits only: int() also reads "1_0" and non-ASCII digits
    if not re.fullmatch(r"[+-]?[0-9]+(,[+-]?[0-9]+)*", cfg.weights):
        parser.error("--weights must be a comma-separated integer list")
    weights = [int(w) for w in cfg.weights.split(",")]
    if len(weights) != cfg.M + cfg.N + 1:
        parser.error("expected %d weights" % (cfg.M + cfg.N + 1))
    return weights


def _cannot_write(parser, path, reason):
    parser.exit(2, "%s: error: cannot write --output %s: %s\n"
                % (parser.prog, path, reason))


def _check_output(cfg, parser):
    """Exit 2 unless --output can be written: an existing file that is
    writable, or a new name in a writable directory.  Nothing is created,
    so a run that exits 2 leaves no new file behind."""
    path = cfg.output
    if not path:
        return
    parent = os.path.dirname(path) or "."
    if os.path.isdir(path):
        code = errno.EISDIR
    elif os.path.exists(path):
        code = 0 if os.access(path, os.W_OK) else errno.EACCES
    elif not os.path.isdir(parent):
        code = errno.ENOENT
    else:
        code = 0 if os.access(parent, os.W_OK | os.X_OK) else errno.EACCES
    if code:
        _cannot_write(parser, path, os.strerror(code))


def _open_output(cfg, parser):
    """--output opened for writing, or standard output."""
    if not cfg.output:
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(cfg.output, "w", encoding="utf-8")
    except OSError as err:
        _cannot_write(parser, cfg.output, err.strerror)


def _term_dict(cs, coeff, ops):
    out = {"coeff": coeff.render(), "ops": []}
    for kind, arg in ops:
        if ELEMENTARY[kind].step:
            l, m = cs.coords[arg]
            out["ops"].append({"kind": kind, "l": l, "m": m})
        else:
            out["ops"].append({"kind": kind, "lin": arg.render(cs)})
    return out


def cmd_generators(cfg, out):
    gens = build_generators(build_root_data(cfg.M, cfg.N), cfg.weights,
                            cfg.variant)
    prefix = "h" if cfg.variant == "classical" else "t"
    names = []
    for i in range(1, gens.data.K + 1):
        names.append(("%s%d" % (prefix, i), gens.t[i]))
    for i in range(1, gens.data.K + 1):
        names.append(("e%d" % i, gens.e[i]))
    for i in range(1, gens.data.K + 1):
        names.append(("f%d" % i, gens.f[i]))
    if cfg.format == "json":
        payload = {
            "algebra": {"M": cfg.M, "N": cfg.N},
            "variant": cfg.variant,
            "mode": "symbolic" if cfg.weights is None else "integer",
            "generators": {
                name: [_term_dict(gens.cs, c, ops) for c, ops in op.terms]
                for name, op in names},
        }
        out.write(json.dumps(payload, indent=2) + "\n")
    else:
        lines = ["%s = %s" % (name, op.render()) for name, op in names]
        out.write("\n".join(lines) + "\n")
    return 0


def cmd_verify(cfg, out):
    report = run_full(cfg.M, cfg.N, cfg.degree, cfg.nmax, cfg.variant,
                      cfg.weights)
    if cfg.format == "json":
        out.write(report.to_json())
    else:
        out.write(report.to_text())
    return 0 if report.ok else 1


def cmd_identities(cfg, out):
    lines = []
    failed = False
    for M in range(cfg.M + 1):
        for N in range(cfg.N + 1):
            data = build_root_data(M, N)
            report = check_linform_identities(data)
            for name in sorted(report):
                entry = report[name]
                status = "FAIL" if entry["failures"] else "pass"
                failed = failed or bool(entry["failures"])
                lines.append("(M,N)=(%d,%d) %s: %d instances %s%s" % (
                    M, N, name, entry["instances"], status,
                    " " + ",".join(entry["failures"]) if entry["failures"] else ""))
    out.write("\n".join(lines) + "\n")
    return 1 if failed else 0


def cmd_example_sl21(cfg, out):
    data = build_root_data(1, 0)
    gens = build_quantum(data, cfg.weights, "prop3")
    cs = gens.cs
    bracket = graded_commutator(gens.e[2], gens.f[2])
    eigen = OpExpr.term(cs, (("qnum", gens.t_form[2]),))
    lines = ["concrete check in U_q(sl(2|1)): [e2,f2] vs (t2-t2^-1)/(q-q^-1)",
             "e2 = " + gens.e[2].render(),
             "f2 = " + gens.f[2].render(),
             "[e2,f2] acts as [%s]" % gens.t_form[2].render(cs), ""]
    probes = [(), ((cs.pos[(1, 1)], 1),), ((cs.pos[(1, 2)], 1),),
              ((cs.pos[(2, 2)], 1),),
              ((cs.pos[(1, 1)], 2),),
              ((cs.pos[(1, 1)], 1), (cs.pos[(1, 2)], 1)),
              ((cs.pos[(1, 2)], 1), (cs.pos[(2, 2)], 1))]
    ok = True
    for mono in map(sp.mono_pack, probes):
        lhs = bracket.apply_monomial(mono)
        rhs = eigen.apply_monomial(mono)
        agree = lhs == rhs
        ok = ok and agree
        lines.append("on %-22s -> %s" % (sp.mono_render(cs, mono),
                                         sp.poly_render(cs, lhs)))
        lines.append("   eigenvalue side      -> %s   [%s]" % (
            sp.poly_render(cs, rhs), "agree" if agree else "MISMATCH"))
    lines.append("")
    lines.append("all probes agree" if ok else "MISMATCH FOUND")
    out.write("\n".join(lines) + "\n")
    return 0 if ok else 1


_FLAGS = {
    "M": dict(type=int, default=1),
    "N": dict(type=int, default=0),
    "weights": dict(default=None, help="comma-separated integers, one "
                                       "per weight; symbolic when omitted"),
    "degree": dict(type=int, default=3),
    "nmax": dict(type=int, default=2),
    "variant": dict(choices=("prop2", "prop3", "classical"), default="prop3"),
    "format": dict(choices=("text", "json"), default="text"),
    "output": dict(default=None),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qsuperalg",
        description="Exact q-difference operator realizations of the "
                    "quantum superalgebra of type sl(M+1|N+1) and machine "
                    "verification of its defining relations.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(p, *flags):
        for flag in flags:
            p.add_argument("--" + flag, **_FLAGS[flag])
        return p

    add(sub.add_parser("generators", help="print a generator set"),
        "M", "N", "weights", "variant", "format", "output")
    add(sub.add_parser("verify", help="run the relation suites"), *_FLAGS)
    add(sub.add_parser("identities", help="check the linear-form identities"),
        "M", "N", "output")
    # the transcript is fixed at sl(2|1), (M,N) = (1,0)
    add(sub.add_parser("example-sl21", help="transcript of the [e2,f2] check"),
        "weights", "output").set_defaults(M=1, N=0)
    return parser


def main(argv=None):
    parser = build_parser()
    cfg = parser.parse_args(argv)
    if cfg.M < 0 or cfg.N < 0:
        parser.error("M and N must be >= 0")
    if cfg.command == "verify" and (cfg.degree < 0 or cfg.nmax < 1):
        parser.error("degree must be >= 0 and nmax >= 1")
    if "weights" in cfg:
        cfg.weights = _parse_weights(cfg, parser)
    handlers = {
        "generators": cmd_generators,
        "verify": cmd_verify,
        "identities": cmd_identities,
        "example-sl21": cmd_example_sl21,
    }
    _check_output(cfg, parser)
    buf = io.StringIO()
    try:
        code = handlers[cfg.command](cfg, buf)
    except OverflowError as err:
        # an exponent past a packed field: a scalar's or a monomial's
        parser.exit(2, "%s: error: %s\n" % (parser.prog, err))
    with _open_output(cfg, parser) as out:
        out.write(buf.getvalue())
    return code


if __name__ == "__main__":
    sys.exit(main())
