"""End-to-end tests of the command-line interface (run as a subprocess)."""

import json
import os
import subprocess
import sys

import pytest

from qsuperalg import cli, operators
from qsuperalg.superpoly import CoordSystem, FIELD_TOP, mono_pack
from qsuperalg.operators import first_failure
from qsuperalg.algebra import build_root_data, build_quantum
from qsuperalg.grammar import parse_opexpr


FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "qsuperalg.cli", *args],
                          capture_output=True, text=True)


def test_generators_match_golden_fixture():
    out = run_cli("generators", "--M", "1", "--N", "0", "--variant", "prop3")
    assert out.returncode == 0
    with open(os.path.join(FIXTURES, "sl21_prop3.txt")) as fh:
        golden = fh.read()
    assert out.stdout == golden


def test_generators_round_trip_through_grammar():
    out = run_cli("generators", "--M", "1", "--N", "1")
    assert out.returncode == 0
    gens = build_quantum(build_root_data(1, 1))
    cs = CoordSystem(1, 1)
    built = {}
    for line in out.stdout.splitlines():
        name, text = line.split(" = ", 1)
        built[name] = parse_opexpr(text, cs)
    for i in (1, 2, 3):
        assert first_failure([(built["t%d" % i], gens.t[i])], 2) is None
        assert first_failure([(built["e%d" % i], gens.e[i])], 2) is None
        assert first_failure([(built["f%d" % i], gens.f[i])], 2) is None


def test_generators_json_is_valid():
    out = run_cli("generators", "--M", "1", "--N", "0", "--format", "json")
    assert out.returncode == 0
    payload = json.loads(out.stdout)
    assert payload["algebra"] == {"M": 1, "N": 0}
    assert set(payload["generators"]) == {"t1", "t2", "e1", "e2", "f1", "f2"}
    assert payload["generators"]["e1"] == [
        {"coeff": "1", "ops": [{"kind": "D", "l": 1, "m": 1}]}]


def test_verify_text_passes():
    out = run_cli("verify", "--M", "1", "--N", "0", "--degree", "2")
    assert out.returncode == 0
    assert out.stdout.strip().endswith("overall: PASS")


def test_verify_json_passes():
    out = run_cli("verify", "--M", "0", "--N", "1", "--degree", "2",
                  "--format", "json")
    assert out.returncode == 0
    payload = json.loads(out.stdout)
    assert payload["pass"] is True
    assert all(s["status"] in ("pass", "vacuous") for s in payload["suites"])


def test_verify_classical_variant():
    out = run_cli("verify", "--M", "1", "--N", "0", "--degree", "2",
                  "--variant", "classical")
    assert out.returncode == 0


def test_verify_integer_mode():
    # --weights alone binds the weights, and the report says so
    out = run_cli("verify", "--M", "1", "--N", "0", "--degree", "2",
                  "--weights", "3,-1")
    assert out.returncode == 0
    assert out.stdout.startswith(
        "relation suites for (M,N)=(1,0) variant=prop3 mode=integer ")


def test_usage_errors_exit_2():
    assert run_cli().returncode == 2
    assert run_cli("bogus").returncode == 2
    assert run_cli("verify", "--variant", "bogus").returncode == 2
    assert run_cli("verify", "--weights", "1,2,3").returncode == 2
    assert run_cli("verify", "--weights", "1,x").returncode == 2
    # the weights decide the mode; there is no --mode flag
    assert run_cli("verify", "--mode", "integer",
                   "--weights", "2,-1").returncode == 2
    assert run_cli("verify", "--M", "-1").returncode == 2


def test_flags_a_command_does_not_read_exit_2():
    assert run_cli("identities", "--degree", "5").returncode == 2
    assert run_cli("example-sl21", "--M", "2").returncode == 2


def test_output_flag_writes_file(tmp_path):
    target = tmp_path / "report.json"
    out = run_cli("verify", "--M", "1", "--N", "0", "--degree", "2",
                  "--format", "json", "--output", str(target))
    assert out.returncode == 0
    payload = json.loads(target.read_text())
    assert payload["pass"] is True


def test_identities_command():
    out = run_cli("identities", "--M", "2", "--N", "2")
    assert out.returncode == 0
    assert "FAIL" not in out.stdout
    assert "I43" in out.stdout


def test_example_transcript():
    out = run_cli("example-sl21")
    assert out.returncode == 0
    assert "all probes agree" in out.stdout
    assert "e2 =" in out.stdout


def test_unwritable_output_exits_2(tmp_path):
    target = str(tmp_path / "missing" / "x.txt")
    for args in (("identities",), ("generators",),
                 ("verify", "--M", "0", "--N", "0", "--degree", "1"),
                 ("example-sl21",)):
        out = run_cli(*args, "--output", target)
        assert out.returncode == 2, args
        assert out.stderr.count("\n") == 1
        assert "cannot write --output " + target in out.stderr
        assert out.stdout == ""


def test_wrong_weight_count_exits_2_before_output_is_opened(tmp_path):
    target = tmp_path / "kept.txt"
    target.write_text("kept\n")
    for args in (("generators", "--weights", "1,2,3"),
                 ("verify", "--M", "0", "--N", "0", "--weights", "5,6"),
                 ("example-sl21", "--weights", "1")):
        out = run_cli(*args, "--output", str(target))
        assert out.returncode == 2, args
        assert "expected " in out.stderr and "weights" in out.stderr
        assert out.stdout == ""
        assert target.read_text() == "kept\n"


def test_scalar_exponent_overflow_exits_2():
    out = run_cli("verify", "--M", "1", "--N", "0", "--weights", "40000,1",
                  "--degree", "1")
    assert out.returncode == 2
    assert out.stderr == ("qsuperalg: error: exponents up to 40000 leave "
                          "the packed field [-32767, 32767]\n")
    assert out.stdout == ""


def test_monomial_field_overflow_exits_2(monkeypatch, capsys):
    # probe z(1,1) at the top of its exponent field, where x(1,1) steps
    # past it; classical scalars carry no q exponent to overflow first
    top = mono_pack(((0, FIELD_TOP),))
    monkeypatch.setattr(operators, "basis_monomials",
                        lambda cs, degree: iter((top,)))
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--M", "1", "--N", "0", "--degree", "1",
                  "--variant", "classical"])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.err == ("qsuperalg: error: exponent %d of coordinate (1,1) "
                       "leaves the monomial field [0, %d]\n"
                       % (FIELD_TOP + 1, FIELD_TOP))
    assert out.out == ""
