"""End-to-end tests of the command-line interface (run as a subprocess)."""

import json
import os
import subprocess
import sys

from qsuperalg.superpoly import CoordSystem
from qsuperalg.operators import op_eq_on_basis
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
        assert op_eq_on_basis(built["t%d" % i], gens.t[i], 2)[0]
        assert op_eq_on_basis(built["e%d" % i], gens.e[i], 2)[0]
        assert op_eq_on_basis(built["f%d" % i], gens.f[i], 2)[0]


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
    out = run_cli("verify", "--M", "1", "--N", "0", "--degree", "2",
                  "--mode", "integer", "--weights", "3,-1")
    assert out.returncode == 0


def test_usage_errors_exit_2():
    assert run_cli().returncode == 2
    assert run_cli("bogus").returncode == 2
    assert run_cli("verify", "--variant", "bogus").returncode == 2
    assert run_cli("verify", "--mode", "integer").returncode == 2
    assert run_cli("verify", "--mode", "integer",
                   "--weights", "1,2,3").returncode == 2
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
