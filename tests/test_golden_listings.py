"""Generator listings and the identities report compared byte for byte.

The fixtures hold the output of ``qsuperalg generators`` for every variant
at four ranks, one listing with integer weights, and ``qsuperalg
identities`` up to (M,N) = (7,7).  A change in how a generator formula or
a reduction identity is written must leave all of them unchanged.

Regenerate (only when a listing is meant to change) with
``PYTHONPATH=src python3 tests/test_golden_listings.py``.
"""

import contextlib
import io
import os

import pytest

from qsuperalg.cli import main

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "fixtures")

# fixture name -> command line
COMMANDS = {
    "generators_%s_%d%d.txt" % (variant, M, N):
        ["generators", "--M", str(M), "--N", str(N), "--variant", variant]
    for variant in ("prop2", "prop3", "classical")
    for M, N in ((0, 0), (1, 1), (2, 1), (1, 2))
}
COMMANDS["generators_prop3_11_integer.txt"] = [
    "generators", "--M", "1", "--N", "1", "--weights", "2,-1,3"]
COMMANDS["identities_77.txt"] = ["identities", "--M", "7", "--N", "7"]


def _run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    assert code == 0
    return buf.getvalue()


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_listing_matches_golden_fixture(name):
    with open(os.path.join(FIXTURES, name), encoding="utf-8") as fh:
        want = fh.read()
    assert _run(COMMANDS[name]) == want


if __name__ == "__main__":
    for name, argv in COMMANDS.items():
        with open(os.path.join(FIXTURES, name), "w", encoding="utf-8") as fh:
            fh.write(_run(argv))
