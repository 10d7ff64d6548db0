"""Let the tests that run ``python3 -m qsuperalg.cli`` as a subprocess
import the same source tree as the tests themselves, which pytest puts on
``sys.path`` (``pythonpath`` in pyproject.toml) but not on the
subprocesses' ``PYTHONPATH``."""

import os

import qsuperalg

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(qsuperalg.__file__)))
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
