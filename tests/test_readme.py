"""The python examples of README.md run and print what their comments say,
and its ``qsuperalg`` commands exit with 0."""

import contextlib
import io
import os
import re
import shlex

from qsuperalg import cli

README = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "README.md")
COMMAND = re.compile(r"^qsuperalg (.*)$", re.M)
RENDER = re.compile(r"^print\(\w+\.e\[2\]\.render\(\)\)\s+# (.*)$", re.M)


def test_readme_python_blocks_run():
    with open(README, encoding="utf-8") as fh:
        blocks = re.findall(r"```python\n(.*?)```", fh.read(), re.S)
    checked = 0
    for code in blocks:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(code, README, "exec"), {})
        m = RENDER.search(code)
        if m:
            # the e[2] line is the block's first print
            assert code.index("print(") == m.start()
            assert out.getvalue().splitlines()[0] == m.group(1)
            checked += 1
    assert checked


def test_readme_commands_exit_with_zero():
    with open(README, encoding="utf-8") as fh:
        blocks = re.findall(r"```sh\n(.*?)```", fh.read(), re.S)
    commands = [shlex.split(line) for code in blocks
                for line in COMMAND.findall(code)]
    assert commands
    for argv in commands:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0, argv
