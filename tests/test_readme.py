"""The python examples of README.md run and print what their comments say,
its ``qsuperalg`` commands exit with 0, and its flag table lists exactly the
flags each subcommand takes."""

import contextlib
import io
import os
import re
import shlex

import pytest

from qsuperalg import cli

README = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "README.md")
COMMAND = re.compile(r"^qsuperalg (.*)$", re.M)
RENDER = re.compile(r"^print\(\w+\.e\[2\]\.render\(\)\)\s+# (.*)$", re.M)
# a row of the flag table: | `subcommand` | `--flag --flag ...` |
FLAG_ROW = re.compile(r"^\| `([a-z0-9-]+)` +\| `([^`]*)`", re.M)


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


def test_readme_flag_table_matches_the_parser():
    with open(README, encoding="utf-8") as fh:
        rows = FLAG_ROW.findall(fh.read())
    assert sorted(cmd for cmd, _ in rows) == [
        "example-sl21", "generators", "identities", "verify"]
    parser = cli.build_parser()
    for cmd, listed in rows:
        listed = [flag[2:] for flag in listed.split()]
        assert set(listed) <= set(cli._FLAGS), cmd
        for flag, spec in cli._FLAGS.items():
            value = spec.get("choices", ("1",))[0]
            argv = [cmd, "--" + flag, value]
            if flag in listed:
                assert str(getattr(parser.parse_args(argv), flag)) == value
            else:
                with pytest.raises(SystemExit) as exc:
                    parser.parse_args(argv)
                assert exc.value.code == 2, argv
