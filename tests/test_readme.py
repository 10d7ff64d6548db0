"""The python examples of README.md run and print what their comments say."""

import contextlib
import io
import os
import re

README = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "README.md")
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
