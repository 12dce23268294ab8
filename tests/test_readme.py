"""The README's Quick start examples run and print what their comments say."""
import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start_blocks():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Quick start\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, re.S)


def stated_output(code):
    """The comment lines that end a block: the output it says it prints."""
    lines = code.rstrip("\n").splitlines()
    stated = []
    while lines and lines[-1].startswith("# "):
        stated.insert(0, lines.pop()[2:])
    return stated


def test_quick_start_prints_what_it_states():
    blocks = quick_start_blocks()
    assert len(blocks) == 2
    stated = [stated_output(code) for code in blocks]
    assert stated == [["0 1 2/3 strictly_preferred"],
                      ["converged 5 (0, 5, 5, 0)"]]
    for code, expected in zip(blocks, stated):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(code, str(README), "exec"), {})
        assert out.getvalue().splitlines() == expected
