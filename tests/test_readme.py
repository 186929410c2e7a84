"""The README's library quick start runs as printed, and its configuration
block lists the keys of `cli.CONFIG_SCHEMA`."""

import contextlib
import io
import pathlib
import re

from conelab.cli import CONFIG_SCHEMA

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def _quick_start() -> str:
    text = README.read_text()
    section = text.split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_quick_start_runs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(_quick_start(), str(README), "exec"), {})
    assert out.getvalue().split() == ["True"]


def _ini_keys() -> dict[str, set[str]]:
    """Section -> keys of the README's ini block.

    A line that opens with `[section]` starts a section; an indented line
    continues it.  A key is a name at the start of the line's text or after
    a comma, followed by `=`, a comma or the end; `;` starts a comment.
    """
    block = re.search(r"```ini\n(.*?)```", README.read_text(), re.S).group(1)
    keys: dict[str, set[str]] = {}
    for line in block.splitlines():
        text = line.split(";", 1)[0]
        head = re.match(r"\[(\w+)\]", text)
        if head:
            section = head.group(1)
            keys[section] = set()
            text = text[head.end():]
        keys[section] |= set(re.findall(
            r"(?:^|,)\s*([A-Za-z_]\w*)\s*(?==|,|$)", text.strip()))
    return keys


def test_config_block_lists_the_schema_keys():
    readme = _ini_keys()
    schema = {sec: set(keys) for sec, keys in CONFIG_SCHEMA.items()}
    assert readme == schema
