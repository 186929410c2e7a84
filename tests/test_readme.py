"""The README's library quick start runs as printed, and its configuration
block lists the keys of `cli.CONFIG_SCHEMA` with their defaults and
intervals."""

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


def _split_top_level(text: str) -> list[str]:
    """Split at the commas outside brackets, so `[16, 100000]` stays whole."""
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        depth += (ch in "[(") - (ch in "])")
        if ch == "," and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    return parts + [text[start:]]


_INTERVAL = r"[\[(][^\])]*[\])]"


def _ini_entries() -> dict[str, dict[str, tuple[str | None, str | None]]]:
    """Section -> key -> (printed value, printed interval) of the README's
    ini block.

    A line that opens with `[section]` starts a section; an indented line
    continues it; `;` starts a comment.  Entries are separated by commas
    outside brackets and read `key`, `key = value` or `key = value in
    INTERVAL`, optionally followed by a note in parentheses.  A comment
    `each in INTERVAL` gives its interval to every key of the section whose
    value is a number and that prints no interval of its own.
    """
    block = re.search(r"```ini\n(.*?)```", README.read_text(), re.S).group(1)
    entries: dict[str, dict] = {}
    shared: dict[str, str] = {}
    for line in block.splitlines():
        text, _, comment = line.partition(";")
        head = re.match(r"\[(\w+)\]", text)
        if head:
            section = head.group(1)
            entries[section] = {}
            text = text[head.end():]
        each = re.search(rf"each in ({_INTERVAL})", comment)
        if each:
            shared[section] = each.group(1)
        for entry in filter(None, map(str.strip, _split_top_level(text))):
            m = re.fullmatch(
                rf"(\w+)(?:\s*=\s*(.*?))?(?:\s+in\s+({_INTERVAL}).*)?", entry)
            assert m, f"unreadable entry {entry!r} in [{section}]"
            entries[section][m.group(1)] = m.group(2, 3)
    for section, interval in shared.items():
        for key, (value, own) in entries[section].items():
            if own is None and _is_number(value):
                entries[section][key] = (value, interval)
    return entries


def _is_number(text: str | None) -> bool:
    try:
        float(text)
    except (TypeError, ValueError):
        return False
    return True


def test_config_block_lists_the_schema_keys():
    readme = {sec: set(keys) for sec, keys in _ini_entries().items()}
    schema = {sec: set(keys) for sec, keys in CONFIG_SCHEMA.items()}
    assert readme == schema


def test_config_block_prints_the_schema_defaults_and_intervals():
    # a string key prints its choices as `a | b | ...`, the default first,
    # or its default alone when it has none; a key printed without
    # `= value` has the empty default
    for section, keys in _ini_entries().items():
        for key, (value, interval) in keys.items():
            parse, default, *extra = CONFIG_SCHEMA[section][key]
            name = f"{section}.{key}"
            if value is None:
                assert default == "", name
            elif parse is str:
                choices = extra.pop() if extra else (default,)
                assert choices[0] == default, name
                assert [v.strip() for v in value.split("|")] == [*choices], \
                    name
            else:
                assert parse(value) == default, name
            assert interval == (extra or [None])[0], name
