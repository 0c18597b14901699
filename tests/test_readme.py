"""The README's examples: each ``$ relikit …`` command prints what the README shows under it, and each
Quick start Python block prints the values recorded here."""

import re
import shlex
from pathlib import Path

import pytest

from relikit.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
SECTIONS = ("Quick start", "The group-calibration paradox")


def _examples(text: str, title: str) -> list[tuple[list[str], str]]:
    """(argv, stdout) of each command in the console blocks of section ``title``, in order.

    A command ends at the first line without a trailing backslash; its output
    runs to the next command or the end of the block, trailing blank lines cut.
    """
    section = text.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]
    examples = []
    for block in re.findall(r"^```console\n(.*?)^```", section, re.DOTALL | re.MULTILINE):
        for chunk in re.split(r"^\$ ", block, flags=re.MULTILINE)[1:]:
            command, output = re.match(r"((?:[^\n]*\\\n)*[^\n]*)\n(.*)", chunk, re.DOTALL).groups()
            examples.append((shlex.split(command.replace("\\\n", " ")), output.rstrip("\n") + "\n"))
    return examples


EXAMPLES = [example for title in SECTIONS for example in _examples(README.read_text(encoding="utf-8"), title)]


def test_every_example_is_found():
    assert [argv[:2] for argv, _ in EXAMPLES] == [
        ["relikit", "synth"], ["relikit", "fit"], ["relikit", "eval"], ["relikit", "theorem"]]
    assert all(out.strip() and "\\" not in " ".join(argv) for argv, out in EXAMPLES)


def test_console_output_matches_the_readme(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # the commands write and read relative paths, each after the one before
    for argv, expected in EXAMPLES:
        code = main(argv[1:])
        out, err = capsys.readouterr()
        assert (code, err) == (0, ""), " ".join(argv)
        assert out == expected, " ".join(argv)


def _python_blocks(text: str, title: str) -> list[str]:
    """The source of each ```python block of section ``title``, in order."""
    section = text.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^```python\n(.*?)^```", section, re.DOTALL | re.MULTILINE)


# what each Quick start Python block prints: the global temperature and the strong domain's ECE, then
# ece, ada_ece, ks_error and prr of the raw-array example
PRINTED = [
    [[2.8699140413053996], [0.08037847675912826]],
    [[0.2604343173054894, 0.26043431730548877, 0.26043431730548877, -0.2908067542213884]],
]


def test_python_blocks_print_what_the_code_gives(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # the first block writes and reads a relative bench/ directory
    blocks = _python_blocks(README.read_text(encoding="utf-8"), "Quick start")
    assert len(blocks) == len(PRINTED)
    for source, expected in zip(blocks, PRINTED):
        exec(compile(source, "README.md", "exec"), {})
        out, err = capsys.readouterr()
        assert err == ""
        printed = [[float(value) for value in line.split()] for line in out.splitlines()]
        assert printed == [pytest.approx(line, rel=1e-12, abs=1e-15) for line in expected]
