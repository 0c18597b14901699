"""The README's console examples: each ``$ relikit …`` command prints what the README shows under it."""

import re
import shlex
from pathlib import Path

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
