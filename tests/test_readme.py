"""README's examples run as shown.

Each `$ scamo-lab ...` command in a `sh` block of README.md that reads no file
runs in bash, and its stdout must match the text shown under it. A line that
is only `...` stands for any number of lines, and a `...` inside a line for
any text, across lines too (`{ ... "agrees": true }` is an object whose last
entry is shown); whitespace around such an elision may differ. Every other
line must match exactly.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _examples(text: str) -> list[tuple[str, str]]:
    """(command, shown stdout) for each `$ ` command of each sh block, continuation lines joined."""
    examples = []
    for block in re.findall(r"^```sh\n(.*?)^```", text, re.S | re.M):
        for chunk in re.split(r"^\$ ", block, flags=re.M)[1:]:
            command, shown = re.match(r"((?:.*\\\n)*.*)\n?([\s\S]*)", chunk).groups()
            examples.append((command, shown))
    return examples


def _pattern(shown: str) -> str:
    lines = []
    for line in shown.splitlines():
        if line.strip() == "...":
            lines.append(r"(?:[^\n]*\n)*?")
        elif "..." in line:
            pieces = (r"\s+".join(map(re.escape, piece.split())) for piece in line.split("..."))
            indent = line[:len(line) - len(line.lstrip())]
            lines.append(re.escape(indent) + r"\s*[\s\S]*?\s*".join(pieces) + r"\n")
        else:
            lines.append(re.escape(line) + r"\n")
    return "".join(lines)


EXAMPLES = [(command, shown) for command, shown in _examples((ROOT / "README.md").read_text())
            if command.startswith("scamo-lab") or "| scamo-lab" in command
            if not re.search(r"\.(csv|jsonl?)\b", command)]  # commands that read or write a file


def test_the_file_free_examples_are_found():
    assert [re.findall(r"scamo-lab (\w+)", command) for command, _ in EXAMPLES] == [
        ["flops"], ["fsq"], ["fsq"], ["normloss"], ["plan"], ["synth"], ["synth", "fit"]]


@pytest.mark.parametrize("command, shown", EXAMPLES, ids=[c.split("\n")[0] for c, _ in EXAMPLES])
def test_a_readme_example_prints_what_readme_shows(command, shown):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    script = f'set -o pipefail\nscamo-lab() {{ "$PYTHON" -m scamo_lab "$@"; }}\n{command}\n'
    proc = subprocess.run(["bash", "-c", script], capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHON": sys.executable, "PYTHONPATH": path})
    assert (proc.returncode, proc.stderr) == (0, "")
    assert re.fullmatch(_pattern(shown), proc.stdout), proc.stdout
