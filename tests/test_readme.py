"""README's examples run as written.

The shell block under `## CLI` and the Python block under `## Library
example` are extracted from README.md and run from the source tree
(PYTHONPATH=src, `adasub` as `python -m adasub.cli`) in a temporary
directory; every command must exit 0, so the documentation cannot drift
from the code.
"""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def readme_block(heading, lang):
    """The first ```lang block of the README section `heading`."""
    text = (ROOT / "README.md").read_text()
    section = text.split("\n%s\n" % heading, 1)[1].split("\n## ", 1)[0]
    match = re.search(r"```%s\n(.*?)```" % lang, section, re.S)
    assert match, "no %s block under %r" % (lang, heading)
    return match.group(1)


def run(args, cwd):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    res = subprocess.run(args, cwd=cwd, env=env, capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, (args, res.stdout, res.stderr)


def test_cli_examples_run(tmp_path):
    lines = readme_block("## CLI", "sh").replace("\\\n", " ").splitlines()
    commands = [cmd for cmd in (shlex.split(line, comments=True) for line in lines) if cmd]
    assert commands and all(cmd[0] == "adasub" for cmd in commands), commands
    for cmd in commands:
        run([sys.executable, "-m", "adasub.cli"] + cmd[1:], tmp_path)


def test_library_example_runs(tmp_path):
    run([sys.executable, "-c", readme_block("## Library example", "python")], tmp_path)
