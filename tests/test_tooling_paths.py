"""The CI workflow and the run docs name only scripts that exist, and
every ``python -m repro`` command in the workflow parses.

Deleting a bench, an example or a CLI flag takes its CI step and its doc
lines with it: a dangling path or flag would otherwise fail only in the CI
leg that runs it, or never, in a doc."""

import re
import shlex
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DOCS = (".github/workflows/ci.yml", "benchmarks/README.md", ".claude/skills/verify/SKILL.md")
#: a script path from the repo root (globs allowed: ``benchmarks/bench_fig*.py``)
ROOTED = re.compile(r"\b(?:benchmarks|examples)/[\w*./-]*\.py\b")
#: a bare bench file name, as the benchmarks README's table writes it
BARE = re.compile(r"(?<![\w/*])bench_[\w*]*\.py\b")


def _named_scripts(text: str):
    yield from ROOTED.findall(text)
    yield from (f"benchmarks/{name}" for name in BARE.findall(text))


@pytest.mark.parametrize("doc", DOCS)
def test_every_script_a_doc_names_exists(doc):
    names = sorted(set(_named_scripts((ROOT / doc).read_text())))
    assert names, f"{doc} names no script: the pattern went stale"
    missing = [name for name in names if not list(ROOT.glob(name))]
    assert not missing, f"{doc} names scripts that do not exist: {missing}"


#: ``python -m repro <args>`` up to a pipe or the end of the line
REPRO_CMD = re.compile(r"python -m repro ([^|]*)")
#: shell redirections and a trailing ``&``
REDIRECT = re.compile(r"\s(?:\d?>>?|<<?)\s*\S+|\s&\s*$")


def _ci_repro_commands():
    text = (ROOT / ".github/workflows/ci.yml").read_text()
    # the serve leg names its submit command once and reuses it as $SUBMIT
    submit = re.search(r'SUBMIT="([^"]*)"', text)
    for line in text.splitlines():
        if submit is not None:
            if submit.group(0) in line:
                continue  # checked through every line that uses it
            line = line.replace("$SUBMIT", submit.group(1))
        match = REPRO_CMD.search(line)
        if match:
            yield shlex.split(REDIRECT.sub("", match.group(1)))


def test_every_ci_repro_command_parses():
    from repro.runtime.cli import _build_parser

    commands = list(_ci_repro_commands())
    assert {"run", "serve", "submit", "campaign", "worker"} <= {c[0] for c in commands}
    parser = _build_parser()
    bad = []
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            bad.append(" ".join(argv))
    assert not bad, f"ci.yml runs repro commands the CLI rejects: {bad}"
