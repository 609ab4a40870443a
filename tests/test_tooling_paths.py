"""The CI workflow and the run docs name only scripts that exist.

Deleting a bench or an example takes its CI step and its doc lines with it:
a dangling path would otherwise fail only in the CI leg that runs it, or
never, in a doc."""

import re
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
