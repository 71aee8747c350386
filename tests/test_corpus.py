"""Golden command-line outputs, checked in as digests.

Each case is an argv run through ``cli.main`` in-process; the manifest
records its exit status and the sha256 of its stdout and of its stderr.
The manifest was written from the tree before this module was added, so
every digest is an output the command already printed.  A change that
moves a digest names the case and the reason in CHANGES.md, then
rewrites the manifest with

    PYTHONPATH=src python tests/test_corpus.py --write

Group ``fixtures``: the five bundled example graphs under every analysis
command that reads a graph file, each as text and as ``--json``.
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from cdindex.cli import main

FIXTURE_DIR = Path(__file__).resolve().parents[1] / "fixtures"
MANIFEST = Path(__file__).resolve().parent / "corpus" / "fixtures.json"

FIXTURES = ("fig1_left", "fig1_right", "fig2_relation_i", "fig2_relation_ii", "fig3_b3")
# case name: the subcommand and its flags, the graph file added after them
COMMANDS = {
    "cdindex": ["cdindex"],
    "cdindex-ab": ["cdindex", "--ab"],
    "balance": ["balance"],
    "qsym": ["qsym"],
    "qsym-M": ["qsym", "--basis", "M"],
    "alexander-all": ["alexander", "--all"],
}


def fixture_cases() -> list:
    """(case id, argv) for every fixture, command and output form."""
    return [
        (f"{fixture}/{command}/{form}", [*argv, "--graph", str(FIXTURE_DIR / f"{fixture}.json"), *extra])
        for fixture in FIXTURES
        for command, argv in COMMANDS.items()
        for form, extra in (("text", []), ("json", ["--json"]))
    ]


CASES = fixture_cases()


def run_case(argv: list) -> tuple:
    """(exit status, stdout, stderr) of ``cli.main(argv)``, run in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def digest(code: int, out: str, err: str) -> dict:
    return {
        "exit": code,
        "stdout_sha256": hashlib.sha256(out.encode("utf-8")).hexdigest(),
        "stderr_sha256": hashlib.sha256(err.encode("utf-8")).hexdigest(),
    }


def test_manifest_lists_every_case_once():
    recorded = json.loads(MANIFEST.read_text(encoding="utf-8"))
    assert [case["id"] for case in recorded] == [case_id for case_id, _ in CASES]


@pytest.mark.parametrize("case_id, argv", CASES, ids=[case_id for case_id, _ in CASES])
def test_fixture_case(case_id, argv):
    code, out, err = run_case(argv)
    assert str(FIXTURE_DIR) not in out + err  # no output depends on the checkout path
    recorded = {case["id"]: case for case in json.loads(MANIFEST.read_text(encoding="utf-8"))}
    assert {"id": case_id, **digest(code, out, err)} == recorded[case_id]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_corpus.py --write")
    cases = [{"id": case_id, **digest(*run_case(argv))} for case_id, argv in CASES]
    MANIFEST.parent.mkdir(exist_ok=True)
    MANIFEST.write_text(json.dumps(cases, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {len(cases)} cases to {MANIFEST.name}")
