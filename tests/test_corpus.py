"""Golden command-line outputs, checked in as digests.

Each case is an argv run through ``cli.main`` in-process; its group's
manifest records its exit status and the sha256 of its stdout and of its
stderr.  Each manifest was written from the tree before the code its
group pins was changed, so every digest is an output the command already
printed.  A change that moves a digest names the case and the reason in
CHANGES.md, then rewrites the manifests with

    PYTHONPATH=src python tests/test_corpus.py --write

Each group has its own manifest under ``corpus/``:

* ``fixtures``: the five bundled example graphs under every analysis
  command that reads a graph file, each as text and as ``--json``;
* ``dihedral``: ``bruhat --type I2`` with all four value flags on every
  interval [identity, length-k element] of I2(m), 2 <= m <= 8, each as
  text and as ``--json``;
* ``realized``: ``construct --json`` on c^0, ..., c^10 and on 20 seeded
  nonnegative cd-polynomials of degree at most 5.
"""

import contextlib
import hashlib
import io
import json
import random
import sys
from pathlib import Path

import pytest

from cdindex.cli import main
from cdindex.ncpoly import CdPoly, cd_words_of_degree

FIXTURE_DIR = Path(__file__).resolve().parents[1] / "fixtures"
CORPUS_DIR = Path(__file__).resolve().parent / "corpus"

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


def dihedral_cases() -> list:
    """(case id, argv) for every interval of I2(2) .. I2(8) and output form."""
    values = ["--complete-cd", "--poset-cd", "--r-poly", "--r-poly-dyer"]
    return [
        (f"I2({m})/k={k}/{form}", ["bruhat", "--type", "I2", "--m", str(m), "--k", str(k), *values, *extra])
        for m in range(2, 9)
        for k in range(1, m + 1)
        for form, extra in (("text", []), ("json", ["--json"]))
    ]


def realized_polynomials() -> list:
    """c^0 .. c^10, then 20 more seeded nonnegative cd-polynomials of degree at most 5."""
    rng = random.Random(27)
    polys = [CdPoly({"c" * i: 1}) for i in range(11)]
    while len(polys) < 31:
        terms = {}
        for _ in range(rng.randint(1, 4)):
            terms[rng.choice(list(cd_words_of_degree(rng.randint(0, 5))))] = rng.randint(1, 3)
        if CdPoly(terms) not in polys:
            polys.append(CdPoly(terms))
    return polys


def realized_cases() -> list:
    """(case id, argv) of ``construct --json`` on every realized polynomial."""
    return [(f"{p}/json", ["construct", "--cd", str(p), "--json"]) for p in realized_polynomials()]


GROUPS = {
    "fixtures": fixture_cases(),
    "dihedral": dihedral_cases(),
    "realized": realized_cases(),
}


def manifest(group: str) -> dict:
    """The recorded digests of a group's cases, by case id."""
    recorded = json.loads((CORPUS_DIR / f"{group}.json").read_text(encoding="utf-8"))
    return {case["id"]: case for case in recorded}


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
    for group, cases in GROUPS.items():
        assert [*manifest(group)] == [case_id for case_id, _ in cases], group


def check_case(group: str, case_id: str, argv: list) -> None:
    code, out, err = run_case(argv)
    assert str(FIXTURE_DIR) not in out + err  # no output depends on the checkout path
    assert {"id": case_id, **digest(code, out, err)} == manifest(group)[case_id]


def _ids(group: str) -> list:
    return [case_id for case_id, _ in GROUPS[group]]


@pytest.mark.parametrize("case_id, argv", GROUPS["fixtures"], ids=_ids("fixtures"))
def test_fixture_case(case_id, argv):
    check_case("fixtures", case_id, argv)


@pytest.mark.parametrize("case_id, argv", GROUPS["dihedral"], ids=_ids("dihedral"))
def test_dihedral_case(case_id, argv):
    check_case("dihedral", case_id, argv)


@pytest.mark.parametrize("case_id, argv", GROUPS["realized"], ids=_ids("realized"))
def test_realized_case(case_id, argv):
    check_case("realized", case_id, argv)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_corpus.py --write")
    CORPUS_DIR.mkdir(exist_ok=True)
    for group, group_cases in GROUPS.items():
        cases = [{"id": case_id, **digest(*run_case(argv))} for case_id, argv in group_cases]
        path = CORPUS_DIR / f"{group}.json"
        path.write_text(json.dumps(cases, indent=2) + "\n", encoding="utf-8")
        print(f"wrote {len(cases)} cases to {path.name}")
