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
* ``realized``: ``construct --json`` on c^0, ..., c^10, on 20 seeded
  nonnegative cd-polynomials of degree at most 5 and on dcd + 2*cdd + c;
* ``qsym``: ``qsym`` and ``qsym --basis M`` on every Bruhat interval
  [u, v] of S4 with u < v, each as text and as ``--json``.  The intervals
  are written to a temporary directory with vertices in one-line notation,
  labels ``"ij"`` for the transposition (i, j), and the lexicographic
  linear order on the labels;
* ``alexander``: on the same S4 intervals, ``alexander --all`` on those
  with at most 12 interior vertices, and ``alexander --subset`` on the
  others, with a seeded split of half the interior; each as text and as
  ``--json``;
* ``sweep``: ``alexander --all``, each as text and as ``--json``, on the
  realized c^1, ..., c^8, on a seeded sample of S5 intervals with 14 and
  16 interior vertices, on the Boolean lattice B3 renamed so that its
  vertex names need JSON escapes or are JSON ints, and on four graphs it
  refuses with exit status 2: the realized c^10 (20 interior vertices),
  B3 with two vertices that print alike, an unbalanced chain and the
  mixed-parity ``fig1_left``.  The graphs are written to a temporary
  directory beside the S4 intervals.
* ``exits``: exits 1 and 2, and one seeded search, each as text and as
  ``--json``: the exit-2 refusals of ``MAX_REALIZE_EDGES``,
  ``MAX_CHECK_AB_WORDS``, ``MAX_SEARCH_VERTICES``, ``MAX_M`` and
  ``MAX_M_TERMS`` (``qsym --basis M`` on an 18-edge rising chain), a
  directed cycle, malformed JSON, a graph file that is a JSON list and
  one whose relation is, ``cdindex``'s exit-1 residual on a falling
  chain, ``search --trials 1000 --seed 42``, then the exit-2 refusals
  of an edge entry missing its label, an edge entry that is a list, an
  unknown relation mode, a label twice in a linear order, a vertex
  listed twice, and ``bruhat --n 4`` on an interval of S3.  Its graph files
  are named relative to the directory the cases run in, because the
  malformed file's message names the file as it was given.
* ``search``: ``search --trials 1000`` at seeds 1, 2 and 3 with vertex
  caps 2, 3, 5, 12 and 40, and ``search --trials 200 --seed 42
  --max-vertices 40``, each as text and as ``--json``.
* ``conjecture``: ``balance``, ``cdindex``, ``cdindex --ab``, ``qsym`` and
  ``alexander --all``, each as text and as ``--json``, on the labeling of
  the Boolean lattice B3 by 0 < 1 < 2 that repeats labels along paths,
  which the library calls balanced with cd-index 2cc - d, and on its
  strict twin: x ~ y iff x < y, each label l replaced by 2 - l.  The
  graphs are written to a temporary directory beside the S4 intervals.
* ``bruhat``: ``bruhat --n`` with all four value flags on every Bruhat
  interval [u, v] of S4 with u < v and on a seeded sample of
  ``BRUHAT_S5_SAMPLE`` such intervals of S5, each as text and as
  ``--json``.
* ``intervals``: ``cdindex`` and ``balance`` on the same S4 interval
  files as ``qsym``, each as text and as ``--json``.
"""

import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile
from functools import lru_cache
from pathlib import Path

import pytest

from cdindex.cli import main
from cdindex.construct import realize
from cdindex.coxeter import bruhat_graph_sn
from cdindex.digraph import to_json_dict
from cdindex.ncpoly import CdPoly, cd_words_of_degree, parse_cd

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
    """c^0 .. c^10, 20 seeded nonnegative cd-polynomials of degree at most 5, then dcd + 2*cdd + c."""
    rng = random.Random(27)
    polys = [CdPoly({"c" * i: 1}) for i in range(11)]
    while len(polys) < 31:
        terms = {}
        for _ in range(rng.randint(1, 4)):
            terms[rng.choice(list(cd_words_of_degree(rng.randint(0, 5))))] = rng.randint(1, 3)
        if CdPoly(terms) not in polys:
            polys.append(CdPoly(terms))
    return polys + [parse_cd("dcd + 2*cdd + c")]


def realized_cases() -> list:
    """(case id, argv) of ``construct --json`` on every realized polynomial."""
    return [(f"{p}/json", ["construct", "--cd", str(p), "--json"]) for p in realized_polynomials()]


def bruhat_intervals(n: int) -> dict:
    """Every Bruhat interval [u, v] of Sn with u < v in graph-file form, by "u-v"."""
    bg = bruhat_graph_sn(n)
    order = [f"{i}{j}" for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    return {
        f"{u}-{v}": {
            "vertices": [str(x) for x in sub.vertices],
            "edges": [
                {"tail": str(e.tail), "head": str(e.head), "label": "".join(map(str, e.label))}
                for e in sub.edges
            ],
            "relation": {"mode": "linear", "order": order},
        }
        for u in bg.graph.vertices
        for v in bg.graph.vertices
        if u != v and bg.leq(u, v)
        for sub in [bg.interval(u, v)]
    }


@lru_cache(maxsize=None)
def s4_intervals() -> dict:
    """Every S4 Bruhat interval [u, v] with u < v in graph-file form, by "u-v"."""
    return bruhat_intervals(4)


def write_intervals(root: Path) -> None:
    """Write every graph the corpus reads into ``root``; a str is a file's text as it is."""
    graphs = {**s4_intervals(), **sweep_graphs(), **exits_graphs(), **conjecture_graphs()}
    for name, data in graphs.items():
        text = data if isinstance(data, str) else json.dumps(data)
        (root / f"{name}.json").write_text(text, encoding="utf-8")


def qsym_cases() -> list:
    """(case id, argv) for every S4 interval, basis and output form.

    The graph file is named relative to the directory ``write_intervals`` fills.
    """
    return [
        (f"{name}/{command}/{form}", [*argv, "--graph", f"{name}.json", *extra])
        for name in s4_intervals()
        for command, argv in (("qsym", ["qsym"]), ("qsym-M", ["qsym", "--basis", "M"]))
        for form, extra in (("text", []), ("json", ["--json"]))
    ]


# the largest interior ``alexander --all`` runs on in the ``alexander`` group
SWEPT_INTERIOR = 12


def intervals_cases() -> list:
    """(case id, argv) of ``cdindex`` and ``balance`` on every S4 interval and output form."""
    return [
        (f"{name}/{command}/{form}", [*COMMANDS[command], "--graph", f"{name}.json", *extra])
        for name in s4_intervals()
        for command in ("cdindex", "balance")
        for form, extra in (("text", []), ("json", ["--json"]))
    ]


def alexander_cases() -> list:
    """(case id, argv) for every S4 interval and output form.

    An interval with at most ``SWEPT_INTERIOR`` interior vertices runs
    ``--all``; a larger one checks one split, half its interior drawn by a
    generator seeded with the interval's name.
    """
    cases = []
    for name, data in s4_intervals().items():
        interior = [x for x in data["vertices"] if x not in name.split("-")]
        if len(interior) <= SWEPT_INTERIOR:
            command, argv = "alexander-all", ["alexander", "--all"]
        else:
            split = random.Random(name).sample(interior, len(interior) // 2)
            command, argv = "alexander-subset", ["alexander", "--subset", ",".join(sorted(split))]
        for form, extra in (("text", []), ("json", ["--json"])):
            cases.append((f"{name}/{command}/{form}", [*argv, "--graph", f"{name}.json", *extra]))
    return cases


# the interior sizes of the S5 intervals in the ``sweep`` group, one interval drawn per entry
SWEEP_S5_INTERIOR = (14, 14, 16)


def _renamed(data: dict, names: dict) -> dict:
    """A graph file with its vertices renamed; a vertex missing from ``names`` keeps its name."""
    def name(v):
        return names.get(v, v)

    return {
        "vertices": [name(v) for v in data["vertices"]],
        "edges": [{**e, "tail": name(e["tail"]), "head": name(e["head"])} for e in data["edges"]],
        "relation": data["relation"],
    }


@lru_cache(maxsize=None)
def sweep_graphs() -> dict:
    """The graphs of the ``sweep`` group in graph-file form, by file name."""
    graphs = {f"c{i}": to_json_dict(realize(CdPoly({"c" * i: 1}))) for i in (*range(1, 9), 10)}
    s5 = bruhat_intervals(5)
    by_size: dict = {}
    for name, data in s5.items():
        by_size.setdefault(len(data["vertices"]) - 2, []).append(name)
    rng = random.Random(31)
    for size in SWEEP_S5_INTERIOR:
        name = rng.choice([n for n in by_size[size] if n not in graphs])  # no interval twice
        graphs[name] = s5[name]
    b3 = json.loads((FIXTURE_DIR / "fig3_b3.json").read_text(encoding="utf-8"))
    graphs["escaped"] = _renamed(b3, {
        "1": 'q"uote', "2": "back\\slash", "3": "\u00e9\U0001f600", "12": "\x07bell", "13": 10, "23": 2,
    })
    graphs["alike"] = _renamed(b3, {"2": 1})
    graphs["unbalanced"] = {
        "vertices": ["x", "y", "z"],
        "edges": [{"tail": "x", "head": "y", "label": "1"}, {"tail": "y", "head": "z", "label": "2"}],
        "relation": {"mode": "linear", "order": ["1", "2"]},
    }
    graphs["parity"] = json.loads((FIXTURE_DIR / "fig1_left.json").read_text(encoding="utf-8"))
    return graphs


def sweep_cases() -> list:
    """(case id, argv) of ``alexander --all`` on every ``sweep`` graph and output form."""
    return [
        (f"{name}/alexander-all/{form}", ["alexander", "--all", "--graph", f"{name}.json", *extra])
        for name in sweep_graphs()
        for form, extra in (("text", []), ("json", ["--json"]))
    ]


def _chain(labels: list) -> dict:
    """A path graph v0 -> v1 -> ... whose edges carry ``labels``, ordered as ints."""
    return {
        "vertices": [f"v{i}" for i in range(len(labels) + 1)],
        "edges": [{"tail": f"v{i}", "head": f"v{i + 1}", "label": str(l)} for i, l in enumerate(labels)],
        "relation": {"mode": "linear", "order": [str(l) for l in sorted(labels)]},
    }


@lru_cache(maxsize=None)
def exits_graphs() -> dict:
    """The graph files of the ``exits`` group, by file name; malformed JSON as its text."""
    return {
        "rising18": _chain(list(range(18))),
        "falling3": _chain([3, 2, 1]),
        "cycle": {
            "vertices": ["x", "y", "z"],
            "edges": [{"tail": t, "head": h, "label": "1"} for t, h in ["xy", "yz", "zx"]],
            "relation": {"mode": "linear", "order": ["1"]},
        },
        "malformed": '{"vertices": [',
        "not-object": "[1, 2]",
        "relation-list": {**_chain([1]), "relation": ["linear", "1"]},
        "edge-no-label": {**_chain([1]), "edges": [{"tail": "v0", "head": "v1"}]},
        "edge-list": {**_chain([1]), "edges": [["v0", "v1", "1"]]},
        "relation-mode": {**_chain([1]), "relation": {"mode": "partial", "order": ["1"]}},
        "labels-twice": {**_chain([1]), "relation": {"mode": "linear", "order": ["1", "1"]}},
        "vertex-twice": {**_chain([1]), "vertices": ["v0", "v1", "v0"]},
    }


def exits_cases() -> list:
    """(case id, argv) of every command of the ``exits`` group and output form.

    The graph files are named relative to the directory ``write_intervals``
    fills, and the cases run inside it.
    """
    commands = {
        "construct-edges": ["construct", "--cd", "15001*c"],
        "construct-ab-words": ["construct", "--cd", "c" * 17],
        "search-vertices": ["search", "--trials", "1", "--seed", "1", "--max-vertices", "20001"],
        "bruhat-m": ["bruhat", "--type", "I2", "--m", "513", "--k", "1"],
        "qsym-M-terms": ["qsym", "--basis", "M", "--graph", "rising18.json"],
        "cycle": ["balance", "--graph", "cycle.json"],
        "malformed": ["balance", "--graph", "malformed.json"],
        "not-object": ["balance", "--graph", "not-object.json"],
        "relation-list": ["balance", "--graph", "relation-list.json"],
        "cdindex-residual": ["cdindex", "--graph", "falling3.json"],
        "search-seed-42": ["search", "--trials", "1000", "--seed", "42"],
        "edge-no-label": ["balance", "--graph", "edge-no-label.json"],
        "edge-list": ["balance", "--graph", "edge-list.json"],
        "relation-mode": ["balance", "--graph", "relation-mode.json"],
        "labels-twice": ["balance", "--graph", "labels-twice.json"],
        "vertex-twice": ["balance", "--graph", "vertex-twice.json"],
        "bruhat-interval-n": ["bruhat", "--n", "4", "--interval", "123:4321"],
    }
    return [
        (f"{name}/{form}", [*argv, *extra])
        for name, argv in commands.items()
        for form, extra in (("text", []), ("json", ["--json"]))
    ]


def search_cases() -> list:
    """(case id, argv) of every seeded ``search`` of the ``search`` group and output form."""
    runs = [(1000, seed, cap) for seed in (1, 2, 3) for cap in (2, 3, 5, 12, 40)] + [(200, 42, 40)]
    return [
        (
            f"trials={trials}/seed={seed}/max-vertices={cap}/{form}",
            ["search", "--trials", str(trials), "--seed", str(seed), "--max-vertices", str(cap), *extra],
        )
        for trials, seed, cap in runs
        for form, extra in (("text", []), ("json", ["--json"]))
    ]


# the labels 0 < 1 < 2 of the B3 fixture's edges, in its edge order, in the ``conjecture`` group
B3_TIES_LABELS = (0, 2, 2, 0, 1, 1, 0, 1, 2, 0, 0, 2)


@lru_cache(maxsize=None)
def conjecture_graphs() -> dict:
    """The B3 labeling with ties and its strict twin in graph-file form, by file name."""
    b3 = json.loads((FIXTURE_DIR / "fig3_b3.json").read_text(encoding="utf-8"))

    def labeled(labels, relation):
        edges = [{**e, "label": str(l)} for e, l in zip(b3["edges"], labels)]
        return {**b3, "edges": edges, "relation": relation}

    return {
        "b3-ties": labeled(B3_TIES_LABELS, {"mode": "linear", "order": ["0", "1", "2"]}),
        "b3-strict": labeled(
            [2 - l for l in B3_TIES_LABELS],
            {"mode": "pairs", "pairs": [["0", "1"], ["0", "2"], ["1", "2"]]},
        ),
    }


def conjecture_cases() -> list:
    """(case id, argv) of every command of the ``conjecture`` group on both graphs and output form."""
    return [
        (f"{name}/{command}/{form}", [*COMMANDS[command], "--graph", f"{name}.json", *extra])
        for name in conjecture_graphs()
        for command in ("balance", "cdindex", "cdindex-ab", "qsym", "alexander-all")
        for form, extra in (("text", []), ("json", ["--json"]))
    ]


# the number of S5 intervals in the ``bruhat`` group, drawn by a seeded generator
BRUHAT_S5_SAMPLE = 30


def bruhat_pairs(n: int) -> list:
    """Every pair (u, v) of Sn with u < v in the Bruhat order, in vertex order."""
    bg = bruhat_graph_sn(n)
    return [(u, v) for u in bg.graph.vertices for v in bg.graph.vertices if u != v and bg.leq(u, v)]


def bruhat_cases() -> list:
    """(case id, argv) of ``bruhat`` with every value flag, per S4 interval, S5 sample and form."""
    pairs = bruhat_pairs(4) + random.Random(5).sample(bruhat_pairs(5), BRUHAT_S5_SAMPLE)
    values = ["--complete-cd", "--poset-cd", "--r-poly", "--r-poly-dyer"]
    return [
        (f"{u}-{v}/{form}", ["bruhat", "--n", str(len(u)), "--interval", f"{u}:{v}", *values, *extra])
        for u, v in pairs
        for form, extra in (("text", []), ("json", ["--json"]))
    ]


def in_dir(root: Path, argv: list) -> list:
    """argv with a relative graph file name resolved inside ``root``; absolute ones stay."""
    return [str(root / a) if a.endswith(".json") else a for a in argv]


GROUPS = {
    "fixtures": fixture_cases(),
    "dihedral": dihedral_cases(),
    "realized": realized_cases(),
    "qsym": qsym_cases(),
    "alexander": alexander_cases(),
    "sweep": sweep_cases(),
    "exits": exits_cases(),
    "search": search_cases(),
    "conjecture": conjecture_cases(),
    "bruhat": bruhat_cases(),
    "intervals": intervals_cases(),
}


@lru_cache(maxsize=None)
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


def check_case(group: str, case_id: str, argv: list, root: Path = FIXTURE_DIR) -> None:
    code, out, err = run_case(argv)
    assert str(root) not in out + err  # no output depends on where the graph file is
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


@pytest.fixture(scope="module")
def interval_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("s4")
    write_intervals(root)
    return root


@pytest.mark.parametrize("case_id, argv", GROUPS["qsym"], ids=_ids("qsym"))
def test_qsym_case(case_id, argv, interval_dir):
    check_case("qsym", case_id, in_dir(interval_dir, argv), interval_dir)


@pytest.mark.parametrize("case_id, argv", GROUPS["alexander"], ids=_ids("alexander"))
def test_alexander_case(case_id, argv, interval_dir):
    check_case("alexander", case_id, in_dir(interval_dir, argv), interval_dir)


@pytest.mark.parametrize("case_id, argv", GROUPS["sweep"], ids=_ids("sweep"))
def test_sweep_case(case_id, argv, interval_dir):
    check_case("sweep", case_id, in_dir(interval_dir, argv), interval_dir)


@pytest.mark.parametrize("case_id, argv", GROUPS["exits"], ids=_ids("exits"))
def test_exits_case(case_id, argv, interval_dir, monkeypatch):
    monkeypatch.chdir(interval_dir)
    check_case("exits", case_id, argv, interval_dir)


@pytest.mark.parametrize("case_id, argv", GROUPS["search"], ids=_ids("search"))
def test_search_case(case_id, argv):
    check_case("search", case_id, argv)


@pytest.mark.parametrize("case_id, argv", GROUPS["conjecture"], ids=_ids("conjecture"))
def test_conjecture_case(case_id, argv, interval_dir):
    check_case("conjecture", case_id, in_dir(interval_dir, argv), interval_dir)


@pytest.mark.parametrize("case_id, argv", GROUPS["bruhat"], ids=_ids("bruhat"))
def test_bruhat_case(case_id, argv):
    check_case("bruhat", case_id, argv)


@pytest.mark.parametrize("case_id, argv", GROUPS["intervals"], ids=_ids("intervals"))
def test_intervals_case(case_id, argv, interval_dir):
    check_case("intervals", case_id, in_dir(interval_dir, argv), interval_dir)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_corpus.py --write")
    CORPUS_DIR.mkdir(exist_ok=True)
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        write_intervals(Path(tmp))
        os.chdir(tmp)  # relative graph file names point into it
        for group, group_cases in GROUPS.items():
            cases = [{"id": case_id, **digest(*run_case(argv))} for case_id, argv in group_cases]
            path = CORPUS_DIR / f"{group}.json"
            path.write_text(json.dumps(cases, indent=2) + "\n", encoding="utf-8")
            print(f"wrote {len(cases)} cases to {path.name}")
        os.chdir(cwd)
