"""Command-line behavior: outputs, exit codes, JSON mirrors, fixtures."""

import contextlib
import itertools
import json
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdindex import alexander, cli, construct, digraph, qsym
from cdindex.cli import _alexander_json_lines, build_parser, main
from cdindex.construct import Counterexample, SearchReport
from cdindex.coxeter import _dihedral_bruhat_graph, bruhat_graph_sn, dihedral_bruhat_graph
from cdindex.digraph import LabeledDigraph, load_graph, to_json_dict
from cdindex.fixtures import FIXTURE_BUILDERS, fixture_bytes, write_fixture_files
from cdindex.jsontext import quote
from cdindex.ncpoly import parse_cd

from oracles import parse_ab

# the directory the cdindex package is imported from, for child processes
SRC_DIR = str(Path(alexander.__file__).parents[1])


@pytest.fixture
def fixture_dir(tmp_path):
    write_fixture_files(tmp_path)
    return tmp_path


class Writes(list):
    """A stdout that keeps each write's text."""

    def write(self, text):
        self.append(text)
        return len(text)

    def flush(self):
        pass


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParser:
    def test_one_parser_serves_successive_subcommands(self, capsys, fixture_dir):
        graph = str(fixture_dir / "fig1_left.json")
        assert build_parser() is build_parser()
        code, out, _ = run(capsys, "qsym", "--graph", graph, "--basis", "M", "--json")
        assert code == 0
        assert json.loads(out)["rising"] == "3*M[1] + 2*M[2] + 4*M[1,1]"
        code, out, _ = run(capsys, "balance", "--graph", graph)
        assert code == 0
        assert out.splitlines()[0] == "balanced"
        # the options of the first call leave no trace on the next one
        code, out, _ = run(capsys, "qsym", "--graph", graph)
        assert code == 0
        assert "F_rising: 3*L[1] + 2*L[2] + 2*L[1,1]" in out.splitlines()


# one invocation of every subcommand, run from the fixture directory
EVERY_COMMAND = [
    ["cdindex", "--graph", "fig1_left.json"],
    ["balance", "--graph", "fig2_relation_ii.json"],
    ["alexander", "--graph", "fig3_b3.json", "--all"],
    ["qsym", "--graph", "fig1_left.json"],
    ["bruhat", "--n", "3", "--interval", "123:321", "--poset-cd", "--r-poly"],
    ["construct", "--cd", "2*c + 3", "--out", "g.json"],
    ["search", "--trials", "20", "--seed", "1"],
    ["fixtures", "--out-dir", "fx"],
]


class TestOutputPath:
    """Text and --json output both come from main, one renderer for all."""

    def test_every_subcommand_listed(self):
        usage = build_parser().format_usage()
        names = usage.split("{", 1)[1].split("}", 1)[0].split(",")
        assert sorted(names) == sorted(argv[0] for argv in EVERY_COMMAND)

    @pytest.mark.parametrize("argv", EVERY_COMMAND, ids=lambda argv: argv[0])
    def test_text_and_json_exit_alike(self, capsys, monkeypatch, fixture_dir, argv):
        monkeypatch.chdir(fixture_dir)
        code, text, err = run(capsys, *argv)
        json_code, out, json_err = run(capsys, *argv, "--json")
        assert code == json_code
        assert text and err == json_err == ""
        assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"

    def test_unencodable_payload_is_internal_error(self, capsys, monkeypatch):
        report = SearchReport(seed={1}, trials=0, max_vertices=8, balanced_found=0)
        monkeypatch.setattr("cdindex.construct.conjecture_search", lambda **kwargs: report)
        assert run(capsys, "search", "--trials", "0", "--seed", "1")[0] == 0
        code, out, err = run(capsys, "search", "--trials", "0", "--seed", "1", "--json")
        assert (code, out) == (3, "")
        assert err == "internal error: TypeError: Object of type set is not JSON serializable\n"


class TestCdIndexCommand:
    def test_fig1_left(self, capsys, fixture_dir):
        code, out, _ = run(
            capsys, "cdindex", "--graph", str(fixture_dir / "fig1_left.json")
        )
        assert code == 0
        assert parse_cd(out.strip()) == parse_cd("2*c + 3")

    def test_fig1_right(self, capsys, fixture_dir):
        code, out, _ = run(
            capsys, "cdindex", "--graph", str(fixture_dir / "fig1_right.json")
        )
        assert code == 0
        assert out.strip() == "5*d"

    def test_interval_flag(self, capsys, fixture_dir):
        code, out, _ = run(
            capsys,
            "cdindex",
            "--graph",
            str(fixture_dir / "fig3_b3.json"),
            "--interval",
            "1:123",
        )
        assert code == 0
        assert out.strip() == "c"

    def test_ab_flag(self, capsys, fixture_dir):
        code, out, _ = run(
            capsys,
            "cdindex",
            "--graph",
            str(fixture_dir / "fig1_left.json"),
            "--ab",
        )
        assert code == 0
        assert out.strip() == "3 + 2*a + 2*b"

    def test_residual_of_a_long_rising_chain_is_factored(self, capsys, tmp_path):
        # the ab-index a^19 leaves 19 leftovers; expanded, its residual has
        # 2^19 - 1 terms (seconds, about 150 MiB and 11.5M characters to print)
        n = 20
        graph = tmp_path / "rising20.json"
        graph.write_text(json.dumps({
            "vertices": [f"v{i}" for i in range(n + 1)],
            "edges": [{"tail": f"v{i}", "head": f"v{i + 1}", "label": "1"} for i in range(n)],
            "relation": {"mode": "linear", "order": ["1"]},
        }))
        residual = "-" + " - ".join("c" * k + "b" + "a" * (n - 2 - k) for k in range(n - 1))
        start = time.perf_counter()
        text = run(capsys, "cdindex", "--graph", str(graph))
        payload = run(capsys, "cdindex", "--graph", str(graph), "--json")
        assert time.perf_counter() - start < 1.0
        assert text == (1, f"not a cd-polynomial; residual: {residual}\n", "")
        assert payload[0] == 1 and json.loads(payload[1])["residual"] == residual

    def test_missing_file_is_input_error(self, capsys):
        code, _, err = run(capsys, "cdindex", "--graph", "/nonexistent.json")
        assert code == 2
        assert "error:" in err

    def test_unknown_vertex_is_input_error(self, capsys, fixture_dir):
        code, out, err = run(
            capsys,
            "cdindex",
            "--graph",
            str(fixture_dir / "fig3_b3.json"),
            "--interval",
            "zz:1",
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "'zz'" in err

    def test_malformed_pair_is_input_error(self, capsys, tmp_path):
        graph_file = tmp_path / "short_pair.json"
        graph_file.write_text(
            json.dumps(
                {
                    "vertices": ["x", "y"],
                    "edges": [{"tail": "x", "head": "y", "label": "1"}],
                    "relation": {"mode": "pairs", "pairs": [["1"]]},
                }
            )
        )
        code, _, err = run(capsys, "cdindex", "--graph", str(graph_file))
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1
        assert "2-element" in err

    def test_list_label_is_input_error(self, capsys, tmp_path):
        graph_file = tmp_path / "list_label.json"
        graph_file.write_text(
            json.dumps(
                {
                    "vertices": ["x", "y"],
                    "edges": [{"tail": "x", "head": "y", "label": ["1"]}],
                    "relation": {"mode": "linear", "order": ["1"]},
                }
            )
        )
        code, out, err = run(capsys, "cdindex", "--graph", str(graph_file))
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "['1']" in err

    @pytest.mark.parametrize("command", ["cdindex", "balance"])
    def test_deeply_nested_file_is_input_error(self, capsys, tmp_path, command):
        graph_file = tmp_path / "nested.json"
        graph_file.write_text("[" * 100_000)
        code, out, err = run(capsys, command, "--graph", str(graph_file))
        assert (code, out) == (2, "")
        assert err == f"error: {graph_file}: JSON nested too deeply to read\n"

    def test_unexpected_exception_is_internal_error(self, capsys, monkeypatch):
        def broken(**kwargs):
            raise KeyError("boom")

        monkeypatch.setattr("cdindex.construct.conjecture_search", broken)
        code, out, err = run(capsys, "search", "--trials", "1", "--seed", "0")
        assert code == 3
        assert out == ""
        assert err == "internal error: KeyError: 'boom'\n"

    def test_json_mirror(self, capsys, fixture_dir):
        code, out, _ = run(
            capsys,
            "cdindex",
            "--graph",
            str(fixture_dir / "fig1_left.json"),
            "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["cd_index"] == "3 + 2*c"
        assert payload["residual"] is None


# the one stderr line of a command whose balanced graph has no cd-index,
# with ab_index patched to return the ab-word a
NO_CD_INDEX = "internal error: InternalError: a graph found balanced has no cd-index (residual -b)\n"


class TestBalanceCommand:
    def test_balanced_graph(self, capsys, fixture_dir):
        code, out, _ = run(
            capsys, "balance", "--graph", str(fixture_dir / "fig2_relation_i.json")
        )
        assert code == 0
        assert "balanced" in out
        assert "cd-index: d" in out

    def test_unbalanced_chain(self, capsys, tmp_path):
        chain_file = tmp_path / "chain21.json"
        chain_file.write_text(
            json.dumps(
                {
                    "vertices": ["x", "y", "z"],
                    "edges": [
                        {"tail": "x", "head": "y", "label": "2"},
                        {"tail": "y", "head": "z", "label": "1"},
                    ],
                    "relation": {"mode": "linear", "order": ["1", "2"]},
                }
            )
        )
        code, out, _ = run(capsys, "balance", "--graph", str(chain_file))
        assert code == 1
        assert "unbalanced" in out
        assert "witness" in out

    def test_json(self, capsys, fixture_dir):
        code, out, _ = run(
            capsys,
            "balance",
            "--graph",
            str(fixture_dir / "fig2_relation_ii.json"),
            "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["balanced"] is True
        assert payload["cd_index"] == "cc - d"

    @pytest.mark.parametrize("form", [[], ["--json"]])
    def test_no_cd_index_is_internal_error(self, capsys, monkeypatch, fixture_dir, form):
        # balance makes every ab-index a cd-polynomial: a residual is the library's fault
        monkeypatch.setattr(LabeledDigraph, "ab_index", lambda self, x, y: parse_ab("a"))
        code, out, err = run(capsys, "balance", "--graph", str(fixture_dir / "fig1_left.json"), *form)
        assert (code, out, err) == (3, "", NO_CD_INDEX)


class TestAlexanderCommand:
    def test_named_subset(self, capsys, fixture_dir):
        code, out, _ = run(
            capsys,
            "alexander",
            "--graph",
            str(fixture_dir / "fig3_b3.json"),
            "--subset",
            "1,13",
        )
        assert code == 0
        assert "lhs=0 rhs=0 equal" in out

    def test_all_sweep(self, capsys, fixture_dir):
        code, out, _ = run(
            capsys,
            "alexander",
            "--graph",
            str(fixture_dir / "fig3_b3.json"),
            "--all",
            "--json",
        )
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 64
        assert all(row["equal"] for row in rows)

    def test_precondition_failure_is_input_error(self, capsys, fixture_dir):
        code, _, err = run(
            capsys,
            "alexander",
            "--graph",
            str(fixture_dir / "fig1_left.json"),
            "--subset",
            "",
        )
        assert code == 2
        assert "parity" in err

    def test_all_is_bounded_by_the_interior_size(self, capsys, tmp_path):
        # 40 interior vertices: 2**40 subsets, refused before any is built
        graph = str(tmp_path / "big.json")
        assert run(capsys, "construct", "--cd", "5*cccc", "--out", graph)[0] == 0
        start = time.perf_counter()
        code, out, err = run(capsys, "alexander", "--graph", graph, "--all", "--json")
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert err == (
            "error: sweeping the splits of 40 interior vertices exceeds the bound "
            f"{alexander.MAX_SWEEP_INTERIOR}; check single subsets instead\n"
        )
        code, out, err = run(capsys, "alexander", "--graph", graph, "--subset", "")
        assert (code, err) == (0, "")
        assert out.startswith("S={(empty)} ") and out.endswith(" equal\n")

    def test_bound_admits_its_own_size(self, capsys, fixture_dir, monkeypatch):
        graph = str(fixture_dir / "fig3_b3.json")  # 6 interior vertices
        monkeypatch.setattr(alexander, "MAX_SWEEP_INTERIOR", 6)
        code, out, _ = run(capsys, "alexander", "--graph", graph, "--all", "--json")
        assert code == 0 and len(json.loads(out)) == 64
        monkeypatch.setattr(alexander, "MAX_SWEEP_INTERIOR", 5)
        code, out, err = run(capsys, "alexander", "--graph", graph, "--all", "--json")
        assert (code, out) == (2, "")
        assert "6 interior vertices exceeds the bound 5" in err

    def test_all_rows_are_the_combinations_of_the_sorted_names(self, capsys, fixture_dir):
        graph = str(fixture_dir / "fig3_b3.json")
        code, out, _ = run(capsys, "alexander", "--graph", graph, "--all", "--json")
        assert code == 0
        names = ["1", "12", "13", "2", "23", "3"]
        assert [row["subset"] for row in json.loads(out)] == [
            list(c) for k in range(len(names) + 1) for c in itertools.combinations(names, k)
        ]

    @staticmethod
    def renamed_b3(path, names) -> str:
        """fig3_b3 written to ``path`` with the vertices in ``names`` renamed."""
        data = json.loads(fixture_bytes("fig3_b3"))
        data["vertices"] = [names.get(v, v) for v in data["vertices"]]
        for edge in data["edges"]:
            for end in ("tail", "head"):
                edge[end] = names.get(edge[end], edge[end])
        path.write_text(json.dumps(data), encoding="utf-8")
        return str(path)

    @pytest.fixture
    def escaped_b3(self, tmp_path):
        # fig3_b3 with interior names that JSON escapes, and two that are JSON ints
        names = {"1": 'q"uote', "2": "back\\slash", "3": "\u00e9\U0001f600", "12": "\x07bell", "13": 10, "23": 2}
        return self.renamed_b3(tmp_path / "escaped.json", names)

    @pytest.mark.parametrize("names", [
        {"1": "1,2", "2": "1"},  # the row of {"1,2"} would read as {1, 2}
        {"1": " 1"},
        {"1": "1 "},
        {"1": ""},
        {"1": "(empty)"},  # its row would print as the empty split's
    ])
    def test_all_refuses_names_a_row_cannot_give_back(self, capsys, tmp_path, names):
        path = self.renamed_b3(tmp_path / "renamed.json", names)
        for form in ([], ["--json"]):
            code, out, err = run(capsys, "alexander", "--graph", path, "--all", *form)
            assert (code, out) == (2, "")
            assert err == f"error: vertex name {names['1']!r} would read back as another split; rename it\n"

    @pytest.mark.parametrize("graph", ["fig3_b3", "cc + d", "escaped"])
    def test_each_all_line_is_the_subset_line(self, capsys, fixture_dir, escaped_b3, graph):
        # the realized cc + d has splits whose mirror images differ in value
        if graph in FIXTURE_BUILDERS:
            path = str(fixture_dir / f"{graph}.json")
        elif graph == "escaped":
            path = escaped_b3
        else:
            path = str(fixture_dir / "realized.json")
            assert run(capsys, "construct", "--cd", graph, "--out", path)[0] == 0
        code, out, _ = run(capsys, "alexander", "--graph", path, "--all")
        lines = out.splitlines(keepends=True)
        assert code == 0 and len(lines) == 64
        for line in lines:
            names = line[len("S={"):line.index("}")].replace("(empty)", "")
            assert run(capsys, "alexander", "--graph", path, "--subset", names) == (0, line, "")

    def test_unequal_row(self, capsys, monkeypatch, escaped_b3):
        # no graph the sweep accepts has an unequal row, so one is planted
        sweep = alexander.alexander_sweep

        def one_unequal(graph):
            interior, lhs, rhs = sweep(graph)
            rhs[5] += 1  # the split of interior[0] and interior[2]
            return interior, lhs, rhs

        monkeypatch.setattr(alexander, "alexander_sweep", one_unequal)
        interior, lhs, rhs = one_unequal(load_graph(escaped_b3))
        named = sorted((str(v), 1 << i) for i, v in enumerate(interior))
        want = [
            {"subset": [name for name, _ in c], "lhs": lhs[m], "rhs": rhs[m], "equal": lhs[m] == rhs[m]}
            for k in range(len(named) + 1)
            for c in itertools.combinations(named, k)
            for m in [sum(bit for _, bit in c)]
        ]
        code, out, err = run(capsys, "alexander", "--graph", escaped_b3, "--all", "--json")
        assert (code, out, err) == (1, json.dumps(want, indent=2, sort_keys=True) + "\n", "")
        code, out, err = run(capsys, "alexander", "--graph", escaped_b3, "--all")
        (unequal,) = [row for row in want if not row["equal"]]
        assert (code, err) == (1, "")
        assert [line for line in out.splitlines() if line.endswith(" UNEQUAL")] == [
            f"S={{{','.join(unequal['subset'])}}} lhs={unequal['lhs']} rhs={unequal['rhs']} UNEQUAL"
        ]
        assert sorted(unequal["subset"]) == sorted(map(str, (interior[0], interior[2])))

    def test_unequal_subset_row(self, capsys, monkeypatch, escaped_b3):
        # the --subset twin of test_unequal_row, through the same row writer
        check = alexander.alexander_check

        def unequal(graph, subset):
            lhs, rhs, _ = check(graph, subset)
            return alexander.AlexanderResult(lhs, rhs + 1, False)

        monkeypatch.setattr(alexander, "alexander_check", unequal)
        graph = load_graph(escaped_b3)
        split = graph.topological_order[1], graph.topological_order[3]
        names = sorted(map(str, split))
        lhs, rhs, _ = unequal(graph, split)
        row = {"subset": names, "lhs": lhs, "rhs": rhs, "equal": False}
        code, out, err = run(capsys, "alexander", "--graph", escaped_b3, "--subset", ",".join(names), "--json")
        assert (code, out, err) == (1, json.dumps([row], indent=2, sort_keys=True) + "\n", "")
        code, out, err = run(capsys, "alexander", "--graph", escaped_b3, "--subset", ",".join(names))
        assert (code, out, err) == (1, f"S={{{','.join(names)}}} lhs={lhs} rhs={rhs} UNEQUAL\n", "")

    @pytest.mark.parametrize("form", [[], ["--json"]], ids=["text", "json"])
    def test_all_rows_are_written_a_batch_at_a_time(self, fixture_dir, monkeypatch, form):
        # stdout sees at most _BATCH rows per write, so no write holds all 2^k of them
        monkeypatch.setattr(cli, "_BATCH", 5)
        writes = Writes()
        with contextlib.redirect_stdout(writes):
            code = main(["alexander", "--graph", str(fixture_dir / "fig3_b3.json"), "--all", *form])
        assert code == 0 and "".join(writes).count("equal") == 64
        assert max(text.count("equal") for text in writes) == 5

    @pytest.mark.parametrize("form", [[], ["--json"]], ids=["text", "json"])
    def test_each_line_reaches_stdout_in_one_write(self, fixture_dir, monkeypatch, form):
        # a line and its newline go together, _BATCH lines to a write: unbuffered,
        # that is one system call per batch
        monkeypatch.setattr(cli, "_BATCH", 5)
        writes = Writes()
        with contextlib.redirect_stdout(writes):
            code = main(["alexander", "--graph", str(fixture_dir / "fig3_b3.json"), "--all", *form])
        lines = 64 + bool(form)  # JSON closes the list on a line of its own
        assert code == 0 and len(writes) == -(-lines // 5)
        assert all(text.endswith("\n") for text in writes)

    def test_closed_stdout_pipe_exits_quietly(self, capsys, tmp_path):
        # the realized c^8 has 65,536 rows, far more than a pipe buffer
        # holds, so the writer meets the closed pipe while it prints
        graph_file = str(tmp_path / "c8.json")
        assert run(capsys, "construct", "--cd", "cccccccc", "--out", graph_file)[0] == 0
        proc = subprocess.Popen(
            [sys.executable, "-m", "cdindex.cli", "alexander", "--graph", graph_file, "--all", "--json"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=SRC_DIR),
        )
        assert proc.stdout.readline() == b"[\n"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(timeout=60), err) == (141, b"")


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(
    # rhs is lhs about half the time, so rows of both verdicts are drawn
    st.tuples(st.lists(st.text(), max_size=3), st.integers(), st.booleans(), st.integers()).map(
        lambda row: (row[0], row[1], row[1] if row[2] else row[3])
    ),
    max_size=4,
))
def test_alexander_json_lines_as_json_dumps(rows):
    dicts = [{"subset": names, "lhs": lhs, "rhs": rhs, "equal": lhs == rhs} for names, lhs, rhs in rows]
    lines = list(_alexander_json_lines((tuple(map(quote, names)), lhs, rhs) for names, lhs, rhs in rows))
    # main prints each line, so the lines joined by newlines are the text
    assert "\n".join(lines) == json.dumps(dicts, indent=2, sort_keys=True)
    assert len(lines) == len(rows) + 1  # a line for each row, and the closing one


class TestVertexNames:
    """Names on the command line match vertices by str(v), ints included."""

    @staticmethod
    def write_graph(tmp_path, vertices, edges):
        graph_file = tmp_path / "graph.json"
        graph_file.write_text(json.dumps({
            "vertices": vertices,
            "edges": [{"tail": t, "head": h, "label": l} for t, h, l in edges],
            "relation": {"mode": "linear", "order": ["1", "2"]},
        }))
        return str(graph_file)

    @pytest.fixture
    def diamond(self, tmp_path):
        # the Boolean lattice of rank 2 on integer vertices: ab-index a + b
        edges = [(0, 1, "1"), (1, 3, "2"), (0, 2, "2"), (2, 3, "1")]
        return self.write_graph(tmp_path, [0, 1, 2, 3], edges)

    @pytest.fixture
    def twins(self, tmp_path):
        # the vertices 1 and "1" print alike
        edges = [(0, 1, "1"), (1, 3, "2"), (0, "1", "2"), ("1", 3, "1")]
        return self.write_graph(tmp_path, [0, 1, "1", 3], edges)

    def test_cdindex_interval(self, capsys, diamond):
        assert run(capsys, "cdindex", "--graph", diamond, "--interval", "0:3") == (0, "c\n", "")
        assert run(capsys, "cdindex", "--graph", diamond, "--interval", "0:1") == (0, "1\n", "")

    def test_alexander_subset_matches_the_sweep(self, capsys, diamond):
        code, out, err = run(capsys, "alexander", "--graph", diamond, "--subset", "1")
        assert (code, err) == (0, "")
        assert out.startswith("S={1} ")
        code, sweep, _ = run(capsys, "alexander", "--graph", diamond, "--all")
        assert code == 0
        assert out in sweep.splitlines(keepends=True)

    @pytest.fixture
    def renamed_b3(self, tmp_path):
        # fig3_b3 with the vertex "12" renamed to the int 1: two interior
        # vertices print as 1
        graph_file = tmp_path / "twins.json"
        graph_file.write_bytes(fixture_bytes("fig3_b3").replace(b'"12"', b"1"))
        return str(graph_file)

    def test_all_rows_do_not_depend_on_the_hash_seed(self, tmp_path, renamed_b3):
        # the rows of fig3_b3, and the refusal of its renamed copy
        plain = tmp_path / "fig3_b3.json"
        plain.write_bytes(fixture_bytes("fig3_b3"))
        outputs = {}
        for graph_file in (plain, renamed_b3):
            for seed in ("0", "24"):
                env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=SRC_DIR)
                done = subprocess.run(
                    [sys.executable, "-m", "cdindex.cli", "alexander", "--graph", str(graph_file),
                     "--all", "--json"],
                    capture_output=True, env=env, timeout=60,
                )
                outputs.setdefault(graph_file, set()).add((done.returncode, done.stdout, done.stderr))
        ((code, out, err),) = outputs[plain]
        assert (code, err, len(json.loads(out))) == (0, b"", 64)
        ((code, out, err),) = outputs[renamed_b3]
        assert (code, out) == (2, b"") and err.startswith(b"error: vertex name '1' is ambiguous")

    def test_all_refuses_names_that_print_alike(self, capsys, renamed_b3):
        code, out, err = run(capsys, "alexander", "--graph", renamed_b3, "--all")
        assert (code, out) == (2, "")
        assert err == "error: vertex name '1' is ambiguous: ['1', 1]\n"
        # the split the refused rows would have named twice is refused alone too
        assert run(capsys, "alexander", "--graph", renamed_b3, "--subset", "1") == (2, "", err)

    def test_unknown_name_is_input_error(self, capsys, diamond):
        code, out, err = run(capsys, "alexander", "--graph", diamond, "--subset", "1,7")
        assert (code, out) == (2, "")
        assert err == "error: vertex '7' not in the graph\n"

    @pytest.mark.parametrize("command", [
        ["cdindex", "--interval", "1:3"],
        ["cdindex", "--interval", "0:1"],
        ["alexander", "--subset", "1"],
        ["alexander", "--all"],
    ])
    def test_ambiguous_name_is_input_error(self, capsys, twins, command):
        code, out, err = run(capsys, command[0], "--graph", twins, *command[1:])
        assert (code, out) == (2, "")
        assert err.startswith("error: vertex name '1' is ambiguous") and err.count("\n") == 1

    def test_other_names_still_match(self, capsys, twins):
        assert run(capsys, "cdindex", "--graph", twins, "--interval", "0:3") == (0, "c\n", "")


class TestIntervalForm:
    @pytest.mark.parametrize("argv", [
        ["cdindex", "--graph", "fig1_left.json", "--interval", "03"],
        ["bruhat", "--type", "A", "--n", "3", "--interval", "123"],
    ])
    def test_interval_without_colon_is_input_error(self, capsys, fixture_dir, argv):
        argv = [str(fixture_dir / a) if a.endswith(".json") else a for a in argv]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: interval '{argv[-1]}' is not of the form x:y\n"


class TestQsymCommand:
    def test_fig1_left(self, capsys, fixture_dir):
        code, out, _ = run(
            capsys, "qsym", "--graph", str(fixture_dir / "fig1_left.json")
        )
        assert code == 0
        assert "F_rising: 3*L[1] + 2*L[2] + 2*L[1,1]" in out
        assert "peak algebra member: yes" in out

    def test_m_basis(self, capsys, fixture_dir):
        code, out, _ = run(
            capsys,
            "qsym",
            "--graph",
            str(fixture_dir / "fig1_left.json"),
            "--basis",
            "M",
        )
        assert code == 0
        assert "M[" in out

    @pytest.mark.parametrize("basis", ["L", "M"])
    def test_one_vertex_prints_the_unit_as_1(self, capsys, tmp_path, basis):
        f = tmp_path / "one.json"
        f.write_text(json.dumps({
            "vertices": ["x"], "edges": [], "relation": {"mode": "linear", "order": []},
        }))
        code, out, _ = run(capsys, "qsym", "--graph", str(f), "--basis", basis)
        assert code == 0
        assert out.splitlines()[:2] == ["F_rising: 1", "F_falling: 1"]

    @staticmethod
    def rising_chain(tmp_path, n):
        """A chain of n edges with increasing labels: F_rising = L[n], 2^(n-1) terms in M."""
        f = tmp_path / f"rising{n}.json"
        f.write_text(json.dumps({
            "vertices": [f"v{i}" for i in range(n + 1)],
            "edges": [{"tail": f"v{i}", "head": f"v{i + 1}", "label": str(i)} for i in range(n)],
            "relation": {"mode": "linear", "order": [str(i) for i in range(n)]},
        }))
        return str(f)

    def test_m_basis_at_the_bound(self, capsys, tmp_path):
        assert qsym.MAX_M_TERMS == 2 ** 16
        code, out, err = run(capsys, "qsym", "--graph", self.rising_chain(tmp_path, 17), "--basis", "M")
        assert (code, err) == (1, "")  # L[17] is not in the peak algebra
        rising = out.splitlines()[0]
        assert rising.count("M[") == 2 ** 16 and rising.startswith("F_rising: M[17] + ")

    @pytest.mark.parametrize("n", [18, 40])
    def test_m_basis_over_the_bound_is_input_error(self, capsys, tmp_path, n):
        graph = self.rising_chain(tmp_path, n)
        start = time.perf_counter()
        code, out, err = run(capsys, "qsym", "--graph", graph, "--basis", "M", "--json")
        assert time.perf_counter() - start < 1.0  # refused before any expansion
        assert (code, out) == (2, "")
        assert err == (
            f"error: printing in the basis M expands into {2 ** (n - 1)} terms, more than the "
            "bound 65536; print in the basis L instead\n"
        )
        # the basis L prints the one term of each side
        code, out, _ = run(capsys, "qsym", "--graph", graph)
        assert code == 1
        assert out.splitlines()[:2] == [f"F_rising: L[{n}]", f"F_falling: L[{','.join('1' * n)}]"]

    def test_unbalanced_exits_negative(self, capsys, tmp_path):
        f = tmp_path / "c.json"
        f.write_text(
            json.dumps(
                {
                    "vertices": ["x", "y", "z"],
                    "edges": [
                        {"tail": "x", "head": "y", "label": "2"},
                        {"tail": "y", "head": "z", "label": "1"},
                    ],
                    "relation": {"mode": "linear", "order": ["1", "2"]},
                }
            )
        )
        code, out, _ = run(capsys, "qsym", "--graph", str(f))
        assert code == 1
        assert "peak algebra member: no" in out


class TestBruhatCommand:
    def test_complete_cd(self, capsys):
        code, out, _ = run(
            capsys, "bruhat", "--type", "A", "--n", "3",
            "--interval", "123:321", "--complete-cd",
        )
        assert code == 0
        assert out.strip() == "1 + cc"

    def test_default_action(self, capsys):
        code, out, _ = run(
            capsys, "bruhat", "--type", "A", "--n", "3", "--interval", "123:321"
        )
        assert code == 0
        assert out.strip() == "1 + cc"

    def test_multiple_values(self, capsys):
        code, out, _ = run(
            capsys, "bruhat", "--type", "A", "--n", "3",
            "--interval", "123:321", "--complete-cd", "--poset-cd", "--r-poly",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert "complete_cd: 1 + cc" in lines
        assert "poset_cd: cc" in lines
        assert "r_poly: q^3 - 2*q^2 + 2*q - 1" in lines

    def test_dyer(self, capsys):
        code, out, _ = run(
            capsys, "bruhat", "--type", "A", "--n", "4",
            "--interval", "1234:4321", "--r-poly-dyer", "--r-poly",
        )
        assert code == 0
        lines = out.strip().splitlines()
        values = dict(line.split(": ") for line in lines)
        assert values["r_poly"] == values["r_poly_dyer"]

    def test_dihedral(self, capsys):
        code, out, _ = run(
            capsys, "bruhat", "--type", "I2", "--m", "4", "--k", "3", "--poset-cd"
        )
        assert code == 0
        assert out.strip() == "cc"

    def test_incomparable_interval_is_input_error(self, capsys):
        code, _, err = run(
            capsys, "bruhat", "--type", "A", "--n", "3", "--interval", "213:132"
        )
        assert code == 2
        assert "error" in err

    def test_n_cap(self, capsys):
        code, _, err = run(
            capsys, "bruhat", "--type", "A", "--n", "7",
            "--interval", "1234567:7654321",
        )
        assert code == 2
        assert "exceeds" in err and "--max-n" in err

    @pytest.mark.parametrize("argv, message", [
        (["--n", "0", "--interval", "1:1"], "--n must be at least 1, got 0"),
        (["--n", "-2", "--interval", "12:21"], "--n must be at least 1, got -2"),
        (["--n", "-2", "--interval", "12"], "--n must be at least 1, got -2"),
        (["--type", "I2", "--m", "0", "--k", "1"], "the dihedral group needs m >= 2"),
        (["--type", "I2", "--m", "-3", "--k", "1"], "the dihedral group needs m >= 2"),
        (["--type", "A", "--interval", "12:21"], 'type A needs --n and --interval "u:v"'),
        (["--type", "I2", "--k", "1"], "type I2 needs --m and --k"),
    ])
    def test_group_size_errors(self, capsys, argv, message):
        assert run(capsys, "bruhat", *argv) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("argv, group", [
        (["--n", "4", "--interval", "1234:4321", "--complete-cd", "--poset-cd", "--r-poly", "--r-poly-dyer"],
         lambda: bruhat_graph_sn(4)),
        (["--type", "I2", "--m", "5", "--k", "4", "--complete-cd", "--r-poly-dyer"], lambda: dihedral_bruhat_graph(5)),
        (["--n", "4", "--interval", "1234:4321", "--r-poly-dyer"], lambda: bruhat_graph_sn(4)),
        (["--type", "I2", "--m", "5", "--k", "4", "--r-poly-dyer"], lambda: dihedral_bruhat_graph(5)),
    ], ids=["S4-every-value", "I2-cd-and-dyer", "S4-dyer", "I2-dyer"])
    def test_one_sweep_per_query(self, capsys, monkeypatch, argv, group):
        # the Dyer R-polynomial reads its rising paths off the ab-index that the
        # cd-index swept; asked alone, it runs the run-count sweep instead
        monkeypatch.setattr(group(), "_last_interval", None)  # no interval kept by an earlier test
        sweep, calls = digraph._sweep, []

        def counted(*args):
            calls.append(args)
            return sweep(*args)

        monkeypatch.setattr(digraph, "_sweep", counted)
        assert run(capsys, "bruhat", *argv)[0] == 0
        assert len(calls) == 1

    def test_m_cap(self, capsys):
        built = _dihedral_bruhat_graph.cache_info().currsize
        code, out, err = run(capsys, "bruhat", "--type", "I2", "--m", "3000", "--k", "1")
        assert _dihedral_bruhat_graph.cache_info().currsize == built
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "exceeds" in err
        assert len(err.strip().splitlines()) == 1


class TestConstructCommand:
    def test_realize_and_reload(self, capsys, tmp_path):
        out_file = tmp_path / "g.json"
        code, out, _ = run(
            capsys, "construct", "--cd", "2*c + 3", "--out", str(out_file)
        )
        assert code == 0
        assert "cd-index: 3 + 2*c" in out
        data = json.loads(out_file.read_text(encoding="utf-8"))
        assert list(data) == ["vertices", "edges", "relation"]
        assert out_file.read_text(encoding="utf-8") == json.dumps(data, indent=2) + "\n"
        code, out, _ = run(capsys, "cdindex", "--graph", str(out_file))
        assert code == 0
        assert out.strip() == "3 + 2*c"

    @pytest.mark.parametrize(
        "text, edges",
        [
            ("99999999999999999999*c", 4 * (10**20 - 1)),
            ("99999999999999999999", 10**20 - 1),
            ("99999999999999999999 + 2*c", 10**20 + 7),
        ],
    )
    def test_size_bound_is_an_input_error(self, capsys, monkeypatch, text, edges):
        monkeypatch.setattr(construct, "butterfly", lambda k: pytest.fail("a butterfly was built"))
        code, out, err = run(capsys, "construct", "--cd", text)
        assert (code, out) == (2, "")
        bound = construct.MAX_REALIZE_EDGES
        assert err == f"error: a realization of {edges} edges exceeds the bound {bound}\n"

    def test_check_cost_bound_is_an_input_error(self, capsys, monkeypatch):
        monkeypatch.setattr(construct, "butterfly", lambda k: pytest.fail("a butterfly was built"))
        code, out, err = run(capsys, "construct", "--cd", "c" * 30)
        assert (code, out) == (2, "")
        bound = construct.MAX_CHECK_AB_WORDS
        message = f"checking a realization of {2**30} weighted ab-words exceeds the bound {bound}"
        assert err == f"error: {message}\n"

    def test_check_cost_bound_on_both_sides(self, capsys, monkeypatch):
        monkeypatch.setattr(construct, "MAX_CHECK_AB_WORDS", 2**5)
        code, out, _ = run(capsys, "construct", "--cd", "ccccc")
        assert code == 0 and "cd-index: ccccc" in out
        code, out, err = run(capsys, "construct", "--cd", "cccccc")
        assert (code, out) == (2, "")
        message = f"checking a realization of {2**6} weighted ab-words exceeds the bound {2**5}"
        assert err == f"error: {message}\n"

    def test_check_cost_bound_admits_the_largest_measured_polynomial(self, capsys):
        text = "200*cccccccccc + 150*cdcdcccc + 120*ddddcc + 90*ccdccdcc + 70*dcccccccc + 300*ccccdcccc"
        code, out, _ = run(capsys, "construct", "--cd", text)
        assert code == 0
        assert out.splitlines()[1:] == ["vertices: 15942", "edges: 29770"]

    def test_negative_rejected(self, capsys):
        code, _, err = run(capsys, "construct", "--cd", "cc - d")
        assert code == 2
        assert "negative" in err

    def test_no_cd_index_is_internal_error(self, capsys, monkeypatch):
        monkeypatch.setattr(LabeledDigraph, "ab_index", lambda self, x, y: parse_ab("a"))
        code, out, err = run(capsys, "construct", "--cd", "cc + d", "--json")
        assert (code, out, err) == (3, "", NO_CD_INDEX)


class TestSearchCommand:
    def test_clean_run(self, capsys):
        code, out, _ = run(
            capsys, "search", "--trials", "100", "--seed", "5"
        )
        assert code == 0
        assert "counterexamples: 0" in out

    @pytest.mark.parametrize("argv", [
        ["--trials", "-5"],
        ["--trials", "0", "--max-vertices", "1"],
        ["--trials", "3", "--max-vertices", "1"],
        ["--trials", "1", "--max-vertices", str(construct.MAX_SEARCH_VERTICES + 1)],
        ["--trials", "1", "--max-vertices", "1000000000"],
    ])
    def test_bounds_are_input_errors(self, capsys, monkeypatch, argv):
        def no_trial(*args, **kwargs):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(construct, "_draw_dag", no_trial)
        code, out, err = run(capsys, "search", "--seed", "1", *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error:") and err.count("\n") == 1

    def test_counterexample_report(self, capsys, monkeypatch):
        graph = to_json_dict(FIXTURE_BUILDERS["fig1_left"]())
        found = Counterexample(
            trial=7, graph=graph, cd_index="c^2 - d", negative_words=("d", "dc"), verified=True
        )
        report = SearchReport(
            seed=3, trials=9, max_vertices=5, balanced_found=2, counterexamples=(found,)
        )
        monkeypatch.setattr("cdindex.construct.conjecture_search", lambda **kwargs: report)
        argv = ("search", "--trials", "9", "--seed", "3", "--max-vertices", "5")
        code, out, err = run(capsys, *argv, "--json")
        assert (code, err) == (1, "")
        assert json.loads(out) == {
            "seed": 3,
            "trials": 9,
            "max_vertices": 5,
            "balanced_found": 2,
            "counterexamples": [
                {
                    "trial": 7,
                    "graph": graph,
                    "cd_index": "c^2 - d",
                    "negative_words": ["d", "dc"],
                    "verified": True,
                }
            ],
        }
        code, out, err = run(capsys, *argv)
        assert (code, err) == (1, "")
        assert out.splitlines() == [
            "trials: 9",
            "balanced: 2",
            "counterexamples: 1",
            "  trial 7: cd-index c^2 - d (negative at d, dc; verified=True)",
        ]

    def test_byte_stable(self, capsys):
        _, out1, _ = run(
            capsys, "search", "--trials", "100", "--seed", "5", "--json"
        )
        _, out2, _ = run(
            capsys, "search", "--trials", "100", "--seed", "5", "--json"
        )
        assert out1 == out2


class TestFixturesCommand:
    def test_regeneration_is_bit_exact(self, capsys, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        run(capsys, "fixtures", "--out-dir", str(d1))
        run(capsys, "fixtures", "--out-dir", str(d2))
        for name in FIXTURE_BUILDERS:
            b1 = (d1 / f"{name}.json").read_bytes()
            b2 = (d2 / f"{name}.json").read_bytes()
            assert b1 == b2 == fixture_bytes(name)

    def test_shipped_files_match(self, capsys):
        shipped = Path(__file__).resolve().parent.parent / "fixtures"
        if not shipped.is_dir():
            pytest.skip("no shipped fixture directory")
        for name in FIXTURE_BUILDERS:
            assert (shipped / f"{name}.json").read_bytes() == fixture_bytes(name)

    def test_fixture_files_load(self, capsys, tmp_path):
        run(capsys, "fixtures", "--out-dir", str(tmp_path))
        for name in FIXTURE_BUILDERS:
            code, _, _ = run(
                capsys, "balance", "--graph", str(tmp_path / f"{name}.json")
            )
            assert code == 0


def readme_commands():
    """The ``cdindex ...`` lines of the README's command-line example block."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    section = readme.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = section.split("```sh", 1)[1].split("```", 1)[0]
    lines = [shlex.split(line, comments=True) for line in block.splitlines()]
    return [argv for argv in lines if argv]


class TestReadmeExamples:
    def test_block_found(self):
        commands = readme_commands()
        assert commands and all(argv[0] == "cdindex" for argv in commands)

    def test_every_example_exits_zero(self, capsys, monkeypatch, tmp_path):
        # the examples run in order from one directory: the first writes the
        # fixture files the others read
        monkeypatch.chdir(tmp_path)
        for argv in readme_commands():
            code, _, err = run(capsys, *argv[1:])
            assert code == 0, (argv, err)
