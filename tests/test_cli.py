"""Command-line behavior: outputs, exit codes, JSON mirrors, fixtures."""

import json
import shlex
from pathlib import Path

import pytest

from cdindex.cli import build_parser, main
from cdindex.fixtures import FIXTURE_BUILDERS, fixture_bytes, write_fixture_files
from cdindex.ncpoly import parse_cd


@pytest.fixture
def fixture_dir(tmp_path):
    write_fixture_files(tmp_path)
    return tmp_path


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

    def test_unknown_name_is_input_error(self, capsys, diamond):
        code, out, err = run(capsys, "alexander", "--graph", diamond, "--subset", "1,7")
        assert (code, out) == (2, "")
        assert err == "error: vertex '7' not in the graph\n"

    @pytest.mark.parametrize("command", [
        ["cdindex", "--interval", "1:3"],
        ["cdindex", "--interval", "0:1"],
        ["alexander", "--subset", "1"],
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
        assert "exceeds" in err


class TestConstructCommand:
    def test_realize_and_reload(self, capsys, tmp_path):
        out_file = tmp_path / "g.json"
        code, out, _ = run(
            capsys, "construct", "--cd", "2*c + 3", "--out", str(out_file)
        )
        assert code == 0
        assert "cd-index: 3 + 2*c" in out
        code, out, _ = run(capsys, "cdindex", "--graph", str(out_file))
        assert code == 0
        assert out.strip() == "3 + 2*c"

    def test_negative_rejected(self, capsys):
        code, _, err = run(capsys, "construct", "--cd", "cc - d")
        assert code == 2
        assert "negative" in err


class TestSearchCommand:
    def test_clean_run(self, capsys):
        code, out, _ = run(
            capsys, "search", "--trials", "100", "--seed", "5"
        )
        assert code == 0
        assert "counterexamples: 0" in out

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
