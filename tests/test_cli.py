import json
import time
from pathlib import Path

import pytest

from dicolor import (
    Board,
    CellPartition,
    CellSet,
    build_tournament,
    digraph_from_json,
    digraph_to_json,
    is_c_sparse,
    verify,
)
from dicolor.cli import main
from dicolor.solvers import ABORTED_AT_LIMIT, SolveResult
from oracles import first_triangle_by_scan


def aborted_at(value):
    """A stand-in solver whose every solve aborts having proven `value`."""
    return lambda g, limits=None: SolveResult(ABORTED_AT_LIMIT, value, None, 0, 0.0)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGenerate:
    def test_tournament_json(self, tmp_path, capsys):
        out = tmp_path / "t2.json"
        code, stdout, _ = run(capsys, "generate", "tournament", "--k", "2", "--out", str(out))
        assert code == 0
        assert "vertices: 9 arcs: 36" in stdout
        doc = json.loads(out.read_text())
        assert doc["vertices"] == 9 and len(doc["arcs"]) == 36

    def test_npartite_counts(self, tmp_path, capsys):
        out = tmp_path / "k32.json"
        code, stdout, _ = run(capsys, "generate", "npartite", "--n", "3", "--m", "2", "--out", str(out))
        assert code == 0
        assert "vertices: 6 arcs: 12" in stdout

    def test_dot_format(self, tmp_path, capsys):
        out = tmp_path / "t1.dot"
        code, _, _ = run(capsys, "generate", "tournament", "--k", "1", "--format", "dot", "--out", str(out))
        assert code == 0
        assert out.read_text().startswith("digraph {")

    def test_invalid_k_exits_2(self, tmp_path, capsys):
        code, stdout, stderr = run(capsys, "generate", "tournament", "--k", "0", "--out", str(tmp_path / "x"))
        assert code == 2
        assert stdout == "" and "error" in stderr

    def test_missing_params_exit_2(self, tmp_path, capsys):
        code, _, _ = run(capsys, "generate", "tournament", "--out", str(tmp_path / "x"))
        assert code == 2
        code, _, _ = run(capsys, "generate", "npartite", "--n", "3", "--out", str(tmp_path / "x"))
        assert code == 2


    def test_oversized_board_exits_2_before_listing_cells(self, tmp_path, capsys, monkeypatch):
        def listed(board):
            raise AssertionError("cells were listed")

        monkeypatch.setattr(Board, "cells", listed)
        out = tmp_path / "t1000.json"
        code, stdout, stderr = run(capsys, "generate", "tournament", "--k", "1000", "--out", str(out))
        assert code == 2 and stdout == "" and stderr.count("\n") == 1 and "capped" in stderr
        assert not out.exists()


class TestSolve:
    def test_optimal_solve(self, tmp_path, capsys):
        path = tmp_path / "t2.json"
        path.write_text(json.dumps(digraph_to_json(build_tournament(2))))
        code, stdout, _ = run(capsys, "solve", str(path), "--constraint", "acyclic")
        assert code == 0
        doc = json.loads(stdout)
        assert doc["status"] == "optimal" and doc["value"] == 2
        assert len(doc["colors"]) == 9

    def test_triangle_free_constraint(self, tmp_path, capsys):
        path = tmp_path / "k63.json"
        run(capsys, "generate", "npartite", "--n", "6", "--m", "3", "--out", str(path))
        code, stdout, _ = run(capsys, "solve", str(path), "--constraint", "triangle-free")
        doc = json.loads(stdout)
        assert code == 0 and doc["status"] == "optimal" and doc["value"] == 3
        g = digraph_from_json(json.loads(path.read_text()))
        classes = [[v for v, c in enumerate(doc["colors"]) if c == color] for color in range(3)]
        assert [first_triangle_by_scan(g, members) for members in classes] == [None] * 3

    def test_acyclic_input_is_one(self, tmp_path, capsys):
        path = tmp_path / "chain.json"
        path.write_text(json.dumps({"vertices": 3, "arcs": [[0, 1], [1, 2]]}))
        code, stdout, _ = run(capsys, "solve", str(path))
        assert code == 0 and json.loads(stdout)["value"] == 1

    def test_node_limit_exits_3(self, tmp_path, capsys):
        path = tmp_path / "t3.json"
        path.write_text(json.dumps(digraph_to_json(build_tournament(3))))
        code, stdout, _ = run(capsys, "solve", str(path), "--max-nodes", "1")
        assert code == 3
        assert json.loads(stdout)["status"] == "aborted_at_limit"

    def test_parse_failure_exits_2(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, stdout, stderr = run(capsys, "solve", str(path))
        assert code == 2 and stdout == "" and stderr.count("\n") == 1

    def test_deeply_nested_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        code, stdout, stderr = run(capsys, "solve", str(path))
        assert code == 2 and stdout == ""
        assert "nested too deeply" in stderr and "Traceback" not in stderr

    def test_missing_file_exits_2(self, tmp_path, capsys):
        code, _, _ = run(capsys, "solve", str(tmp_path / "absent.json"))
        assert code == 2

    @pytest.mark.parametrize(
        "text",
        [
            '{"vertices": 1e400, "arcs": []}',
            '{"vertices": 2, "arcs": [[0, 1e400]]}',
            '{"vertices": 1, "arcs": [], "labels": {"0": [1e400, 1]}}',
            '{"vertices": 3, "arcs": [[0.9, 1.7], [1, 2], [2, 0]]}',
            '{"vertices": 2.9, "arcs": []}',
            '{"vertices": 1, "arcs": [], "labels": {"0": [1.9, 1]}}',
            '{"vertices": "2", "arcs": []}',
            '{"vertices": true, "arcs": []}',
            '{"vertices": 2, "arcs": [[false, true]]}',
            '{"vertices": 1, "arcs": [], "labels": {"0": [true, 1]}}',
        ],
        ids=[
            "vertices", "arc", "label",
            "fractional-arc", "fractional-vertices", "fractional-label", "string-vertices",
            "boolean-vertices", "boolean-arc", "boolean-label",
        ],
    )
    def test_number_overflowing_an_int_exits_2(self, tmp_path, capsys, text):
        path = tmp_path / "huge.json"
        path.write_text(text)
        code, stdout, stderr = run(capsys, "solve", str(path))
        assert code == 2 and stdout == "" and stderr.count("\n") == 1

    def test_negative_vertex_count_exits_2(self, tmp_path, capsys):
        path = tmp_path / "negative.json"
        path.write_text('{"vertices": -5, "arcs": []}')
        code, stdout, stderr = run(capsys, "solve", str(path))
        assert code == 2 and stdout == "" and "non-negative" in stderr and stderr.count("\n") == 1

    def test_nan_time_limit_exits_2(self, tmp_path, capsys):
        path = tmp_path / "t2.json"
        path.write_text(json.dumps(digraph_to_json(build_tournament(2))))
        code, stdout, stderr = run(capsys, "solve", str(path), "--max-seconds", "nan")
        assert code == 2 and stdout == "" and "max_seconds" in stderr

    def test_round_trip_no_drift(self, tmp_path, capsys):
        path = tmp_path / "t2.json"
        run(capsys, "generate", "tournament", "--k", "2", "--out", str(path))
        parsed = digraph_from_json(json.loads(path.read_text()))
        direct = build_tournament(2)
        assert parsed.vertex_count == direct.vertex_count
        assert parsed.arcs == direct.arcs
        assert parsed.labels == direct.labels


class TestPartition:
    def test_construct_seven(self, tmp_path, capsys):
        out = tmp_path / "p7.json"
        code, stdout, _ = run(capsys, "partition", "construct", "--n", "7", "--out", str(out))
        assert code == 0
        assert "classes: 4" in stdout
        doc = json.loads(out.read_text())
        assert len(doc["classes"]) == 4

    def test_construct_to_stdout(self, capsys):
        code, stdout, stderr = run(capsys, "partition", "construct", "--n", "3")
        assert code == 0
        assert len(json.loads(stdout)["classes"]) == 2
        assert "classes: 2" in stderr

    def test_bruteforce_three(self, capsys):
        code, stdout, stderr = run(capsys, "partition", "bruteforce", "--n", "3")
        assert code == 0
        assert "classes: 2" in stderr
        assert len(json.loads(stdout)["classes"]) == 2

    def test_bruteforce_oversize_exits_2(self, capsys):
        code, _, stderr = run(capsys, "partition", "bruteforce", "--n", "6")
        assert code == 2 and "error" in stderr

    def test_construct_oversize_exits_2_before_building_bands(self, capsys, monkeypatch):
        def listed(board):
            raise AssertionError("cells were listed")

        monkeypatch.setattr(Board, "cells", listed)
        code, stdout, stderr = run(capsys, "partition", "construct", "--n", "501")
        assert code == 2 and stdout == "" and stderr.count("\n") == 1 and "cap" in stderr

    def test_svg_output(self, tmp_path, capsys):
        svg_path = tmp_path / "p7.svg"
        code, _, _ = run(capsys, "partition", "construct", "--n", "7", "--out", str(tmp_path / "p.json"), "--svg", str(svg_path))
        assert code == 0
        svg = svg_path.read_text()
        assert svg.count("<rect") == 49
        assert len({chunk.split('"')[0] for chunk in svg.split('fill="')[1:]}) == 4


class TestExportSvg:
    def test_single_cell(self, tmp_path, capsys):
        doc = tmp_path / "p1.json"
        doc.write_text(json.dumps({"n": 1, "m": 1, "classes": [[[1, 1]]]}))
        out = tmp_path / "p1.svg"
        code, _, _ = run(capsys, "export-svg", str(doc), "--out", str(out))
        assert code == 0
        assert out.read_text().count("<rect") == 1

    def test_byte_identical_reruns(self, tmp_path, capsys):
        doc = tmp_path / "p.json"
        run(capsys, "partition", "construct", "--n", "7", "--out", str(doc))
        first = tmp_path / "a.svg"
        second = tmp_path / "b.svg"
        assert run(capsys, "export-svg", str(doc), "--out", str(first))[0] == 0
        assert run(capsys, "export-svg", str(doc), "--out", str(second))[0] == 0
        assert first.read_bytes() == second.read_bytes()

    def test_malformed_exits_2(self, tmp_path, capsys):
        doc = tmp_path / "bad.json"
        doc.write_text(json.dumps({"n": 2, "m": 2, "classes": [[[1, 1]]]}))
        code, stdout, _ = run(capsys, "export-svg", str(doc), "--out", str(tmp_path / "x.svg"))
        assert code == 2 and stdout == ""

    @pytest.mark.parametrize(
        "text",
        [
            '{"n": 1e400, "m": 1, "classes": []}',
            '{"n": 1, "m": 1, "classes": [[[1e400, 1]]]}',
            '{"n": 2.5, "m": 1, "classes": [[[1, 1]], [[2, 1]]]}',
            '{"n": 2, "m": 1, "classes": [[[1.5, 1]], [[2, 1]]]}',
            '{"n": true, "m": 1, "classes": [[[1, 1]]]}',
            '{"n": 1, "m": 1, "classes": [[[true, true]]]}',
        ],
        ids=["side", "cell", "fractional-side", "fractional-cell", "boolean-side", "boolean-cell"],
    )
    def test_number_overflowing_an_int_exits_2(self, tmp_path, capsys, text):
        doc = tmp_path / "huge.json"
        doc.write_text(text)
        out = tmp_path / "x.svg"
        code, stdout, stderr = run(capsys, "export-svg", str(doc), "--out", str(out))
        assert code == 2 and stdout == "" and stderr.count("\n") == 1
        assert not out.exists()

    def test_huge_board_refused_before_building_cell_sets(self, tmp_path, capsys):
        doc = tmp_path / "huge.json"
        doc.write_text(json.dumps({"n": 1_000_000, "m": 1_000_000, "classes": [[[1, 1]]]}))
        out = tmp_path / "x.svg"
        code, stdout, stderr = run(capsys, "export-svg", str(doc), "--out", str(out))
        assert code == 2 and stdout == "" and stderr.count("\n") == 1 and "cap" in stderr
        assert not out.exists()

    @pytest.mark.parametrize("classes, message", [(269, "cap"), (268, "disjoint")])
    def test_class_count_times_cells_is_capped(self, tmp_path, capsys, classes, message):
        # 269 x 250,000 cells is past 2**26; 268 x 250,000 is under it.
        doc = tmp_path / "many.json"
        doc.write_text(json.dumps({"n": 500, "m": 500, "classes": [[[1, 1]]] * classes}))
        out = tmp_path / "x.svg"
        code, stdout, stderr = run(capsys, "export-svg", str(doc), "--out", str(out))
        assert code == 2 and stdout == "" and stderr.count("\n") == 1 and message in stderr
        assert not out.exists()

    def test_many_one_cell_classes_refused_quickly(self, tmp_path, capsys):
        doc = tmp_path / "singletons.json"
        doc.write_text(json.dumps({"n": 200, "m": 200, "classes": [[[i, j]] for i in range(1, 201) for j in range(1, 201)]}))
        out = tmp_path / "x.svg"
        start = time.perf_counter()
        code, stdout, stderr = run(capsys, "export-svg", str(doc), "--out", str(out))
        assert time.perf_counter() - start < 1.0
        assert code == 2 and stdout == "" and stderr.count("\n") == 1 and "cap" in stderr
        assert not out.exists()


class TestVerify:
    @pytest.mark.parametrize(
        "argv, golden",
        [
            (["all", "--seed", "1"], "verify_all.txt"),
            (["all", "--seed", "2"], "verify_all.txt"),
            (["equivalence", "--seed", "7"], "verify_equivalence_seed_7.txt"),
        ],
        ids=["all-seed-1", "all-seed-2", "equivalence-seed-7"],
    )
    def test_prints_the_pinned_bytes(self, capsys, argv, golden):
        # A faster claim check must print exactly what these files hold.
        code, stdout, _ = run(capsys, "verify", *argv)
        assert code == 0
        assert stdout == (Path(__file__).parent / "golden" / golden).read_text()

    def test_sigma_small(self, capsys):
        code, stdout, _ = run(capsys, "verify", "sigma", "--max-n", "3")
        assert code == 0
        assert "PASS" in stdout and "FAIL" not in stdout
        assert "claims passed" in stdout

    def test_sigma_max_n_beyond_brute_force_cap(self, capsys):
        code, stdout, _ = run(capsys, "verify", "sigma", "--max-n", "6")
        assert code == 0
        assert "bruteforce-n=5" in stdout and "bruteforce-n=6" not in stdout

    def test_tk_small(self, capsys):
        code, stdout, _ = run(capsys, "verify", "tk", "--max-k", "2")
        assert code == 0
        lines = [line for line in stdout.splitlines() if line.startswith("PASS")]
        assert len(lines) == 2

    def test_npartite_explicit_case(self, capsys):
        code, stdout, _ = run(capsys, "verify", "npartite", "--n", "8", "--m", "4")
        assert code == 0
        assert "bound-8x4" in stdout

    def test_output_sorted_by_claim_id(self, capsys):
        code, stdout, _ = run(capsys, "verify", "bounds")
        assert code == 0
        ids = [line.split()[1] for line in stdout.splitlines() if line.startswith(("PASS", "FAIL"))]
        assert ids == sorted(ids)

    def test_undecided_claims_exit_3(self, capsys, monkeypatch):
        monkeypatch.setattr(verify, "dichromatic_number", aborted_at(1))
        code, stdout, _ = run(capsys, "verify", "tk", "--max-k", "2")
        assert code == 3
        lines = stdout.splitlines()
        assert [line.split()[:2] for line in lines[:2]] == [["OPEN", "tk/k=1"], ["OPEN", "tk/k=2"]]
        assert lines[2] == "0/2 claims passed, 2 undecided"

    def test_failed_claim_outranks_undecided(self, capsys, monkeypatch):
        # a proven chi(T_1) >= 2 refutes chi(T_1) = 1, while chi(T_2) >= 2 decides nothing
        monkeypatch.setattr(verify, "dichromatic_number", aborted_at(2))
        code, stdout, _ = run(capsys, "verify", "tk", "--max-k", "2")
        assert code == 1
        assert [line[:4] for line in stdout.splitlines()] == ["FAIL", "OPEN", "0/2 "]

    def test_npartite_n_without_m_exits_2(self, capsys):
        code, stdout, stderr = run(capsys, "verify", "npartite", "--n", "2")
        assert code == 2 and stdout == "" and "--m" in stderr

    def test_unknown_suite_exits_2(self, capsys):
        code, _, _ = run(capsys, "verify", "everything")
        assert code == 2

    @pytest.mark.parametrize("suite, flag", [("diagonals", "--max-n"), ("sigma", "--max-n"), ("tk", "--max-k")])
    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_scale_below_one_exits_2(self, capsys, suite, flag, value):
        code, stdout, stderr = run(capsys, "verify", suite, flag, value)
        assert code == 2 and stdout == ""
        assert flag in stderr and stderr.count("\n") == 1

    @pytest.mark.parametrize(
        "suite, flag, value, constructor, over_cap",
        [
            ("diagonals", "--max-n", "501", "optimal_c_sparse_partition", Board(501, 501)),
            ("tk", "--max-k", "20", "build_tournament", 20),
        ],
    )
    def test_scale_over_a_cap_is_refused_before_any_claim_runs(
        self, capsys, monkeypatch, suite, flag, value, constructor, over_cap
    ):
        real = getattr(verify, constructor)
        calls = []

        def recording(arg):
            calls.append(arg)
            return real(arg)

        monkeypatch.setattr(verify, constructor, recording)
        code, stdout, stderr = run(capsys, "verify", suite, flag, value)
        assert code == 2 and stdout == "" and stderr.count("\n") == 1
        assert calls == [over_cap]

    @pytest.mark.parametrize(
        "name, broken, failing",
        [
            ("is_weak_c_sparse", lambda s: False, ["order/c-implies-weak"]),
            ("is_weak_c_sparse", lambda s: len(s) != 1, ["order/antitone", "order/c-implies-weak"]),
            # Wrong at exactly one mask per board.
            ("is_weak_c_sparse", lambda s: s.mask != 1, ["order/antitone", "order/c-implies-weak"]),
            # Wrong at exactly one set, (1,1) (2,2) (3,1) on 3x2, whose subsets are all c-sparse.
            (
                "is_c_sparse",
                lambda s: is_c_sparse(s) or s == CellSet(Board(3, 2), [(1, 1), (2, 2), (3, 1)]),
                ["order/c-implies-weak"],
            ),
        ],
        ids=["weak-never", "weak-no-singletons", "weak-not-mask-1", "c-one-extra-set"],
    )
    def test_order_claims_fail_on_a_broken_predicate(self, capsys, monkeypatch, name, broken, failing):
        monkeypatch.setattr(verify, name, broken)
        code, stdout, _ = run(capsys, "verify", "order")
        assert code == 1
        assert [line.split()[1] for line in stdout.splitlines() if line.startswith("FAIL")] == failing

    @pytest.mark.parametrize(
        "argv, helper, broken, failing",
        [
            (
                ["bounds"],
                "bruteforce_max_sparse",
                lambda board, kind: (board.n + 2 * board.m, None),
                ["bounds/c-sparse-rect", "bounds/c-sparse-square", "bounds/tight-single-column", "bounds/weak"],
            ),
            (
                ["sigma", "--max-n", "1"],
                "optimal_c_sparse_partition",
                lambda board: CellPartition(board, [CellSet(board, board.cells())]),
                ["sigma/construction-n<=15"],
            ),
            (["npartite", "--n", "2", "--m", "1"], "is_weak_c_sparse", lambda s: False, ["npartite/observation"]),
        ],
        ids=["bounds", "sigma", "npartite"],
    )
    def test_claims_fail_on_a_broken_helper(self, capsys, monkeypatch, argv, helper, broken, failing):
        monkeypatch.setattr(verify, helper, broken)
        code, stdout, _ = run(capsys, "verify", *argv)
        assert code == 1
        assert [line.split()[1] for line in stdout.splitlines() if line.startswith("FAIL")] == failing


class TestUsage:
    def test_no_command(self, capsys):
        assert run(capsys, )[0] == 2

    def test_unknown_command(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2
