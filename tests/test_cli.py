import csv
import re

import pytest

import oracle
from conftest import FIG_GRID_TEXT, FIG_PUZZLE_TEXT
from minclue import GenerationLimits, GridSize, MscpConfig, grid_fingerprint, parse_grid
from minclue.cli import (
    RESULT_FIELDS,
    bucket_label,
    bucket_table,
    build_parser,
    main,
    parse_budget,
)


def write(path, *lines):
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.fixture()
def grid4_file(tmp_path, grids4):
    text = "".join(str(v) for v in grids4[25])
    return write(tmp_path / "grid4.txt", text)


class TestVerify:
    def test_valid(self, tmp_path, capsys):
        g = write(tmp_path / "g.txt", FIG_GRID_TEXT)
        p = write(tmp_path / "p.txt", FIG_PUZZLE_TEXT)
        assert main(["verify", g, p]) == 0
        assert "VALID" in capsys.readouterr().out

    def test_invalid_multiple(self, tmp_path, capsys):
        g = write(tmp_path / "g.txt", FIG_GRID_TEXT)
        # drop the clue in row 2, column 1
        weak = "...64.2...." + FIG_PUZZLE_TEXT[11:]
        p = write(tmp_path / "p.txt", weak)
        assert main(["verify", g, p]) == 1
        assert "INVALID(multiple)" in capsys.readouterr().out

    def test_mismatch(self, tmp_path, capsys):
        g = write(tmp_path / "g.txt", FIG_GRID_TEXT)
        contradicted = "9" + FIG_PUZZLE_TEXT[1:]  # grid has 7 at (1,1)
        p = write(tmp_path / "p.txt", contradicted)
        assert main(["verify", g, p]) == 1
        assert "MISMATCH" in capsys.readouterr().out

    def test_missing_file(self, tmp_path, capsys):
        g = write(tmp_path / "g.txt", FIG_GRID_TEXT)
        assert main(["verify", g, str(tmp_path / "nope.txt")]) == 1
        assert capsys.readouterr().out.startswith("ERROR ")

    def test_puzzle_file_that_is_not_utf8(self, tmp_path, capsys):
        g = write(tmp_path / "g.txt", FIG_GRID_TEXT)
        p = tmp_path / "p.txt"
        p.write_bytes(FIG_PUZZLE_TEXT.encode() + b"\xff\n")
        assert main(["verify", g, str(p)]) == 1
        assert capsys.readouterr().out.startswith(f"ERROR {p} is not UTF-8 text")

    def test_files_with_byte_order_marks(self, tmp_path, capsys):
        g = tmp_path / "g.txt"
        g.write_bytes(b"\xef\xbb\xbf" + FIG_GRID_TEXT.encode() + b"\n")
        p = tmp_path / "p.txt"
        p.write_bytes(b"\xef\xbb\xbf" + FIG_PUZZLE_TEXT.encode() + b"\n")
        assert main(["verify", str(g), str(p)]) == 0
        assert "VALID" in capsys.readouterr().out

    def test_instance_counts_differ(self, tmp_path, capsys):
        g = write(tmp_path / "g.txt", FIG_GRID_TEXT, FIG_GRID_TEXT)
        p = write(tmp_path / "p.txt", FIG_PUZZLE_TEXT)
        assert main(["verify", g, p]) == 1
        assert capsys.readouterr().out == "ERROR instance counts differ: 2 grids vs 1 puzzles\n"


class TestGenunav:
    def test_complete_4x4_collection(self, tmp_path, grid4_file, grids4, capsys):
        out = tmp_path / "sets.unav"
        progress = tmp_path / "progress.csv"
        assert (
            main(
                [
                    "genunav",
                    grid4_file,
                    "--out",
                    str(out),
                    "--progress-csv",
                    str(progress),
                ]
            )
            == 0
        )
        stdout = capsys.readouterr().out
        assert "generation time [s]" in stdout
        from minclue import GridSize, Grid, load_collection

        grid = Grid(GridSize.of_side(4), grids4[25])
        coll = load_collection(out, grid)
        diffs = oracle.diff_masks(list(grids4), 25)
        assert len(coll) == len(oracle.minimal_masks(diffs))
        with open(progress) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["set_index", "m", "elapsed_seconds"]
        assert len(rows) - 1 == len(coll)

    def test_max_sets_zero_is_usage_error(self, grid4_file):
        with pytest.raises(SystemExit) as err:
            main(["genunav", grid4_file, "--max-sets", "0"])
        assert err.value.code == 2

    def test_bucket_labels(self):
        assert bucket_label(0.2) == "<=1"
        assert bucket_label(5) == "1-10"
        assert bucket_label(7200) == "3600-7200"
        assert bucket_label(9000) == ">=7200"

    def test_bucket_table_lists_every_label_in_order(self):
        table = bucket_table([0.2, 1, 1.5, 10, 10.5, 7200, 7200.5, 9000])
        assert table == [
            ("<=1", 2),
            ("1-10", 2),
            ("10-30", 1),
            ("30-60", 0),
            ("60-300", 0),
            ("300-600", 0),
            ("600-1800", 0),
            ("1800-3600", 0),
            ("3600-7200", 1),
            (">=7200", 2),
        ]
        assert [count for _, count in bucket_table([])] == [0] * 10


class TestSolve:
    def test_single_instance(self, tmp_path, grid4_file, grids4, capsys):
        trace = tmp_path / "trace.csv"
        results = tmp_path / "results.csv"
        code = main(
            [
                "solve",
                grid4_file,
                "--seed-cuts",
                "0",
                "--trace-csv",
                str(trace),
                "--results-csv",
                str(results),
            ]
        )
        assert code == 0
        diffs = oracle.diff_masks(list(grids4), 25)
        want, _ = oracle.mscp_optimum(diffs, 16)
        assert f"optimum {want}" in capsys.readouterr().out
        with open(trace) as fh:
            header = fh.readline().strip().split(",")
        assert header == [
            "iteration",
            "lower",
            "upper",
            "certificate_size",
            "elapsed_seconds",
        ]

    def test_node_budget_prints_bounds(self, tmp_path, capsys):
        # the budget ends before the loop proves an optimum: both bounds print
        g = write(tmp_path / "fig.txt", FIG_GRID_TEXT)
        assert main(["solve", g, "--seed-cuts", "0", "--budget", "3000n"]) == 0
        assert capsys.readouterr().out == "fig.txt:1: bounds_only lower=3 upper=28\n"

    def test_missing_grid_file(self, tmp_path, capsys):
        assert main(["solve", str(tmp_path / "absent.txt")]) == 1
        assert capsys.readouterr().out.startswith("ERROR ")

    def test_batch_isolates_failures(self, tmp_path, grids4, capsys):
        good = "".join(str(v) for v in grids4[0])
        bad = "1134341221434321"
        grid_file = write(tmp_path / "batch.txt", good, bad)
        code = main(["solve", grid_file, "--seed-cuts", "0"])
        out = capsys.readouterr().out
        assert code == 1
        assert "batch.txt:1: optimum" in out
        assert "batch.txt:2: ERROR" in out

    def test_jobs_preserve_order(self, tmp_path, grids4, capsys):
        lines = ["".join(str(v) for v in grids4[i]) for i in (3, 4)]
        grid_file = write(tmp_path / "two.txt", *lines)
        assert main(["solve", grid_file, "--seed-cuts", "0", "--jobs", "2"]) == 0
        sequential = capsys.readouterr().out
        assert main(["solve", grid_file, "--seed-cuts", "0", "--jobs", "1"]) == 0
        assert capsys.readouterr().out == sequential

    def test_cuts_file_reuse(self, tmp_path, grid4_file, capsys):
        out = tmp_path / "sets.unav"
        assert main(["genunav", grid4_file, "--out", str(out)]) == 0
        capsys.readouterr()
        assert (
            main(
                ["solve", grid4_file, "--seed-cuts", "5", "--cuts-file", str(out)]
            )
            == 0
        )
        assert "optimum" in capsys.readouterr().out

    def test_cuts_file_with_avoidable_sets_fails(self, tmp_path, grids4, capsys):
        grid_file, cuts = single_cell_cuts(tmp_path, grids4[0])
        results = tmp_path / "results.csv"
        code = main(
            ["solve", grid_file, "--seed-cuts", "4", "--cuts-file", cuts,
             "--results-csv", str(results)]
        )
        assert code == 1
        assert "ERROR" in capsys.readouterr().out
        with open(results) as fh:
            assert next(csv.DictReader(fh))["status"] == "error:NotUnavoidableError"

    def test_cuts_file_with_non_minimal_set_fails(self, tmp_path, capsys):
        # a minimal set of the grid and one more cell: the seed check rejects
        # it before the loop can shrink a cut strictly inside it
        text = "1234341221434321"
        fingerprint = grid_fingerprint(parse_grid(text, GridSize.of_side(4)))
        grid_file = write(tmp_path / "g.txt", text)
        cuts = write(
            tmp_path / "g.unav",
            f"MSCPUNAV v1 n=4 fingerprint={fingerprint} complete=1",
            "m=5: 1,1 3,2 3,4 4,2 4,4",
        )
        results = tmp_path / "results.csv"
        code = main(
            ["solve", grid_file, "--cuts-file", cuts, "--results-csv", str(results)]
        )
        assert code == 1
        assert "is not minimal" in capsys.readouterr().out
        with open(results) as fh:
            assert next(csv.DictReader(fh))["status"] == "error:CorruptCollectionError"

    def test_cuts_file_with_set_spanned_by_its_first_alternate_fails(self, tmp_path, capsys):
        # the seed holds the minimal set 1,1 1,3 2,1 2,3, though the first
        # alternate inside it differs on all seven cells
        text = "1234341223414123"
        fingerprint = grid_fingerprint(parse_grid(text, GridSize.of_side(4)))
        grid_file = write(tmp_path / "g.txt", text)
        cuts = write(
            tmp_path / "g.unav",
            f"MSCPUNAV v1 n=4 fingerprint={fingerprint} complete=1",
            "m=7: 1,1 1,3 2,1 2,3 2,4 4,3 4,4",
        )
        results = tmp_path / "results.csv"
        code = main(
            ["solve", grid_file, "--cuts-file", cuts, "--results-csv", str(results)]
        )
        assert code == 1
        assert "is not minimal" in capsys.readouterr().out
        with open(results) as fh:
            assert next(csv.DictReader(fh))["status"] == "error:CorruptCollectionError"

    def test_grid_file_that_is_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"\xff\xfe1234\n")
        assert main(["solve", str(path)]) == 1
        assert capsys.readouterr().out.startswith(f"ERROR {path} is not UTF-8 text")

    def test_grid_file_with_byte_order_mark(self, tmp_path, grids4, capsys):
        path = tmp_path / "bom.txt"
        path.write_bytes(b"\xef\xbb\xbf" + "".join(map(str, grids4[25])).encode() + b"\n")
        assert main(["solve", str(path), "--seed-cuts", "0"]) == 0
        diffs = oracle.diff_masks(list(grids4), 25)
        want, _ = oracle.mscp_optimum(diffs, 16)
        assert capsys.readouterr().out == f"bom.txt:1: optimum {want}\n"

    def test_file_of_comments_only(self, tmp_path, capsys):
        path = write(tmp_path / "notes.txt", "# no grid here", "", "# nor here")
        assert main(["solve", path]) == 1
        assert capsys.readouterr().out == f"ERROR no instances found in {path}\n"


def single_cell_cuts(tmp_path, board):
    """A grid file and a collection with its fingerprint holding the four
    cells of row 1 as one-cell sets, none of them unavoidable."""
    text = "".join(str(v) for v in board)
    fingerprint = grid_fingerprint(parse_grid(text, GridSize.of_side(4)))
    cuts = write(
        tmp_path / "single.unav",
        f"MSCPUNAV v1 n=4 fingerprint={fingerprint} complete=0",
        *(f"m=1: 1,{c}" for c in range(1, 5)),
    )
    return write(tmp_path / "grid.txt", text), cuts


class TestExportCommand:
    def test_reports_counts(self, tmp_path, capsys):
        g = write(tmp_path / "g.txt", FIG_GRID_TEXT)
        assert main(["export", g, "--out-dir", str(tmp_path / "out")]) == 0
        out = capsys.readouterr().out
        assert "811 variables, 407 constraint rows" in out

    def test_missing_grid_file(self, tmp_path, capsys):
        assert main(["export", str(tmp_path / "absent.txt")]) == 1
        assert capsys.readouterr().out.startswith("ERROR ")

    def test_cuts_file_with_avoidable_sets_fails(self, tmp_path, grids4, capsys):
        grid_file, cuts = single_cell_cuts(tmp_path, grids4[0])
        results = tmp_path / "results.csv"
        out_dir = tmp_path / "out"
        code = main(
            ["export", grid_file, "--cuts-file", cuts, "--out-dir", str(out_dir),
             "--results-csv", str(results)]
        )
        assert code == 1
        assert "ERROR" in capsys.readouterr().out
        with open(results) as fh:
            assert next(csv.DictReader(fh))["status"] == "error:NotUnavoidableError"
        assert not (out_dir / "cuts.lp").exists()
        assert not out_dir.exists()  # checked before any file is written


class TestBatchNames:
    """Each instance of a batch writes its own files, named by its line."""

    @pytest.fixture()
    def two(self, tmp_path, grids4):
        boards = ("".join(str(v) for v in grids4[i]) for i in (3, 4))
        return write(tmp_path / "two.txt", "# two grids", next(boards), "", next(boards))

    @staticmethod
    def untimed(path):
        return re.sub(r"\d+\.\d+(e-?\d+)?", "T", path.read_text())

    def outputs(self, tmp_path, two, jobs, capsys):
        out = tmp_path / f"jobs{jobs}"
        out.mkdir()
        genunav = ["genunav", two, "--out", str(out / "x.unav"),
                   "--progress-csv", str(out / "p.csv"), "--jobs", jobs]
        solve = ["solve", two, "--seed-cuts", "0", "--trace-csv", str(out / "t.csv"),
                 "--jobs", jobs]
        assert main(genunav) == 0 and main(solve) == 0
        stdout = capsys.readouterr().out.replace(str(out), "OUT")
        files = {f.name: self.untimed(f) for f in out.iterdir()}
        return stdout, files

    def test_line_numbers_and_jobs(self, tmp_path, two, capsys):
        sequential = self.outputs(tmp_path, two, "1", capsys)
        assert sorted(sequential[1]) == [
            "p.2.csv", "p.4.csv", "t.2.csv", "t.4.csv", "x.2.unav", "x.4.unav"
        ]
        assert "two.txt:2: " in sequential[0] and "two.txt:4: " in sequential[0]
        assert self.outputs(tmp_path, two, "2", capsys) == sequential

    def test_cuts_file_round_trip(self, tmp_path, two, capsys):
        assert main(["genunav", two]) == 0  # writes two.2.unav and two.4.unav
        cuts = str(tmp_path / "two.unav")
        assert main(["solve", two, "--seed-cuts", "5", "--cuts-file", cuts, "--jobs", "2"]) == 0
        out_dir = tmp_path / "m"
        assert main(["export", two, "--cuts-file", cuts, "--out-dir", str(out_dir)]) == 0
        assert (out_dir / "instance_4" / "cuts.lp").exists()

    def test_export_directories(self, tmp_path, two, capsys):
        out_dir = tmp_path / "m"
        assert main(["export", two, "--out-dir", str(out_dir)]) == 0
        assert sorted(p.name for p in out_dir.iterdir()) == ["instance_2", "instance_4"]
        assert (out_dir / "instance_2" / "bilevel.lp").exists()


class TestResultsCsv:
    def test_schema_is_stable_across_commands(self, tmp_path, grid4_file, capsys):
        results = tmp_path / "results.csv"
        g = write(tmp_path / "g.txt", FIG_GRID_TEXT)
        p = write(tmp_path / "p.txt", FIG_PUZZLE_TEXT)
        main(["verify", g, p, "--results-csv", str(results)])
        main(["solve", grid4_file, "--seed-cuts", "0", "--results-csv", str(results)])
        main(
            [
                "genunav",
                grid4_file,
                "--out",
                str(tmp_path / "c.unav"),
                "--max-sets",
                "4",
                "--results-csv",
                str(results),
            ]
        )
        main(
            [
                "export",
                g,
                "--out-dir",
                str(tmp_path / "m"),
                "--results-csv",
                str(results),
            ]
        )
        capsys.readouterr()
        with open(results) as fh:
            rows = list(csv.DictReader(fh))
        assert [r["command"] for r in rows] == ["verify", "solve", "genunav", "export"]
        with open(results) as fh:
            assert fh.readline().strip() == ",".join(RESULT_FIELDS)

    def test_failed_verify_and_export_write_error_rows(self, tmp_path, capsys):
        results = tmp_path / "results.csv"
        g = write(tmp_path / "g.txt", FIG_GRID_TEXT)
        p = write(tmp_path / "p.txt", "x" + FIG_PUZZLE_TEXT[1:])
        assert main(["verify", g, p, "--results-csv", str(results)]) == 1
        bad = write(tmp_path / "bad.txt", "1134341221434321")  # 1 twice in row 1
        out_dir = str(tmp_path / "m")
        code = main(["export", bad, "--out-dir", out_dir, "--results-csv", str(results)])
        assert code == 1
        out = capsys.readouterr().out
        assert "g.txt:1: ERROR" in out and "bad.txt:1: ERROR" in out
        with open(results) as fh:
            rows = [(r["instance_id"], r["command"], r["status"]) for r in csv.DictReader(fh)]
        assert rows == [
            ("g.txt:1", "verify", "error:IllegalCharacterError"),
            ("bad.txt:1", "export", "error:ConstraintViolationError"),
        ]

    def test_solve_config_names_every_setting(self, tmp_path, grid4_file, capsys):
        results = tmp_path / "results.csv"
        for extra in ([], ["--max-cut-size", "4"]):
            assert main(["solve", grid4_file, "--results-csv", str(results), *extra]) == 0
        with open(results) as fh:
            configs = [row["config"] for row in csv.DictReader(fh)]
        assert configs == [
            "seed_cuts=1000;cuts_file=none;max_cut_size=none;budget=none",
            "seed_cuts=1000;cuts_file=none;max_cut_size=4;budget=none",
        ]

    def test_one_record_per_run(self, tmp_path, grid4_file):
        results = tmp_path / "results.csv"
        for _ in range(3):
            main(["solve", grid4_file, "--seed-cuts", "0", "--results-csv", str(results)])
        with open(results) as fh:
            assert len(list(csv.DictReader(fh))) == 3


class TestBudgetParsing:
    def test_forms(self):
        assert parse_budget(None).max_nodes is None
        assert parse_budget("60").max_time == 60.0
        assert parse_budget("60s").max_time == 60.0
        assert parse_budget("500n").max_nodes == 500
        b = parse_budget("30s,1000n")
        assert b.max_time == 30.0 and b.max_nodes == 1000
        # an empty part, as a trailing comma leaves, is skipped
        b = parse_budget("60s,")
        assert b.max_time == 60.0 and b.max_nodes is None

    def test_determinism_under_node_budget(self, tmp_path, grids4, capsys):
        grid_file = write(tmp_path / "g.txt", "".join(str(v) for v in grids4[77]))
        outputs = []
        for _ in range(2):
            main(["solve", grid_file, "--seed-cuts", "0", "--budget", "100000n"])
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]


class TestFlagRanges:
    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("solve", "--budget", "-5s"),
            ("solve", "--budget", "abc"),
            ("solve", "--budget", "60s,30s"),
            ("solve", "--budget", "5n,7n"),
            ("solve", "--seed-cuts", "-3"),
            ("solve", "--max-cut-size", "0"),
            ("solve", "--jobs", "0"),
            ("genunav", "--max-sets", "abc"),
            ("genunav", "--max-size", "-1"),
            ("genunav", "--max-time", "-1"),
            ("genunav", "--max-time", "nan"),
            ("genunav", "--jobs", "0"),
        ],
    )
    def test_bad_value_is_usage_error(self, grid4_file, command, flag, value):
        with pytest.raises(SystemExit) as err:
            main([command, grid4_file, f"{flag}={value}"])
        assert err.value.code == 2

    def test_defaults_are_the_config_defaults(self):
        parser = build_parser()
        assert parser.parse_args(["solve", "g.txt"]).seed_cuts == MscpConfig().initial_cuts
        assert parser.parse_args(["genunav", "g.txt"]).max_sets == GenerationLimits().max_sets

    def test_negative_budget_part_raises(self):
        with pytest.raises(ValueError):
            parse_budget("-5s")
