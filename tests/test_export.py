import hashlib

import pytest

import oracle
from conftest import GREEN
from minclue import (
    EmptyCollectionError,
    FingerprintMismatchError,
    GenerationLimits,
    Grid,
    GridSize,
    MscpConfig,
    UnavoidableCollection,
    UnavoidableSet,
    export_bilevel,
    export_cuts,
    generate_all,
    grid_fingerprint,
    solve_mscp,
)
from minclue.export import variable_name
from minclue.unavoidable import SetRecord


def green_collection(figure_grid):
    coll = UnavoidableCollection(grid_fingerprint(figure_grid), 9)
    coll.add(SetRecord(UnavoidableSet(GREEN), 0.0))
    return coll


def named_rows(model_path):
    """Each named row of the written LP text, wrapped lines joined, by name."""
    rows: dict[str, str] = {}
    name = None
    for line in model_path.read_text().splitlines():
        if line.startswith("   ") and name is not None:
            rows[name] += " " + line.strip()
        elif line.startswith(" ") and ":" in line:
            name, _, body = line.strip().partition(":")
            rows[name] = body.strip()
        else:
            name = None
    return rows


class TestCounts:
    def test_9x9(self, figure_grid, tmp_path):
        files = export_bilevel(figure_grid, None, tmp_path)
        assert files.variable_count == 729 + 81 + 1 == 811
        assert files.constraint_count == 324 + 81 + 1 + 1 == 407
        rows = named_rows(files.model_path)
        assert len(rows) == 407 + 1 and "obj" in rows
        assert rows["obj"] == " + ".join(
            f"y_{i}_{j}" for i in range(1, 10) for j in range(1, 10)
        )
        lines = files.model_path.read_text().splitlines()
        binaries = lines[lines.index("Binary") + 1 : lines.index("End")]
        assert len(binaries) == 811

    def test_4x4(self, grid4_objects, tmp_path):
        files = export_bilevel(grid4_objects[0], None, tmp_path)
        assert files.variable_count == 64 + 16 + 1 == 81
        assert files.constraint_count == 64 + 16 + 1 + 1 == 82

    def test_cut_rows_appended(self, figure_grid, tmp_path):
        files = export_bilevel(figure_grid, green_collection(figure_grid), tmp_path)
        assert files.constraint_count == 408
        rows = named_rows(files.model_path)
        assert [name for name in rows if name.startswith("U_")] == ["U_1"]
        assert rows["U_1"] == "y_1_3 + y_1_8 + y_2_3 + y_2_8 >= 1"


class TestRoundTrip:
    def test_exports_are_byte_identical(self, figure_grid, tmp_path):
        first = export_bilevel(figure_grid, green_collection(figure_grid), tmp_path / "a")
        second = export_bilevel(figure_grid, green_collection(figure_grid), tmp_path / "b")
        for a, b in (
            (first.model_path, second.model_path),
            (first.aux_path, second.aux_path),
            (first.cuts_path, second.cuts_path),
        ):
            assert a.read_bytes() == b.read_bytes()

    def test_specific_rows(self, figure_grid, tmp_path):
        files = export_bilevel(figure_grid, None, tmp_path)
        rows = named_rows(files.model_path)
        assert rows["G0_1_1"] == " + ".join(f"x_1_1_{k}" for k in range(1, 10)) + " = 1"
        n1 = " + ".join(
            f"x_{i}_{j}_{figure_grid.entry(i, j)}"
            for i in range(1, 10)
            for j in range(1, 10)
        )
        assert rows["N1"] == n1 + " - z <= 80"
        assert rows["V1"] == "z = 1"

    def test_unit_rows(self, figure_grid, tmp_path):
        rows = named_rows(export_bilevel(figure_grid, None, tmp_path).model_path)
        assert rows["G1_2_5"] == (
            "x_2_1_5 + x_2_2_5 + x_2_3_5 + x_2_4_5 + x_2_5_5 + x_2_6_5 + x_2_7_5"
            " + x_2_8_5 + x_2_9_5 = 1"
        )
        assert rows["G2_3_7"] == (
            "x_1_3_7 + x_2_3_7 + x_3_3_7 + x_4_3_7 + x_5_3_7 + x_6_3_7 + x_7_3_7"
            " + x_8_3_7 + x_9_3_7 = 1"
        )
        assert rows["G3_2_3_5"] == (
            "x_4_7_5 + x_4_8_5 + x_4_9_5 + x_5_7_5 + x_5_8_5 + x_5_9_5 + x_6_7_5"
            " + x_6_8_5 + x_6_9_5 = 1"
        )

    def test_row_order_4x4(self, grid4_objects, tmp_path):
        rows = named_rows(export_bilevel(grid4_objects[0], None, tmp_path).model_path)
        r4 = range(1, 5)
        want = ["obj"]
        want += [f"G0_{i}_{j}" for i in r4 for j in r4]
        want += [f"G1_{i}_{k}" for i in r4 for k in r4]
        want += [f"G2_{j}_{k}" for j in r4 for k in r4]
        want += [f"G3_{p}_{q}_{k}" for p in (1, 2) for q in (1, 2) for k in r4]
        want += [f"F1_{i}_{j}" for i in r4 for j in r4]
        want += ["N1", "V1"]
        assert list(rows) == want

    def test_clue_fixing_rows_follow_the_grid(self, grid4_objects, figure_grid, tmp_path):
        for k, grid in enumerate((grid4_objects[33], figure_grid)):
            rows = named_rows(export_bilevel(grid, None, tmp_path / str(k)).model_path)
            n = grid.size.n
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    want = f"x_{i}_{j}_{grid.entry(i, j)} - y_{i}_{j} >= 0"
                    assert rows[f"F1_{i}_{j}"] == want

    def test_aux_file_lists_follower_pieces(self, figure_grid, tmp_path):
        files = export_bilevel(figure_grid, None, tmp_path)
        lines = files.aux_path.read_text().splitlines()
        assert lines[0] == "MSCPAUX v1"
        assert "FOLLOWER_OBJECTIVE min z" in lines
        fvars = [l.split()[1] for l in lines if l.startswith("FOLLOWER_VAR")]
        fcons = [l.split()[1] for l in lines if l.startswith("FOLLOWER_CON")]
        assert len(fvars) == 729 + 1 and "z" in fvars
        assert len(fcons) == 324 + 81 + 1
        assert all(not name.startswith(("V1", "U_")) for name in fcons)


class TestNameScheme:
    def test_bijection_4x4(self):
        r4 = range(1, 5)
        names = [variable_name("x", 4, i, j, k) for i in r4 for j in r4 for k in r4]
        names += [variable_name("y", 4, i, j) for i in r4 for j in r4]
        names.append(variable_name("z", 4))
        assert len(names) == len(set(names)) == 81

    def test_zero_padding_for_16(self):
        assert variable_name("x", 16, 1, 12, 5) == "x_01_12_05"


class TestCutChecks:
    def test_collection_of_another_grid(self, figure_grid, grid4_objects, tmp_path):
        with pytest.raises(FingerprintMismatchError):
            export_bilevel(grid4_objects[0], green_collection(figure_grid), tmp_path / "m")
        assert not (tmp_path / "m").exists()

    def test_collection_of_another_board_side(self, figure_grid, tmp_path):
        # the GREEN cells lie on a 16x16 board too; its cut row would name
        # y_01_03 and the rest, which the 9x9 model does not declare
        coll = UnavoidableCollection(grid_fingerprint(figure_grid), 16)
        coll.add(SetRecord(UnavoidableSet(GREEN), 0.0))
        with pytest.raises(FingerprintMismatchError, match="side 16"):
            export_bilevel(figure_grid, coll, tmp_path / "m")
        assert not (tmp_path / "m").exists()


class TestExportCuts:
    def test_line_per_set(self, grid4_objects, tmp_path):
        coll = generate_all(grid4_objects[8], GenerationLimits(max_sets=9))
        path = export_cuts(coll, tmp_path / "cuts.lp")
        lines = path.read_text().splitlines()
        assert len(lines) == len(coll)
        assert lines[0].startswith("U_1:") and lines[0].endswith(">= 1")

    def test_empty_collection_rejected(self, figure_grid, tmp_path):
        empty = UnavoidableCollection(grid_fingerprint(figure_grid), 9)
        with pytest.raises(EmptyCollectionError):
            export_cuts(empty, tmp_path / "cuts.lp")

    def test_green_cut_text(self, figure_grid, tmp_path):
        path = export_cuts(green_collection(figure_grid), tmp_path / "cuts.lp")
        assert path.read_text().strip() == "U_1: y_1_3 + y_1_8 + y_2_3 + y_2_8 >= 1"


class TestPinnedFiles:
    """bilevel.lp, bilevel.aux and cuts.lp stay byte-identical to the files
    an earlier exporter wrote; the 4x4 cut rows wrap, the 16x16 names pad."""

    SHA256 = {
        "grid4_0_full": (
            "60ea3f875fe0dbfde12669a6264dd9cbb9e0f3a6c037f54d664e4fbd8787e45b",
            "928c2d5f2f048619d8d4a6577c5e76f3266e27198942102520d7398f39d36ab2",
            "190f9708feb5e98290391fbab9919a3159f9446c1a10bf47daf370bd3108deff",
        ),
        "figure_30": (
            "5fcf9c5fbb34a5933224664059a291ea5eb1591fd909dd7c87c6fcba7c588947",
            "b161b2cde134fe1d0b7fc712a35b070c6a141adc60ee0af20a3a5b9ebb37af7e",
            "7862ffed5c6849cf255065a420bf3fbd022fa99dc14b02c37a00ff217d1087b1",
        ),
        "shift16_3": (
            "4ad9c26dc3ffadf6efe849e255f9e5b488267755cde31731084bd9a3365a5932",
            "38a108ddf427e4fcb5e55788a46283a2908880c682682d5e9f0d8e22ade7f066",
            "87d8882c4e506785d320bf0095b87099efd5d15b7245885aa67d6c3c75dd73c4",
        ),
    }

    @staticmethod
    def board(name, grid4_objects, figure_grid):
        if name == "grid4_0_full":
            coll = generate_all(grid4_objects[0])
            assert coll.complete and len(coll) == 14
            return grid4_objects[0], coll
        if name == "figure_30":
            return figure_grid, generate_all(figure_grid, GenerationLimits(max_sets=30))
        from test_grid import TestBigBoards

        grid = Grid(GridSize.of_side(16), TestBigBoards.shift_grid(16))
        return grid, generate_all(grid, GenerationLimits(max_sets=3))

    @pytest.mark.parametrize("name", sorted(SHA256))
    def test_sha256(self, name, grid4_objects, figure_grid, tmp_path):
        files = export_bilevel(*self.board(name, grid4_objects, figure_grid), tmp_path)
        got = tuple(
            hashlib.sha256(path.read_bytes()).hexdigest()
            for path in (files.model_path, files.aux_path, files.cuts_path)
        )
        assert got == self.SHA256[name]


class TestCertificateRows:
    def test_cut_rows_alone_prove_the_optimum(self, grids4, grid4_objects, tmp_path):
        # the U_k rows of an exported certificate, read back as cell masks,
        # are unavoidable (each holds some other grid's difference) and need
        # as many revealed cells as the brute-force optimum of the grid
        for idx in range(0, 288, 29):
            grid = grid4_objects[idx]
            diffs = oracle.diff_masks(list(grids4), idx)
            result = solve_mscp(grid, MscpConfig(initial_cuts=0))
            model = export_bilevel(grid, result.certificate, tmp_path / str(idx)).model_path
            masks = []
            for name, body in named_rows(model).items():
                if name.startswith("U_"):
                    terms, _, rhs = body.rpartition(" >= ")
                    assert rhs == "1"
                    mask = 0
                    for term in terms.split(" + "):
                        _, i, j = term.split("_")
                        mask |= 1 << ((int(i) - 1) * 4 + int(j) - 1)
                    masks.append(mask)
            assert len(masks) == len(result.certificate)
            assert all(any(d & ~mask == 0 for d in diffs) for mask in masks), idx
            want, _ = oracle.mscp_optimum(diffs, 16)
            assert oracle.mscp_optimum(masks, 16)[0] == want, idx
