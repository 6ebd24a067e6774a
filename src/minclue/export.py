"""Bilevel model files for external solvers.

The model file is a single integer program in LP text format holding the
leader objective (minimize the number of revealed cells) and every
constraint row: the grid-completion rows G0..G3, the clue-fixing rows F1,
the alternate-forcing row N1, the leader validity row V1, and one coverage
row U_k per supplied cut. Its binary variables are x_i_j_k (the follower's
completion puts digit k in cell (i, j)), y_i_j (cell (i, j) is revealed)
and z, which N1 forces to 1 when the follower's completion is the grid
itself; indices are 1-based and zero-padded to the width of n.

The companion .aux file is the piece any bilevel solver needs on top of
the plain LP: the follower objective (min z), the follower variables (every
x, then z) and the follower rows (G0-G3, F1 and N1, which are exactly the
rows written before V1). Everything else, y, V1 and the U_k rows, belongs
to the leader.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .grid import Grid, _Geometry
from .unavoidable import NotUnavoidableError, UnavoidableCollection, is_unavoidable

__all__ = [
    "BilevelModelFiles",
    "EmptyCollectionError",
    "variable_name",
    "export_bilevel",
    "export_cuts",
]


class EmptyCollectionError(ValueError):
    pass


@dataclass(frozen=True)
class BilevelModelFiles:
    model_path: Path
    aux_path: Path
    cuts_path: Optional[Path]
    variable_count: int
    constraint_count: int


def variable_name(kind: str, n: int, *indices: int) -> str:
    """x/y/z variable names, 1-based indices zero-padded to the width of n."""
    if kind == "z":
        return "z"
    w = len(str(n))
    return kind + "".join(f"_{i:0{w}d}" for i in indices)


def _row_lines(name: str, terms: list[str], tail: str) -> list[str]:
    """One LP row, ` name: a + b - c tail`, where a term spelled `-c` is
    subtracted; a term that would pass column 76 starts an indented line."""
    lines: list[str] = []
    line = f" {name}:"
    for k, term in enumerate(terms):
        chunk = f"- {term[1:]}" if term[0] == "-" else (f"+ {term}" if k else term)
        if len(line) + len(chunk) + 1 > 76:
            lines.append(line)
            line = "   " + chunk
        else:
            line += " " + chunk
    lines.append(f"{line} {tail}".rstrip())
    return lines


def _cut_rows(cuts: UnavoidableCollection) -> list[tuple[str, list[str], str]]:
    """Row U_t of the t-th cut: at least one of its cells is revealed."""
    return [
        (f"U_{t}", [variable_name("y", cuts.n, c.row, c.col) for c in member], ">= 1")
        for t, member in enumerate(cuts.sets, start=1)
    ]


def _write_cuts(rows: list[tuple[str, list[str], str]], path: Path) -> Path:
    text = "".join(f"{name}: {' + '.join(terms)} {tail}\n" for name, terms, tail in rows)
    path.write_text(text, encoding="ascii")
    return path


def export_bilevel(
    g: Grid,
    cuts: Optional[UnavoidableCollection],
    out_dir,
) -> BilevelModelFiles:
    """Write model/aux (and cut) files; see the module docstring.

    Every cut must be an unavoidable set of g (FingerprintMismatchError for
    a collection of another grid or board side, NotUnavoidableError for a
    set that is not); both are checked before any file is written.
    """
    if cuts is not None:
        cuts.check_grid(g)
        for member in cuts:
            if not is_unavoidable(g, member):
                raise NotUnavoidableError(f"cut {member.cells} is not unavoidable")
    n, s = g.size.n, g.size.s
    cells = range(n * n)
    coords = [(cell.row, cell.col) for cell in g.size.all_cells()]
    label = [f"{r}_{c}" for r, c in coords]
    x = [[variable_name("x", n, r, c, k) for k in range(1, n + 1)] for r, c in coords]
    y = [variable_name("y", n, r, c) for r, c in coords]
    held = [x[i][digit - 1] for i, digit in enumerate(g.entries)]

    rows = [(f"G0_{label[i]}", x[i], "= 1") for i in cells]
    # G1 rows, G2 columns, G3 boxes: each digit once in each unit
    for slot, members in enumerate(_Geometry.get(n, s).members):
        kind, u = divmod(slot, n)
        unit = f"{u // s + 1}_{u % s + 1}" if kind == 2 else f"{u + 1}"
        for k in range(n):
            rows.append((f"G{kind + 1}_{unit}_{k + 1}", [x[i][k] for i in members], "= 1"))
    rows += [(f"F1_{label[i]}", [held[i], "-" + y[i]], ">= 0") for i in cells]
    rows.append(("N1", held + ["-z"], f"<= {n * n - 1}"))
    follower = len(rows)
    rows.append(("V1", ["z"], "= 1"))
    cut_rows = _cut_rows(cuts) if cuts else []
    rows += cut_rows

    xs = [name for names in x for name in names]
    lines = [
        f"\\ blind-solvable completion model over a {n}x{n} board",
        "\\ leader: reveal the fewest cells; follower: find a different completion",
        "Minimize",
        *_row_lines("obj", y, ""),
        "Subject To",
    ]
    for row in rows:
        lines += _row_lines(*row)
    lines += ["Binary", *(f" {name}" for name in xs + y + ["z"]), "End"]
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    model_path = out / "bilevel.lp"
    model_path.write_text("\n".join(lines) + "\n", encoding="ascii")

    aux_lines = ["MSCPAUX v1", f"MODEL {model_path.name}", "FOLLOWER_OBJECTIVE min z"]
    aux_lines += [f"FOLLOWER_VAR {name}" for name in xs + ["z"]]
    aux_lines += [f"FOLLOWER_CON {name}" for name, _, _ in rows[:follower]]
    aux_path = out / "bilevel.aux"
    aux_path.write_text("\n".join(aux_lines) + "\n", encoding="ascii")

    return BilevelModelFiles(
        model_path=model_path,
        aux_path=aux_path,
        cuts_path=_write_cuts(cut_rows, out / "cuts.lp") if cut_rows else None,
        variable_count=len(xs) + len(y) + 1,
        constraint_count=len(rows),
    )


def export_cuts(cuts: UnavoidableCollection, path) -> Path:
    """One coverage inequality per line, same variable naming as the model."""
    if not len(cuts):
        raise EmptyCollectionError("no sets to export")
    return _write_cuts(_cut_rows(cuts), Path(path))
