"""Bilevel model files for external solvers.

The model file is a single integer program in LP text format holding the
leader objective (minimize the number of revealed cells) and every
constraint row: the grid-completion rows G0..G3, the clue-fixing rows F1,
the alternate-forcing row N1, the leader validity row V1, and one coverage
row U_k per supplied cut. The companion .aux file annotates which variables
and rows belong to the follower and states the follower objective, which is
the piece any bilevel solver needs on top of the plain LP.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

from .grid import Grid, _Geometry
from .unavoidable import (
    FingerprintMismatchError,
    NotUnavoidableError,
    UnavoidableCollection,
    grid_fingerprint,
    is_unavoidable,
)

__all__ = [
    "BilevelModelFiles",
    "LpRow",
    "EmptyCollectionError",
    "ModelFormatError",
    "variable_name",
    "decode_variable",
    "export_bilevel",
    "export_cuts",
]


class EmptyCollectionError(ValueError):
    pass


class ModelFormatError(ValueError):
    pass


@dataclass(frozen=True)
class BilevelModelFiles:
    model_path: Path
    aux_path: Path
    cuts_path: Optional[Path]
    variable_count: int
    constraint_count: int


@dataclass(frozen=True)
class LpRow:
    name: str
    terms: tuple[tuple[str, int], ...]
    sense: str  # '=', '<=', '>='
    rhs: int


def _width(n: int) -> int:
    return len(str(n))


def variable_name(kind: str, n: int, *indices: int) -> str:
    """x/y/z variable names, 1-based indices zero-padded to the width of n."""
    if kind == "z":
        return "z"
    w = _width(n)
    return kind + "".join(f"_{i:0{w}d}" for i in indices)


def decode_variable(name: str) -> tuple:
    """Inverse of variable_name: ('x', i, j, k), ('y', i, j), or ('z',)."""
    if name == "z":
        return ("z",)
    parts = name.split("_")
    if parts[0] == "x" and len(parts) == 4:
        return ("x", int(parts[1]), int(parts[2]), int(parts[3]))
    if parts[0] == "y" and len(parts) == 3:
        return ("y", int(parts[1]), int(parts[2]))
    raise ModelFormatError(f"unrecognized variable name {name!r}")


def _terms_text(terms: Sequence[tuple[str, int]]) -> list[str]:
    chunks: list[str] = []
    for var, coeff in terms:
        if coeff == 1:
            chunks.append(f"+ {var}")
        elif coeff == -1:
            chunks.append(f"- {var}")
        elif coeff >= 0:
            chunks.append(f"+ {coeff} {var}")
        else:
            chunks.append(f"- {-coeff} {var}")
    if chunks and chunks[0].startswith("+ "):
        chunks[0] = chunks[0][2:]
    return chunks


def _format_row(prefix: str, chunks: list[str], suffix: str = "") -> list[str]:
    lines: list[str] = []
    line = f" {prefix}"
    for chunk in chunks:
        if len(line) + len(chunk) + 1 > 76:
            lines.append(line)
            line = "   " + chunk
        else:
            line += " " + chunk
    if suffix:
        line += " " + suffix
    lines.append(line)
    return lines


def _build_rows(g: Grid, cuts: Optional[UnavoidableCollection]) -> list[LpRow]:
    n, s = g.size.n, g.size.s
    rows: list[LpRow] = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            rows.append(
                LpRow(
                    f"G0_{i}_{j}",
                    tuple((variable_name("x", n, i, j, k), 1) for k in range(1, n + 1)),
                    "=",
                    1,
                )
            )
    # G1 rows, G2 columns, G3 boxes: each digit once in each unit
    for slot, cells in enumerate(_Geometry.get(n, s).members):
        kind, u = divmod(slot, n)
        unit = f"{u // s + 1}_{u % s + 1}" if kind == 2 else f"{u + 1}"
        for k in range(1, n + 1):
            terms = tuple(
                (variable_name("x", n, i // n + 1, i % n + 1, k), 1) for i in cells
            )
            rows.append(LpRow(f"G{kind + 1}_{unit}_{k}", terms, "=", 1))
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            rows.append(
                LpRow(
                    f"F1_{i}_{j}",
                    (
                        (variable_name("x", n, i, j, g.entry(i, j)), 1),
                        (variable_name("y", n, i, j), -1),
                    ),
                    ">=",
                    0,
                )
            )
    n1_terms = tuple(
        (variable_name("x", n, i, j, g.entry(i, j)), 1)
        for i in range(1, n + 1)
        for j in range(1, n + 1)
    ) + (("z", -1),)
    rows.append(LpRow("N1", n1_terms, "<=", n * n - 1))
    rows.append(LpRow("V1", (("z", 1),), "=", 1))
    if cuts is not None:
        for t, member in enumerate(cuts.sets, start=1):
            rows.append(
                LpRow(
                    f"U_{t}",
                    tuple(
                        (variable_name("y", n, c.row, c.col), 1) for c in member
                    ),
                    ">=",
                    1,
                )
            )
    return rows


def _all_variables(n: int) -> list[str]:
    names = [
        variable_name("x", n, i, j, k)
        for i in range(1, n + 1)
        for j in range(1, n + 1)
        for k in range(1, n + 1)
    ]
    names += [
        variable_name("y", n, i, j)
        for i in range(1, n + 1)
        for j in range(1, n + 1)
    ]
    names.append("z")
    return names


def export_bilevel(
    g: Grid,
    cuts: Optional[UnavoidableCollection],
    out_dir,
) -> BilevelModelFiles:
    """Write model/aux (and cut) files; see the module docstring.

    Every cut must be an unavoidable set of g (FingerprintMismatchError for
    a collection of another grid, NotUnavoidableError for a set that is
    not); both are checked before any file is written.
    """
    if cuts is not None:
        if cuts.fingerprint != grid_fingerprint(g):
            raise FingerprintMismatchError("cut collection was generated from a different grid")
        for member in cuts:
            if not is_unavoidable(g, member):
                raise NotUnavoidableError(f"cut {member.cells} is not unavoidable")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    n = g.size.n
    rows = _build_rows(g, cuts if cuts is not None and len(cuts) else None)
    variables = _all_variables(n)

    lines = [
        f"\\ blind-solvable completion model over a {n}x{n} board",
        "\\ leader: reveal the fewest cells; follower: find a different completion",
        "Minimize",
    ]
    obj_terms = [
        (variable_name("y", n, i, j), 1)
        for i in range(1, n + 1)
        for j in range(1, n + 1)
    ]
    lines += _format_row("obj:", _terms_text(obj_terms))
    lines.append("Subject To")
    for row in rows:
        lines += _format_row(
            f"{row.name}:", _terms_text(row.terms), f"{row.sense} {row.rhs}"
        )
    lines.append("Binary")
    for name in variables:
        lines.append(f" {name}")
    lines.append("End")

    model_path = out / "bilevel.lp"
    model_path.write_text("\n".join(lines) + "\n", encoding="ascii")

    aux_lines = ["MSCPAUX v1", f"MODEL {model_path.name}", "FOLLOWER_OBJECTIVE min z"]
    for name in variables:
        kind = decode_variable(name)[0]
        if kind in ("x", "z"):
            aux_lines.append(f"FOLLOWER_VAR {name}")
    for row in rows:
        if row.name.startswith(("G0", "G1", "G2", "G3", "F1", "N1")):
            aux_lines.append(f"FOLLOWER_CON {row.name}")
    aux_path = out / "bilevel.aux"
    aux_path.write_text("\n".join(aux_lines) + "\n", encoding="ascii")

    cuts_path: Optional[Path] = None
    if cuts is not None and len(cuts):
        cuts_path = out / "cuts.lp"
        export_cuts(cuts, cuts_path)

    return BilevelModelFiles(
        model_path=model_path,
        aux_path=aux_path,
        cuts_path=cuts_path,
        variable_count=len(variables),
        constraint_count=len(rows),
    )


def export_cuts(cuts: UnavoidableCollection, path) -> Path:
    """One coverage inequality per line, same variable naming as the model."""
    if not len(cuts):
        raise EmptyCollectionError("no sets to export")
    path = Path(path)
    lines = []
    for t, member in enumerate(cuts.sets, start=1):
        terms = " + ".join(
            variable_name("y", cuts.n, c.row, c.col) for c in member
        )
        lines.append(f"U_{t}: {terms} >= 1")
    path.write_text("\n".join(lines) + "\n", encoding="ascii")
    return path
