"""Bilevel model files for external solvers, plus a re-parser.

The model file is a single integer program in LP text format holding the
leader objective (minimize the number of revealed cells) and every
constraint row: the grid-completion rows G0..G3, the clue-fixing rows F1,
the alternate-forcing row N1, the leader validity row V1, and one coverage
row U_k per supplied cut. The companion .aux file annotates which variables
and rows belong to the follower and states the follower objective, which is
the piece any bilevel solver needs on top of the plain LP.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

from .engine import SearchBudget, find_alternate
from .grid import Cell, CluePattern, Grid, GridSize
from .unavoidable import UnavoidableCollection

__all__ = [
    "BilevelModelFiles",
    "LpRow",
    "LpModel",
    "EmptyCollectionError",
    "ModelFormatError",
    "variable_name",
    "decode_variable",
    "export_bilevel",
    "export_cuts",
    "parse_model",
    "model_signature",
    "grid_from_model",
    "follower_has_alternate",
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


@dataclass(frozen=True)
class LpModel:
    objective: tuple[tuple[str, int], ...]
    rows: tuple[LpRow, ...]
    binaries: frozenset[str]


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
    for i in range(1, n + 1):
        for k in range(1, n + 1):
            rows.append(
                LpRow(
                    f"G1_{i}_{k}",
                    tuple((variable_name("x", n, i, j, k), 1) for j in range(1, n + 1)),
                    "=",
                    1,
                )
            )
    for j in range(1, n + 1):
        for k in range(1, n + 1):
            rows.append(
                LpRow(
                    f"G2_{j}_{k}",
                    tuple((variable_name("x", n, i, j, k), 1) for i in range(1, n + 1)),
                    "=",
                    1,
                )
            )
    for p in range(1, s + 1):
        for q in range(1, s + 1):
            box = [
                (i, j)
                for i in range(s * p - s + 1, s * p + 1)
                for j in range(s * q - s + 1, s * q + 1)
            ]
            for k in range(1, n + 1):
                rows.append(
                    LpRow(
                        f"G3_{p}_{q}_{k}",
                        tuple((variable_name("x", n, i, j, k), 1) for i, j in box),
                        "=",
                        1,
                    )
                )
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
    """Write model/aux (and cut) files; see the module docstring."""
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


_NAME_SPLIT = re.compile(r"([A-Za-z][A-Za-z0-9_]*)\s*:")
_SENSE = re.compile(r"(<=|>=|=)")


def _parse_terms(text: str) -> tuple[tuple[str, int], ...]:
    tokens = text.replace("+", " + ").replace("-", " - ").split()
    terms: list[tuple[str, int]] = []
    sign = 1
    coeff: Optional[int] = None
    for tok in tokens:
        if tok == "+":
            sign = 1
        elif tok == "-":
            sign = -1
        elif tok.isdigit():
            coeff = int(tok)
        else:
            value = sign * (coeff if coeff is not None else 1)
            terms.append((tok, value))
            sign = 1
            coeff = None
    if coeff is not None:
        raise ModelFormatError(f"dangling coefficient in {text!r}")
    return tuple(terms)


def parse_model(path) -> LpModel:
    """Re-parse an exported LP file into its constraint system."""
    text = Path(path).read_text(encoding="ascii")
    lines = []
    for raw in text.splitlines():
        body = raw.split("\\", 1)[0]
        if body.strip():
            lines.append(body)
    joined = "\n".join(lines)

    def section(start: str, enders: list[str]) -> str:
        m = re.search(rf"^\s*{start}\b", joined, re.IGNORECASE | re.MULTILINE)
        if not m:
            raise ModelFormatError(f"missing section {start!r}")
        rest = joined[m.end():]
        end = len(rest)
        for ender in enders:
            m2 = re.search(rf"^\s*{ender}\b", rest, re.IGNORECASE | re.MULTILINE)
            if m2:
                end = min(end, m2.start())
        return rest[:end]

    obj_block = section("Minimize", ["Subject To"])
    sub_block = section("Subject To", ["Binary", "Bounds", "General", "End"])
    bin_block = section("Binary", ["End"])

    parts = _NAME_SPLIT.split(obj_block)
    if len(parts) < 3:
        raise ModelFormatError("objective row not found")
    objective = _parse_terms(parts[2])

    parts = _NAME_SPLIT.split(sub_block)
    rows: list[LpRow] = []
    it = iter(parts[1:])
    for name, body in zip(it, it):
        m = _SENSE.search(body)
        if not m:
            raise ModelFormatError(f"row {name!r} has no comparison")
        terms = _parse_terms(body[: m.start()])
        rhs_text = body[m.end():].strip()
        try:
            rhs = int(rhs_text)
        except ValueError:
            raise ModelFormatError(f"row {name!r} has non-integer rhs {rhs_text!r}")
        rows.append(LpRow(name, terms, m.group(1), rhs))

    binaries = frozenset(bin_block.split())
    return LpModel(objective, tuple(rows), binaries)


def model_signature(model: LpModel):
    """Order-independent canonical form used for round-trip comparison."""
    return (
        tuple(sorted(model.objective)),
        tuple(
            sorted(
                (row.name, tuple(sorted(row.terms)), row.sense, row.rhs)
                for row in model.rows
            )
        ),
        tuple(sorted(model.binaries)),
    )


def grid_from_model(model: LpModel) -> Grid:
    """Rebuild the target grid from the clue-fixing rows of a parsed model.

    Verifies the structural row counts so the follower system is known to be
    the standard completion encoding before the engine stands in for it.
    """
    x_vars = [name for name in model.binaries if name.startswith("x")]
    n = round(len(x_vars) ** (1 / 3))
    if n**3 != len(x_vars):
        raise ModelFormatError("x variable count is not a cube")
    counts = {"G0": 0, "G1": 0, "G2": 0, "G3": 0, "F1": 0, "N1": 0, "V1": 0}
    entries = {}
    for row in model.rows:
        family = row.name.split("_", 1)[0]
        if family in counts:
            counts[family] += 1
        if family == "F1":
            _, i, j = row.name.split("_")
            x_terms = [t for t in row.terms if t[0].startswith("x")]
            y_terms = [t for t in row.terms if t[0].startswith("y")]
            if (
                len(x_terms) != 1
                or len(y_terms) != 1
                or x_terms[0][1] != 1
                or y_terms[0][1] != -1
                or row.sense != ">="
                or row.rhs != 0
            ):
                raise ModelFormatError(f"row {row.name} is not a clue-fixing row")
            _, xi, xj, xk = decode_variable(x_terms[0][0])
            if (xi, xj) != (int(i), int(j)):
                raise ModelFormatError(f"row {row.name} fixes the wrong cell")
            entries[(xi, xj)] = xk
    expected = {
        "G0": n * n,
        "G1": n * n,
        "G2": n * n,
        "G3": n * n,
        "F1": n * n,
        "N1": 1,
        "V1": 1,
    }
    if counts != expected:
        raise ModelFormatError(f"unexpected row families: {counts}")
    size = GridSize.of_side(n)
    flat = [entries[(i, j)] for i in range(1, n + 1) for j in range(1, n + 1)]
    return Grid(size, flat)


def follower_has_alternate(
    model: LpModel,
    pattern: CluePattern,
    budget: Optional[SearchBudget] = None,
) -> bool:
    """Feasibility of the follower system under a fixed reveal pattern.

    The parsed rows are the standard completion encoding (checked by
    grid_from_model), so the native engine decides feasibility of
    { completions respecting the revealed cells } minus the target itself.
    """
    grid = grid_from_model(model)
    return find_alternate(grid, pattern, budget) is not None
