"""Exact minimum-clue analysis for completed Sudoku grids.

Given a completed grid, find a smallest set of cells whose values, revealed
as clues, admit that grid as the puzzle's unique solution, together with a
certificate of optimality built from minimal unavoidable sets. The same
machinery generalizes to any problem with an alternate-certificate oracle.
"""

from .engine import (
    DeviationConstraint,
    SearchBudget,
    SearchInterrupted,
    SearchStats,
    count_solutions,
    find_alternate,
    find_deviating_grid,
    iter_solutions,
    solve_puzzle,
)
from .export import (
    BilevelModelFiles,
    EmptyCollectionError,
    export_bilevel,
    export_cuts,
)
from .grid import (
    Cell,
    CluePattern,
    ConstraintViolationError,
    Grid,
    GridError,
    GridSize,
    IllegalCharacterError,
    LengthMismatchError,
    Puzzle,
    SizeMismatchError,
    apply_pattern,
    parse_grid,
    parse_puzzle,
    serialize,
)
from .hitting import (
    HittingInstance,
    HittingSolution,
    HittingWalk,
    disjoint_packing_bound,
    min_hitting_set,
)
from .solver import (
    FcpInstance,
    FcpResult,
    MscpConfig,
    MscpResult,
    MscpStatus,
    TraceEntry,
    fcp_solve,
    latin_square_fcp_instance,
    solve_mscp,
    verify_validity,
)
from .unavoidable import (
    CorruptCollectionError,
    FingerprintMismatchError,
    GenerationLimits,
    NotUnavoidableError,
    UnavoidableCollection,
    UnavoidableSet,
    generate_all,
    grid_fingerprint,
    is_unavoidable,
    load_collection,
    minimalize,
    save_collection,
)

__version__ = "0.1.0"
