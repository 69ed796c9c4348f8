"""Exact finite-field toolkit for counting Hankel matrix ranks.

Submodules:
    gf       finite fields GF(p^d) and element arithmetic
    hankel   Hankel / Jacobi-Trudi matrix construction, rank, determinant
    ranklaw  adjacent-shape rank laws and the fast rank-bound reduction
    witness  constructive gadgets: tail solver, truncation map, bijections
    census   closed-form counting formulas, brute-force and sampled checks
    cli      command-line front end
"""

from hankelcensus.gf import (
    FieldElement,
    FieldSpec,
    parse_field,
)
from hankelcensus.hankel import (
    DenseMatrix,
    HankelShape,
    RowVector,
    SeqTuple,
    det,
    jt_matrix,
    jt_to_hankel,
    materialize_hankel,
    rank_gauss,
)
from hankelcensus.ranklaw import (
    RankPair,
    rank_le_fast,
    rank_pair,
)
from hankelcensus.witness import (
    NiceContext,
    R_inv,
    R_map,
    alpha,
    beta,
    is_strongly_nice,
    is_weakly_nice,
    last,
    solve_tail,
)
from hankelcensus.census import (
    CapExceededError,
    CensusReport,
    CountQuery,
    RankDistribution,
    brute_census,
    brute_count_jt_singular,
    brute_count_rank_le,
    count_det_zero_formula,
    count_jt_singular_formula,
    count_rank_eq_formula,
    count_rank_le_formula,
    monte_carlo_rank_le,
    verify,
)

__version__ = "0.1.0"

__all__ = [
    "FieldElement",
    "FieldSpec",
    "parse_field",
    "DenseMatrix",
    "HankelShape",
    "RowVector",
    "SeqTuple",
    "det",
    "jt_matrix",
    "jt_to_hankel",
    "materialize_hankel",
    "rank_gauss",
    "RankPair",
    "rank_le_fast",
    "rank_pair",
    "NiceContext",
    "R_inv",
    "R_map",
    "alpha",
    "beta",
    "is_strongly_nice",
    "is_weakly_nice",
    "last",
    "solve_tail",
    "CapExceededError",
    "CensusReport",
    "CountQuery",
    "RankDistribution",
    "brute_census",
    "brute_count_jt_singular",
    "brute_count_rank_le",
    "count_det_zero_formula",
    "count_jt_singular_formula",
    "count_rank_eq_formula",
    "count_rank_le_formula",
    "monte_carlo_rank_le",
    "verify",
]
