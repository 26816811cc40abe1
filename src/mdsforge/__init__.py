"""Exact MDS evaluation codes over GF(p^m): construction, certification,
subset-condition search, existence bounds and erasure decoding."""

from .certify import (
    Certificate,
    mds_exhaustive,
    min_distance_bruteforce,
    non_rs_certificate,
    schur_square_dim,
    schur_square_dim_from_exponents,
)
from .codec import ERASED, decode_erasures
from .conditions import (
    BoundQuery,
    ConditionSpec,
    ExhaustiveSearch,
    GreedySearch,
    RandomSearch,
    check_esym,
    existence_bound,
    search_eval_set,
)
from .evalcode import (
    EvalCode,
    EvalSet,
    ExponentSet,
    encode,
    generator_matrix,
    sumset,
)
from .families import (
    FAMILIES,
    cor44,
    cor62,
    cor411,
    extended_hamming_parity,
    lift_parity_columns,
    thm63,
    thm64,
    thm412,
    thm415,
)
from .field import FieldContext, FieldElement, make_field
from .matrix import MatrixFq, matrix_from_rows, rank

__version__ = "0.1.0"

__all__ = [
    "Certificate",
    "BoundQuery",
    "ConditionSpec",
    "ERASED",
    "EvalCode",
    "EvalSet",
    "ExhaustiveSearch",
    "ExponentSet",
    "FAMILIES",
    "FieldContext",
    "FieldElement",
    "GreedySearch",
    "MatrixFq",
    "RandomSearch",
    "check_esym",
    "cor411",
    "cor44",
    "cor62",
    "decode_erasures",
    "encode",
    "existence_bound",
    "extended_hamming_parity",
    "generator_matrix",
    "lift_parity_columns",
    "make_field",
    "matrix_from_rows",
    "mds_exhaustive",
    "min_distance_bruteforce",
    "non_rs_certificate",
    "rank",
    "schur_square_dim",
    "schur_square_dim_from_exponents",
    "search_eval_set",
    "sumset",
    "thm412",
    "thm415",
    "thm63",
    "thm64",
]
