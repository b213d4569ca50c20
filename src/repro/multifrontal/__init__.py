"""Sparse direct multifrontal Cholesky on the vbatched foundation.

The paper motivates vbatched routines with "large scale sparse direct
multifrontal solvers" (§I) and names them a future direction (§V).
This package is that application, end to end:

* :mod:`ordering` — nested-dissection elimination forest of a sparse
  SPD pattern (networkx, imported on the first ordering call so that
  ``import repro`` does not load it);
* :mod:`symbolic` — per-separator frontal structure (rows = separator
  + boundary) and the level schedule;
* :mod:`numeric` — level-by-level frontal assembly (extend-add) with
  every level's fronts eliminated in ONE vbatched partial-Cholesky
  call (:func:`repro.core.partial.partial_potrf_vbatched`);
* :mod:`solve` — forward/backward substitution through the front tree.

The fronts within a level have genuinely different orders — the exact
variable-size batch the paper is about.
"""

from .ordering import EliminationNode, nested_dissection
from .symbolic import FrontInfo, SymbolicFactorization, analyze
from .numeric import MultifrontalFactor, factorize
from .solve import solve

__all__ = [
    "EliminationNode",
    "nested_dissection",
    "FrontInfo",
    "SymbolicFactorization",
    "analyze",
    "MultifrontalFactor",
    "factorize",
    "solve",
]
