"""Figure-regeneration harness.

One entry point per paper figure (:mod:`repro.bench.figures`), each
returning a :class:`~repro.bench.harness.FigureResult` whose series can
be printed as the rows the paper plots.  The ``benchmarks/`` pytest
suite drives these and asserts the paper's qualitative claims.
"""

from .harness import FigureResult, Series
from .report import format_ascii_chart, format_figure, format_table
from .profile import format_profile, profile_timeline
from .regression import compare_to_snapshot, load_snapshot, save_snapshot
from . import figures

__all__ = [
    "FigureResult",
    "Series",
    "format_figure",
    "format_table",
    "format_ascii_chart",
    "profile_timeline",
    "format_profile",
    "save_snapshot",
    "load_snapshot",
    "compare_to_snapshot",
    "figures",
]
