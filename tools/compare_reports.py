"""Compare a freshly written bench report with its committed reference.

Usage:  python tools/compare_reports.py NEW.json REFERENCE.json

Every field must match the reference exactly, except the few that come
from host floating-point libraries rather than the simulator, which
match at a relative tolerance of 1e-9:

* ``compression.max_rel_error`` — a host-LAPACK reconstruction residual;
* ``est_s`` and everything under ``alternatives_s`` — placement cost
  estimates from an ``np.linalg.lstsq`` fit.

Exit status 0 means the reports agree; 1 lists every difference.
"""

from __future__ import annotations

import json
import math
import sys

RTOL = 1e-9


def _loose(path: tuple) -> bool:
    keys = [p for p in path if isinstance(p, str)]
    return keys[-2:] == ["compression", "max_rel_error"] or bool(
        {"est_s", "alternatives_s"} & set(keys)
    )


def _fmt(path: tuple) -> str:
    return "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in path)[1:] or "<root>"


def differences(new, ref, path: tuple = ()) -> list[str]:
    """Human-readable differences between two decoded JSON documents."""
    if isinstance(ref, dict) and isinstance(new, dict):
        out = [f"{_fmt(path + (k,))}: missing" for k in ref if k not in new]
        out += [f"{_fmt(path + (k,))}: unexpected" for k in new if k not in ref]
        for k in ref:
            if k in new:
                out += differences(new[k], ref[k], path + (k,))
        return out
    if isinstance(ref, list) and isinstance(new, list):
        if len(new) != len(ref):
            return [f"{_fmt(path)}: length {len(new)} != {len(ref)}"]
        return [d for i, (a, b) in enumerate(zip(new, ref)) for d in differences(a, b, path + (i,))]
    numbers = (int, float)
    if (
        _loose(path)
        and isinstance(new, numbers)
        and isinstance(ref, numbers)
        and math.isclose(new, ref, rel_tol=RTOL, abs_tol=0.0)
    ):
        return []
    if type(new) is type(ref) and new == ref:
        return []
    return [f"{_fmt(path)}: {new!r} != {ref!r}"]


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2])
        return 2
    with open(argv[0]) as fh:
        new = json.load(fh)
    with open(argv[1]) as fh:
        ref = json.load(fh)
    diffs = differences(new, ref)
    for d in diffs:
        print(f"DIFF  {d}")
    print(f"{argv[0]} vs {argv[1]}: {'OK' if not diffs else f'{len(diffs)} difference(s)'}")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
