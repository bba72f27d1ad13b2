"""File formats: grid/profile/curve CSVs, point lists, tree files, IFS specs.

All writers go through an atomic temp-file rename so partial outputs never
land under the target name.
"""

from __future__ import annotations

import json
import os
import tempfile
from itertools import repeat
from pathlib import Path

import numpy as np

from .grids import GridSpec, PiecewiseLinear, TwoScaleGrid
from .operators import SpectrumGrid
from .covering import PointSet
from .synthesis import DyadicTree, ExportedPoints
from .ifs import SimilarityIFS

# Exponents e for which 2.0 ** e is a finite nonzero float.
MIN_EXP, MAX_EXP = -1074, 1023
# point-list rows parsed at once
ROW_BLOCK = 8192


def atomic_write(path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# Grid CSV: header u,v,value in lexicographic (u, v) order
# ---------------------------------------------------------------------------

def grid_to_csv(grid: TwoScaleGrid) -> str:
    coords = grid.spec.coords
    lines = ["u,v,value"]
    for i, u in enumerate(coords):
        for j in range(i + 1):
            lines.append(f"{u:.12g},{coords[j]:.12g},{grid.values[i, j]:.15g}")
    return "\n".join(lines) + "\n"


def grid_from_csv(text: str) -> TwoScaleGrid:
    rows = _read_rows(text, "u,v,value")
    us = sorted({r[0] for r in rows})
    if not us or us[0] != 0.0:
        raise ValueError("grid CSV must include u = 0")
    step = min(b - a for a, b in zip(us, us[1:])) if len(us) > 1 else us[-1]
    spec = GridSpec(us[-1], step)
    n = spec.n
    vals = np.zeros((n + 1, n + 1))
    seen = np.zeros((n + 1, n + 1), dtype=bool)
    for u, v, x in rows:
        i, j = spec.index_of(u, "u"), spec.index_of(v, "v")
        vals[i, j] = x
        seen[i, j] = True
    ii, jj = np.tril_indices(n + 1)
    if not seen[ii, jj].all():
        raise ValueError("grid CSV is missing lattice rows")
    return TwoScaleGrid(spec, vals)


# ---------------------------------------------------------------------------
# Profile CSV: header breakpoint,slope (one row per segment, plus final row
# with empty slope when the extension is constant)
# ---------------------------------------------------------------------------

def profile_to_csv(profile: PiecewiseLinear) -> str:
    lines = ["breakpoint,slope"]
    bp, sl = profile.breakpoints, profile.slopes
    for k, b in enumerate(bp):
        if k < sl.size:
            lines.append(f"{b:.12g},{sl[k]:.15g}")
        else:
            lines.append(f"{b:.12g},")
    return "\n".join(lines) + "\n"


def profile_from_csv(text: str) -> PiecewiseLinear:
    lines = [ln.strip() for ln in text.strip().splitlines()]
    if not lines or lines[0] != "breakpoint,slope":
        raise ValueError("expected header breakpoint,slope")
    bps, slopes = [], []
    for ln in lines[1:]:
        if not ln:
            continue
        b, _, s = ln.partition(",")
        bps.append(float(b))
        if s.strip():
            slopes.append(float(s))
    return PiecewiseLinear(np.array(bps), np.array(slopes))


# ---------------------------------------------------------------------------
# Curve CSV: header theta,value
# ---------------------------------------------------------------------------

def curve_to_csv(curve: SpectrumGrid) -> str:
    lines = ["theta,value"]
    for th, x in zip(curve.thetas, curve.values):
        lines.append(f"{th:.12g},{x:.15g}")
    return "\n".join(lines) + "\n"


def curve_from_csv(text: str) -> SpectrumGrid:
    rows = _read_rows(text, "theta,value")
    thetas = np.array([r[0] for r in rows])
    step = thetas[1] - thetas[0] if len(rows) > 1 else 1.0
    expected = np.arange(len(rows)) * step
    if abs(thetas[-1] - 1.0) > 1e-9 or np.max(np.abs(thetas - expected)) > 1e-9:
        raise ValueError("curve CSV must sample a uniform theta grid ending at 1")
    return SpectrumGrid(step, np.array([r[1] for r in rows]))


# ---------------------------------------------------------------------------
# Point list CSV + metadata sidecar
# ---------------------------------------------------------------------------

def points_to_csv(points: ExportedPoints) -> str:
    """Header plus one row per point: numerator and exponent for each coordinate.

    The rows are one ``%`` format over the interleaved (m, 2d) integer table.
    """
    m, d = points.numerators.shape
    header = ",".join(f"coord_{q}_num,coord_{q}_exp" for q in range(d)) + "\n"
    row = ",".join(["%d,%d"] * d) + "\n"
    table = np.empty((m, 2 * d), dtype=np.int64)
    table[:, 0::2] = points.numerators
    table[:, 1::2] = points.exponents[:, None]
    return (header + row * m) % tuple(table.ravel().tolist())


def points_from_csv(text: str, depth: int) -> PointSet:
    """Read a point list, snapped to the nearest depth-level dyadic point.

    Rows are numbered from the header (row 1), blank lines skipped, and
    parsed in blocks of ``ROW_BLOCK``; a bad row is reported by its number,
    the first one in file order when there are several.  ``depth`` must lie
    in [0, ``MAX_EXP``], where 2^depth is a finite float.
    """
    if not 0 <= depth <= MAX_EXP:
        raise ValueError(f"point depth must lie in [0, {MAX_EXP}], got {depth}")
    lines = list(filter(None, map(str.strip, text.splitlines())))
    if not lines or not lines[0].startswith("coord_0_num"):
        raise ValueError("expected point list header coord_0_num,coord_0_exp,...")
    d = (lines[0].count(",") + 1) // 2
    rows = lines[1:]
    if not rows:
        raise ValueError("point list is empty")
    pts = np.empty((len(rows), d))
    for start in range(0, len(rows), ROW_BLOCK):
        block = rows[start:start + ROW_BLOCK]
        pts[start:start + len(block)] = _rows_to_points(block, d, start + 2)
    # snap to the nearest depth-level dyadic point; records the quantization.
    # Only points far outside the cube overflow, and PointSet rejects them
    with np.errstate(over="ignore"):
        arr = np.round(pts * 2.0**depth) / 2.0**depth
    return PointSet(arr, depth)


def _rows_to_points(rows: list[str], d: int, first: int) -> np.ndarray:
    """Coordinates (len(rows), d) of point-list rows; ``first`` numbers rows[0].

    A failing block is halved until the failing row is alone, so the error
    names the first bad row and gives the message a row-by-row reader would.
    """
    try:
        return _parse_rows(rows, d, first)
    except ValueError:
        if len(rows) == 1:
            raise
        half = len(rows) // 2
        _rows_to_points(rows[:half], d, first)
        _rows_to_points(rows[half:], d, first + half)
        raise


def _parse_rows(rows: list[str], d: int, first: int) -> np.ndarray:
    """Check and convert rows in the order a row is checked: integer fields,
    field count, exponent range, numerator range.  Messages name row ``first``,
    which ``_rows_to_points`` makes the failing row."""
    values = list(map(int, ",".join(rows).split(",")))
    fields = np.fromiter(map(str.count, rows, repeat(",")), dtype=np.int64, count=len(rows)) + 1
    if np.any(fields != 2 * d):
        raise ValueError(f"point list row {first} has {fields[0]} fields, expected {2 * d}")
    exps = values[1::2]
    if min(exps) < MIN_EXP or max(exps) > MAX_EXP:
        raise ValueError(f"point list row {first} has an exponent outside [{MIN_EXP}, {MAX_EXP}]")
    try:
        nums = np.array(values[0::2], dtype=float)
    except OverflowError:
        raise ValueError(f"point list row {first} has a numerator beyond the float range") from None
    # a finite numerator over a tiny 2^e may round to inf; PointSet rejects it
    with np.errstate(over="ignore"):
        return (nums / np.ldexp(1.0, np.array(exps))).reshape(len(rows), d)


def _load_json(text: str, what: str):
    """``json.loads``, with nesting too deep for its recursion reported as ``ValueError``."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError(f"malformed {what}: nested too deeply") from None


def read_set_metadata(text: str) -> dict:
    """Parse a metadata sidecar: a JSON object whose "depth", if given, is an integer."""
    meta = _load_json(text, "metadata")
    if not isinstance(meta, dict):
        raise ValueError("metadata must be a JSON object")
    if "depth" in meta and type(meta["depth"]) is not int:
        raise ValueError(f"metadata depth must be an integer, got {meta['depth']!r}")
    return meta


def write_set_metadata(path, d: int, depth: int, rescale_exponent: int, extra: dict | None = None) -> None:
    payload = {"d": d, "depth": depth, "rescale_exponent": rescale_exponent}
    payload.update(extra or {})
    atomic_write(path, json.dumps(payload, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Tree file: level headers and one base-2^d address per line
# ---------------------------------------------------------------------------

def tree_to_text(tree: DyadicTree) -> str:
    """Level headers, then each code as its n base-2^d digits, root first.

    Each level is one (codes, n + 1) byte array of digit characters and
    newlines, decoded at once; the level-0 root is written ``-``.
    """
    d = tree.dimension
    if d > 3:
        raise ValueError("tree files use single-digit children (d <= 3)")
    parts = []
    for n, codes in enumerate(tree.levels):
        parts.append(f"# level {n}\n")
        if n == 0:
            parts.append("-\n" * codes.size)
            continue
        shifts = d * np.arange(n - 1, -1, -1, dtype=np.int64)
        chars = np.full((codes.size, n + 1), ord("\n"), dtype=np.uint8)
        chars[:, :n] = ((codes[:, None] >> shifts) & ((1 << d) - 1)) + ord("0")
        parts.append(chars.tobytes().decode("ascii"))
    return "".join(parts)


def tree_from_text(text: str, dimension: int) -> DyadicTree:
    levels: list[list[int]] = []
    current: list[int] | None = None
    for ln in text.splitlines():
        ln = ln.strip()
        if not ln:
            continue
        if ln.startswith("# level"):
            levels.append([])
            current = levels[-1]
            continue
        if current is None:
            raise ValueError("address before any level header")
        code = 0
        if ln != "-":
            for ch in ln:
                code = (code << dimension) | int(ch)
        current.append(code)
    arrays = [np.array(sorted(lv), dtype=np.int64) for lv in levels]
    return DyadicTree(dimension, len(arrays) - 1, arrays)


# ---------------------------------------------------------------------------
# IFS spec JSON
# ---------------------------------------------------------------------------

def _read_rows(text: str, header: str) -> list[tuple[float, ...]]:
    lines = [ln.strip() for ln in text.strip().splitlines()]
    if not lines or lines[0] != header:
        raise ValueError(f"expected header {header!r}")
    rows = []
    for ln in lines[1:]:
        if ln:
            rows.append(tuple(float(tok) for tok in ln.split(",")))
    if not rows:
        raise ValueError("file has no data rows")
    return rows


def _json_int(value, key: str) -> int:
    """An integer field of a JSON spec; floats and booleans are rejected, not truncated."""
    if type(value) is not int:
        raise TypeError(f"{key} must be an integer, got {value!r}")
    return value


def ifs_from_json(text: str, base_dir=None) -> SimilarityIFS:
    """Parse {"d": 1, "maps": [{"ratio_exp": 2, "translation": [0.0]}, ...],
    "condensation": "point" | <point CSV path> | omitted}.

    "d", "ratio_exp" and "condensation_depth" must be JSON integers.
    Maps take either "ratio_exp" (ratio 2^-k, exact) or a float "ratio".  An
    omitted condensation means the maps' fixed points; a point-list path must
    end in .csv and is read relative to ``base_dir``.  Any other value is
    rejected.
    """
    data = _load_json(text, "IFS spec")
    try:
        d = _json_int(data["d"], "d")
        ratios, translations = [], []
        for m in data["maps"]:
            if "ratio_exp" in m:
                ratios.append(2.0 ** -_json_int(m["ratio_exp"], "ratio_exp"))
            else:
                ratios.append(float(m["ratio"]))
            translations.append([float(x) for x in m["translation"]])
        cond_depth = _json_int(data.get("condensation_depth", 20), "condensation_depth")
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"malformed IFS spec: {exc}") from None
    cond = data.get("condensation")
    F = None
    if cond == "point":
        F = np.zeros((1, d))
    elif isinstance(cond, str) and cond.endswith(".csv"):
        path = Path(base_dir or ".") / cond
        F = points_from_csv(path.read_text(), cond_depth).points
    elif cond is not None:
        raise ValueError(f'condensation must be "point" or a path ending in .csv, got {cond!r}')
    return SimilarityIFS(d, np.array(ratios), np.array(translations), F)
