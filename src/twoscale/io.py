"""File formats: grid/profile/curve CSVs, point lists, tree files, IFS specs.

All writers go through an atomic temp-file rename so partial outputs never
land under the target name.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

import numpy as np

from .grids import GridSpec, PiecewiseLinear, TwoScaleGrid
from .operators import SpectrumGrid
from .covering import PointSet
from .synthesis import DyadicTree, ExportedPoints
from .ifs import SimilarityIFS


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
    d = points.numerators.shape[1]
    header = ",".join(f"coord_{q}_num,coord_{q}_exp" for q in range(d))
    lines = [header]
    for num, e in zip(points.numerators, points.exponents):
        lines.append(",".join(f"{num[q]},{e}" for q in range(d)))
    return "\n".join(lines) + "\n"


def points_from_csv(text: str, depth: int) -> PointSet:
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("coord_0_num"):
        raise ValueError("expected point list header coord_0_num,coord_0_exp,...")
    d = (lines[0].count(",") + 1) // 2
    pts = []
    for k, ln in enumerate(lines[1:], start=2):
        parts = [int(tok) for tok in ln.split(",")]
        if len(parts) != 2 * d:
            raise ValueError(f"point list row {k} has {len(parts)} fields, expected {2 * d}")
        pts.append([parts[2 * q] / 2.0 ** parts[2 * q + 1] for q in range(d)])
    if not pts:
        raise ValueError("point list is empty")
    # snap to the nearest depth-level dyadic point; records the quantization
    arr = np.round(np.asarray(pts) * 2.0**depth) / 2.0**depth
    return PointSet(arr, depth)


def write_set_metadata(path, d: int, depth: int, rescale_exponent: int, extra: dict | None = None) -> None:
    payload = {"d": d, "depth": depth, "rescale_exponent": rescale_exponent}
    payload.update(extra or {})
    atomic_write(path, json.dumps(payload, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Tree file: level headers and one base-2^d address per line
# ---------------------------------------------------------------------------

def tree_to_text(tree: DyadicTree) -> str:
    if tree.dimension > 3:
        raise ValueError("tree files use single-digit children (d <= 3)")
    lines = []
    for n, codes in enumerate(tree.levels):
        lines.append(f"# level {n}")
        for code in codes:
            digits = [(int(code) >> (tree.dimension * (n - pos))) & ((1 << tree.dimension) - 1)
                      for pos in range(1, n + 1)]
            lines.append("".join(str(x) for x in digits) if digits else "-")
    return "\n".join(lines) + "\n"


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


def ifs_from_json(text: str, base_dir=None) -> SimilarityIFS:
    """Parse {"d": 1, "maps": [{"ratio_exp": 2, "translation": [0.0]}, ...],
    "condensation": "point" | <point CSV path> | omitted}.

    Maps take either "ratio_exp" (ratio 2^-k, exact) or a float "ratio".  An
    omitted condensation means the maps' fixed points; a point-list path must
    end in .csv and is read relative to ``base_dir``.  Any other value is
    rejected.
    """
    data = json.loads(text)
    d = int(data["d"])
    ratios, translations = [], []
    for m in data["maps"]:
        if "ratio_exp" in m:
            ratios.append(2.0 ** (-int(m["ratio_exp"])))
        else:
            ratios.append(float(m["ratio"]))
        translations.append([float(x) for x in m["translation"]])
    cond = data.get("condensation")
    F = None
    if cond == "point":
        F = np.zeros((1, d))
    elif isinstance(cond, str) and cond.endswith(".csv"):
        path = Path(base_dir or ".") / cond
        depth = int(data.get("condensation_depth", 20))
        F = points_from_csv(path.read_text(), depth).points
    elif cond is not None:
        raise ValueError(f'condensation must be "point" or a path ending in .csv, got {cond!r}')
    return SimilarityIFS(d, np.array(ratios), np.array(translations), F)
