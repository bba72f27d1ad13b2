"""File formats: grid/profile/curve CSVs, point lists (integer and float), IFS specs.

The writers format text; only ``write_outputs`` touches the disk, and it
lands a command's files in its output directory all together or not at all.
"""

from __future__ import annotations

import functools
import json
import os
import shutil
import tempfile
import warnings
from itertools import chain, repeat
from pathlib import Path

import numpy as np

from .grids import GridSpec, PiecewiseLinear, TwoScaleGrid
from .operators import SpectrumGrid
from .covering import MAX_CELL_LEVEL, PointSet
from .synthesis import ExportedPoints
from .ifs import SimilarityIFS

# Exponents e for which 2.0 ** e is a finite nonzero float.
MIN_EXP, MAX_EXP = -1074, 1023
# rows formatted, or point-list rows parsed, at once
ROW_BLOCK = 8192
# coordinates formatted at once by float_points_to_csv, and the bytes of one
# coordinate's row before its NULs are deleted
FLOAT_BLOCK = 16384
_FLOAT_ROW = 40


def atomic_write(path, text: str | bytes) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb" if isinstance(text, bytes) else "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def json_text(payload) -> str:
    """The JSON report format: sorted keys, numpy scalars as floats, one closing newline."""
    return json.dumps(payload, sort_keys=True, default=float) + "\n"


def write_outputs(out, files: dict) -> None:
    """Write ``files``, {name: str | bytes | dict (as ``json_text``)}, into ``out``: all or none.

    Every file is staged in a private directory inside ``out``, then moved into
    place with the mode a plain write under the umask gives.  A target that is a
    directory is refused first; on any failure the staging directory is removed.
    """
    out = Path(out)
    for name in files:
        if (out / name).is_dir():
            raise IsADirectoryError(f"cannot write {out / name}: it is a directory")
    out.mkdir(parents=True, exist_ok=True)
    staging = Path(tempfile.mkdtemp(dir=out, prefix=".staging-"))
    umask = os.umask(0o022)
    os.umask(umask)
    try:
        for name, body in files.items():
            text = json_text(body) if isinstance(body, dict) else body
            atomic_write(staging / name, text)
            os.chmod(staging / name, 0o666 & ~umask)
        for name in files:
            os.replace(staging / name, out / name)
    finally:
        shutil.rmtree(staging, ignore_errors=True)


# ---------------------------------------------------------------------------
# Grid CSV: header u,v,value in lexicographic (u, v) order
# ---------------------------------------------------------------------------

def grid_to_csv(grid: TwoScaleGrid) -> str:
    """Header plus one row per lattice entry, one ``%`` format per ``ROW_BLOCK`` rows."""
    ii, jj = np.tril_indices(grid.spec.n + 1)
    coords = grid.spec.coords
    table = np.column_stack([coords[ii], coords[jj], grid.values[ii, jj]])
    parts = ["u,v,value\n"]
    for start in range(0, len(table), ROW_BLOCK):
        block = table[start:start + ROW_BLOCK]
        parts.append(("%.12g,%.12g,%.15g\n" * len(block)) % tuple(block.ravel().tolist()))
    return "".join(parts)


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
        if j > i or seen[i, j]:
            problem = "has v > u" if j > i else "appears twice"
            raise ValueError(f"grid CSV row (u, v) = ({u:g}, {v:g}) {problem}")
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

    ``_int_rows`` formats ``ROW_BLOCK`` rows at a time straight from the
    numerator and exponent columns, and each block is decoded as it is made:
    the block texts and their join hold the text twice, and the other
    temporaries are one block's.
    """
    nums, exps = points.numerators, points.exponents
    parts = [_points_header(nums.shape[1]) + "\n"]
    for start in range(0, exps.size, ROW_BLOCK):
        e = exps[start:start + ROW_BLOCK]
        columns = [col for num in nums[start:start + ROW_BLOCK].T for col in (num, e)]
        parts.append(_int_rows(columns).decode("ascii"))
    return "".join(parts)


def _int_rows(columns: list[np.ndarray]) -> bytes:
    """``%d`` of every value of equally long int64 columns, joined by commas
    row by row, each row ending in a newline.

    Each column gets a field as wide as its largest magnitude, plus a sign slot
    if it holds a negative, and its digits are written units first, one
    ``// 10`` per digit position.  Leading zeros stay NUL, and the NULs are
    deleted at the end.  Magnitudes are taken as uint64, so -2^63 is exact.
    Its output is the written form that ``points_from_csv`` parses at once.
    """
    fields = []
    for col in columns:
        mag = np.abs(col).view(np.uint64)
        neg = col < 0
        fields.append((mag, neg if neg.any() else None, len(str(int(mag.max())))))
    ends = np.cumsum([(neg is not None) + width + 1 for _, neg, width in fields])
    chars = np.zeros((fields[0][0].size, ends[-1]), dtype=np.uint8)
    chars[:, ends[:-1] - 1] = ord(",")
    chars[:, -1] = ord("\n")
    for end, (q, neg, width) in zip(ends, fields):
        for pos in range(width):
            rest = q // 10
            digit = (q - rest * 10).astype(np.uint8) + ord("0")
            chars[:, end - 2 - pos] = digit if pos == 0 else digit * (q != 0)
            q = rest
        if neg is not None:
            chars[:, end - 2 - width] = neg * ord("-")
    return chars.tobytes().translate(None, b"\0")


def _points_header(d: int) -> str:
    return ",".join(f"coord_{q}_num,coord_{q}_exp" for q in range(d))


def float_points_to_csv(points: np.ndarray) -> bytes:
    """Header ``coord_<q>`` plus one row per point of an (m, d) float array,
    each coordinate in its ``%.17g`` form, byte for byte.

    Coordinates are formatted ``FLOAT_BLOCK`` at a time by ``_float_rows``,
    every block in the same work arrays.
    """
    # the cached tables come first: built after the work arrays, they would
    # stay above the arrays' freed space and keep the heap from shrinking
    tables = _float_tables()
    d = points.shape[1]
    flat = np.asarray(points, dtype=np.float64).ravel()
    seps = np.full(flat.size, ord(","), dtype=np.uint8)
    seps[d - 1::d] = ord("\n")
    rows = np.empty((min(flat.size, FLOAT_BLOCK), _FLOAT_ROW // 8), dtype=np.uint64)
    groups = np.empty((5, rows.shape[0]), dtype=np.intp)
    parts = [",".join(f"coord_{q}" for q in range(d)).encode("ascii") + b"\n"]
    for start in range(0, flat.size, FLOAT_BLOCK):
        x = flat[start:start + FLOAT_BLOCK]
        parts.append(_float_rows(x, seps[start:start + x.size], tables, rows[:x.size], groups[:, :x.size]))
    return b"".join(parts)


def _float_rows(x: np.ndarray, seps: np.ndarray, tables: tuple,
                rows: np.ndarray, groups: np.ndarray) -> bytes:
    """``%.17g`` of each value of ``x``, each followed by its separator byte.

    Values in fixed notation get their exact row from ``_fixed_rows``.
    Zeros, non-finite values and e-notation go through one ``%`` format,
    padded with spaces to the row width; the spaces and the NULs the masks
    leave are deleted at the end (``%.17g`` writes neither).  ``rows`` and
    ``groups`` are work arrays of ``x.size`` rows and columns.
    """
    other = np.flatnonzero(~_fixed_rows(x, tables, rows, groups))
    if other.size:
        fmt = b"%%-%d.17g" % _FLOAT_ROW
        text = (fmt * other.size) % tuple(x[other].tolist())
        rows[other] = np.frombuffer(text, dtype=np.uint64).reshape(other.size, -1)
    chars = rows.view(np.uint8)
    chars[:, -1] = seps
    return chars.tobytes().translate(None, b"\0 ")


def _fixed_rows(x: np.ndarray, tables: tuple, rows: np.ndarray, groups: np.ndarray) -> np.ndarray:
    """Write the masked rows of the values ``x`` in fixed notation to ``rows``,
    and return which values that notation fits.

    With s = 16 - X for the decimal exponent X, Dekker's product gives
    |x| 10^s exactly as hi + lo; the exponent guess is corrected on hi + lo,
    not on hi alone, and the 17-digit integer is hi (an even integer, being
    above 2^53) plus lo rounded half to even.  Fixed notation is X in
    [-4, 16].  ``tables`` are those of ``_float_tables``.
    """
    words, trailing, masks = tables
    a = np.abs(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        guess = np.floor(np.log10(a))
    # zeros, NaN and inf fail this; for the rest, the guess is off by at most one
    near = (guess >= -6) & (guess <= 17)
    if not near.all():
        # the rest stand in as 1.0 and are formatted elsewhere
        a[~near] = 1.0
        guess[~near] = 0.0
    s = np.clip(16 - guess.astype(np.intp), 0, 22)
    hi, lo = _times_pow10(a, s)
    above, below = _out_of_decade(hi, lo)
    redo = np.flatnonzero(above | below)
    if redo.size:
        s = np.clip(s + below - above, 0, 22)
        hi[redo], lo[redo] = _times_pow10(a[redo], s[redo])
        above, below = _out_of_decade(hi, lo)
    digits = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    # rounding up to 10^17 would raise the exponent; no double between 1e-5
    # and 1e17 lies that close below a power of ten, and the format takes one if it did
    fixed = near & ~above & ~below & (s <= 20) & (digits < 10**17)
    digits[~fixed] = 10**16
    exponent = 16 - s
    # the 17 digits as the leading one and four groups of four, a row of groups each
    high = digits // 10**8
    low = digits - high * 10**8
    np.floor_divide(high, 10**8, out=groups[0])
    high -= groups[0] * 10**8
    for k, part in ((1, high), (3, low)):
        np.floor_divide(part, 10**4, out=groups[k])
        np.subtract(part, groups[k] * 10**4, out=groups[k + 1])
    # trailing zeros of the 17 digits, whose leading one is nonzero
    zeros = trailing.take(groups[1])
    for k in (2, 3, 4):
        z = trailing.take(groups[k])
        zeros = np.where(z == 4, zeros + 4, z)
    groups[1:] += 10
    which = (np.signbit(x) * 21 + np.clip(exponent + 4, 0, 20)) * 17 + 16 - zeros
    masks.take(which, axis=0, out=rows)
    rows &= words.take(groups.T)
    return fixed


# 10^s is an exact double for the scales s = 16 - X in [0, 22] of fixed notation
_POW10 = np.array([10.0**s for s in range(23)])
_SPLITTER = 2.0**27 + 1  # Veltkamp's constant: splits a double into 26- and 27-bit halves


def _times_pow10(a: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dekker's product: hi = fl(a 10^s) and lo with hi + lo = a 10^s exactly."""
    p = _POW10.take(s)
    c = p * _SPLITTER
    p_hi = c - (c - p)
    p_lo = p - p_hi
    c = a * _SPLITTER
    a_hi = c - (c - a)
    a_lo = a - a_hi
    hi = a * p
    return hi, ((a_hi * p_hi - hi) + a_hi * p_lo + a_lo * p_hi) + a_lo * p_lo


def _out_of_decade(hi: np.ndarray, lo: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Whether hi + lo is at least 1e17, and whether it is below 1e16 (both exact doubles)."""
    return (hi > 1e17) | ((hi == 1e17) & (lo >= 0)), (hi < 1e16) | ((hi == 1e16) & (lo < 0))


@functools.cache
def _float_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Words of the 40-byte row and the masks that cut a row to its ``%.17g`` form.

    A row is ``-0.000`` then the 17 significant digits, each followed by a
    point, the last point's byte holding the separator.  ``words`` holds the
    10 leading words ``-0.000<digit>.``, then the 10,000 four-digit words
    ``d.d.d.d.``; ``trailing`` counts the trailing zeros of a four-digit
    group (4 for 0000); ``masks[sign, X + 4, last]`` keeps the sign, the
    ``0.000`` prefix of X < 0, the digits up to the last nonzero one and the
    units digit, and the point after the units digit when digits follow it.
    """
    g = np.arange(10_000)
    quad = np.full((10_000, 8), ord("."), dtype=np.uint8)
    for k in range(4):
        quad[:, 2 * k] = g // 10 ** (3 - k) % 10 + ord("0")
    lead = np.frombuffer(b"".join(b"-0.000%d." % k for k in range(10)), dtype=np.uint8)
    words = np.concatenate([lead, quad.ravel()]).view(np.uint64)
    trailing = sum(g % 10**k == 0 for k in range(1, 5)).astype(np.int8)
    j = np.arange(_FLOAT_ROW)
    negative = np.arange(2)[:, None, None, None]
    x = np.arange(-4, 17)[None, :, None, None]
    last = np.arange(17)[None, None, :, None]
    keep = np.select(
        [j == 0, j < 3, j < 6, j == _FLOAT_ROW - 1, j % 2 == 0],
        [negative == 1, x < 0, j - 3 < -x - 1, True, (j - 6) // 2 <= np.maximum(last, x)],
        ((j - 7) // 2 == x) & (last > x),
    )
    masks = np.where(keep, 0xFF, 0).astype(np.uint8).view(np.uint64).reshape(-1, _FLOAT_ROW // 8)
    # cached and shared by every call, so none may write to them
    for table in (words, trailing, masks):
        table.flags.writeable = False
    return words, trailing, masks


def check_point_depth(depth: int) -> None:
    """Refuse a point depth outside [0, ``MAX_EXP``], where 2^depth is a finite float."""
    if not 0 <= depth <= MAX_EXP:
        raise ValueError(f"point depth must lie in [0, {MAX_EXP}], got {depth}")


def points_from_csv(text: str, depth: int) -> PointSet:
    """Read a point list as written; each cell is the floor of the exact point.

    The header is the first non-blank line and must start with
    ``coord_0_num``; its fields give d.  The rows below it are read in blocks
    of about ``ROW_BLOCK`` rows by ``_read_block``: a block in the form
    ``points_to_csv`` writes is parsed at once, and any other block, only that
    block, row by row, with the same result.  Rows are numbered from the
    header (row 1), blank lines skipped, and a bad row is reported by its
    number, the first one in file order when there are several.  ``depth``
    must pass ``check_point_depth``.  The sample's cells come from the
    integer numerators and exponents, so they are exact for every numerator,
    not only for those a float holds.  Each block is written straight into
    the coordinate and cell arrays, which are sized by the commas of the rows.
    """
    check_point_depth(depth)
    level = min(depth, MAX_CELL_LEVEL)
    # the header's block ends at the first newline after the header starts;
    # rows in it past another line break make the first block
    pos = text.find("\n", len(text) - len(text.lstrip())) + 1 or len(text)
    head, *rest = text[:pos].lstrip().splitlines(keepends=True) or [""]
    if not head.strip().startswith("coord_0_num"):
        raise ValueError("expected point list header coord_0_num,coord_0_exp,...")
    d = (head.count(",") + 1) // 2
    # every row read has 2d - 1 commas, whatever line breaks end it
    bound = (text.count(",") - head.count(",")) // max(2 * d - 1, 1)
    pts = np.empty((bound, d))
    cells = np.empty((bound, d), dtype=np.int64)
    rows = 0
    for block in chain(["".join(rest)], _row_blocks(text, pos)):
        rows += _read_block(block, d, rows + 2, level, pts[rows:], cells[rows:])
    if not rows:
        raise ValueError("point list is empty")
    return PointSet(pts[:rows], depth, cells=cells[:rows])


def _row_blocks(text: str, pos: int):
    """Slices of ``text`` from ``pos`` on of about ``ROW_BLOCK`` rows, each cut after a newline."""
    # the mean bytes of ROW_BLOCK rows
    chunk = max(1, (len(text) - pos) * ROW_BLOCK // max(1, text.count("\n", pos)))
    while pos < len(text):
        end = text.find("\n", min(pos + chunk, len(text)) - 1) + 1 or len(text)
        yield text[pos:end]
        pos = end


def _read_block(block: str, d: int, first: int, level: int, pts: np.ndarray, cells: np.ndarray) -> int:
    """Write the coordinates and level-``level`` cells of the rows of ``block``,
    the first numbered ``first``, to the leading rows of ``pts`` and ``cells``;
    return how many rows it holds, 0 for a block of blank lines."""
    table = _written_table(block, d)
    if table is not None:
        nums, exps = table[:, 0::2], table[:, 1::2]
        count = len(table)
        # a finite numerator over a tiny 2^e may round to inf; PointSet rejects it
        with np.errstate(over="ignore"):
            np.divide(nums, np.ldexp(1.0, exps), out=pts[:count])
    else:
        rows = list(filter(None, map(str.strip, block.splitlines())))
        if not rows:
            return 0
        count = len(rows)
        coords, nums, exps = _rows_to_points(rows, d, first)
        pts[:count] = coords
    cells[:count] = _floor_cells(nums, exps, level)
    return count


def _written_table(block: str, d: int) -> np.ndarray | None:
    """The (rows, 2d) int64 table of ``block`` when ``_int_rows`` writes it back
    byte for byte and every exponent lies in [``MIN_EXP``, ``MAX_EXP``]; else None.

    ``np.fromstring`` stops where the text stops parsing, with a
    DeprecationWarning (a ValueError in later numpy), and clamps integers
    beyond int64; either way the table does not write the block back.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        try:
            values = np.fromstring(block.replace("\n", ","), dtype=np.int64, sep=",")
        except ValueError:
            return None
    if d < 1 or not values.size or values.size % (2 * d):
        return None
    table = values.reshape(-1, 2 * d)
    exps = table[:, 1::2]
    if exps.min() < MIN_EXP or exps.max() > MAX_EXP or _int_rows(list(table.T)).decode("ascii") != block:
        return None
    return table


def _floor_cells(nums: np.ndarray, exps: np.ndarray, level: int) -> np.ndarray:
    """Level-``level`` cells of the points nums / 2^exps, floor(nums 2^(level - exps)),
    clipped to the unit cube.

    Integer shifts only, on int64 arrays or on object arrays of Python ints
    alike; numpy fills shifts past the word width with the sign to the right
    and with zeros to the left, which is the floor the formula needs.
    """
    cells = np.where(exps >= level, nums >> np.maximum(exps - level, 0), nums << np.maximum(level - exps, 0))
    return np.clip(cells, 0, (1 << level) - 1)


def _rows_to_points(rows: list[str], d: int, first: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Coordinates, numerators and exponents of point-list rows, each (len(rows), d);
    ``first`` numbers rows[0].

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


def _parse_rows(rows: list[str], d: int, first: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Check and convert rows in the order a row is checked: integer fields,
    field count, exponent range, numerator range.  Messages name row ``first``,
    which ``_rows_to_points`` makes the failing row.  Numerators are int64,
    or Python ints in an object array when one does not fit."""
    values = list(map(int, ",".join(rows).split(",")))
    fields = np.fromiter(map(str.count, rows, repeat(",")), dtype=np.int64, count=len(rows)) + 1
    if np.any(fields != 2 * d):
        raise ValueError(f"point list row {first} has {fields[0]} fields, expected {2 * d}")
    exps = values[1::2]
    if min(exps) < MIN_EXP or max(exps) > MAX_EXP:
        raise ValueError(f"point list row {first} has an exponent outside [{MIN_EXP}, {MAX_EXP}]")
    exps = np.array(exps, dtype=np.int64)
    try:
        nums = np.array(values[0::2], dtype=np.int64)
    except OverflowError:
        nums = np.array(values[0::2], dtype=object)
    try:
        floats = nums.astype(float)
    except OverflowError:
        raise ValueError(f"point list row {first} has a numerator beyond the float range") from None
    # a finite numerator over a tiny 2^e may round to inf; PointSet rejects it
    with np.errstate(over="ignore"):
        coords = floats / np.ldexp(1.0, exps)
    shape = (len(rows), d)
    return coords.reshape(shape), nums.reshape(shape), exps.reshape(shape)


def _load_json(text: str, what: str):
    """``json.loads``, with nesting too deep for its recursion reported as ``ValueError``."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError(f"malformed {what}: nested too deeply") from None


def read_set_metadata(text: str) -> dict:
    """Parse a metadata sidecar: a JSON object whose "d", "depth" and "rescale_exponent", if given, are integers."""
    meta = _load_json(text, "metadata")
    if not isinstance(meta, dict):
        raise ValueError("metadata must be a JSON object")
    for key in ("d", "depth", "rescale_exponent"):
        if key in meta and type(meta[key]) is not int:
            raise ValueError(f"metadata {key} must be an integer, got {meta[key]!r}")
    return meta


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


def _json_number(value, key: str) -> float:
    """A number field of a JSON spec; strings and booleans are rejected, not converted."""
    if type(value) not in (int, float):
        raise TypeError(f"{key} must be a number, got {value!r}")
    return float(value)


def _reject_unknown_keys(obj: dict, known: tuple, what: str) -> None:
    unknown = [k for k in obj if k not in known]
    if unknown:
        raise ValueError(f"malformed IFS spec: unknown {what} {unknown[0]!r}, expected one of {', '.join(known)}")


def ifs_from_json(text: str, base_dir=None) -> SimilarityIFS:
    """Parse {"d": 1, "maps": [{"ratio_exp": 2, "translation": [0.0]}, ...],
    "condensation": "point" | <point CSV path> | omitted}.

    The spec must be a JSON object and "maps" a list of map objects.  "d" and
    "ratio_exp" must be JSON integers, "ratio_exp" at least 1, "ratio" a JSON
    number and "translation" a list of JSON numbers.
    Each map takes exactly one of "ratio_exp" (ratio 2^-k, exact) and a float "ratio".  An
    omitted condensation means the maps' fixed points; a point-list path must
    end in .csv and is read relative to ``base_dir``.  Any other value is
    rejected, and so is any key not named here, which a misspelling would
    otherwise turn into an omitted one.
    """
    data = _load_json(text, "IFS spec")
    try:
        if not isinstance(data, dict):
            raise TypeError("the spec must be a JSON object")
        _reject_unknown_keys(data, ("d", "maps", "condensation"), "key")
        d = _json_int(data["d"], "d")
        maps = data["maps"]
        if not (isinstance(maps, list) and all(isinstance(m, dict) for m in maps)):
            raise TypeError("maps must be a list of map objects")
        ratios, translations = [], []
        for m in maps:
            _reject_unknown_keys(m, ("ratio_exp", "ratio", "translation"), "map key")
            if "ratio_exp" in m and "ratio" in m:
                raise ValueError("malformed IFS spec: a map takes one of 'ratio_exp' and 'ratio', got both")
            if "ratio_exp" in m:
                k = _json_int(m["ratio_exp"], "ratio_exp")
                if k < 1:
                    raise TypeError(f"ratio_exp must be a positive integer, got {k}")
                ratios.append(2.0 ** -k)
            else:
                ratios.append(_json_number(m["ratio"], "ratio"))
            if not isinstance(m["translation"], list):
                raise TypeError("translation must be a list of numbers")
            translations.append([_json_number(x, "translation coordinate") for x in m["translation"]])
    except KeyError as exc:
        raise ValueError(f"malformed IFS spec: missing key {exc}") from None
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"malformed IFS spec: {exc}") from None
    cond = data.get("condensation")
    F = None
    if cond == "point":
        F = np.zeros((1, d))
    elif isinstance(cond, str) and cond.endswith(".csv"):
        path = Path(base_dir or ".") / cond
        # only the coordinates are used, so the cells are taken at level 0
        F = points_from_csv(path.read_text(), 0).points
    elif cond is not None:
        raise ValueError(f'condensation must be "point" or a path ending in .csv, got {cond!r}')
    return SimilarityIFS(d, np.array(ratios), np.array(translations), F)
