"""Artifact text: the bytes of a result table's CSV and SVG, and their atomic write.

The CSV dialect is fixed (comma separator, LF line endings, floats as ``.17g``,
integers as plain decimals), so two runs of one document write the same bytes.
This module imports nothing of the package but :class:`PolaritonError`.
"""

import hashlib
import itertools
import math
import os
from dataclasses import dataclass, field
from functools import cache
from pathlib import Path

import numpy as np

from . import PolaritonError


@dataclass
class _Table:
    columns: list  # list of (header cell, 1-D integer or float array)
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        self.columns = [(cell, np.asarray(values)) for cell, values in self.columns]
        for cell, values in self.columns:
            if values.ndim != 1 or values.dtype.kind not in "iuf":
                raise PolaritonError(
                    f"column {cell!r} must be a 1-D integer or float array, "
                    f"got {values.dtype} of shape {values.shape}"
                )
            if len(values) != self.n_rows():
                raise PolaritonError(f"column {cell!r} has {len(values)} rows, expected {self.n_rows()}")

    def n_rows(self) -> int:
        return len(self.columns[0][1])


_CSV_BLOCK = 4096  # cells per block, so that the temporaries do not grow with the table
# 10**(k-300) = (hi + lo) * 2**shift to 106 bits, as hi's Dekker halves, lo and shift; NaN until first used
_P10 = np.full((4, 650), np.nan)


def _scaled(f, b, k):
    """``f * 2**b * 10**k`` as a normalized double-double ``(hi, lo)``, for f in [0.5, 1)."""
    k = k + 300
    for j in set(k[np.isnan(_P10[0].take(k))].tolist()):
        n = 10 ** abs(j - 300)
        width = n.bit_length()  # q * 2**t: 10**(j-300) to 121 bits
        q, t = (n << 121 >> width, width - 121) if j >= 300 else ((1 << width + 120) // n, -width - 120)
        hi = math.ldexp(q >> 68, -52)
        split = hi * 134217729.0 - (hi * 134217729.0 - hi)
        _P10[:, j] = split, hi - split, math.ldexp(q & (1 << 68) - 1, -120), t + 120
    hh, hl, lo, shift = _P10.take(k, axis=1)
    p = f * (hh + hl)  # Dekker's product: p + err is f * hi exactly
    fh = f * 134217729.0 - (f * 134217729.0 - f)
    err = fh * hh - p + fh * hl + (f - fh) * hh + (f - fh) * hl + f * lo
    t = (b + shift).astype(np.int32)  # np.ldexp is slow for int64 exponents
    p, err = np.ldexp(p, t), np.ldexp(err, t)
    return p + err, err - (p + err - p)


@cache
def _csv_tables():
    """Lookup tables of :func:`_g17_cells`: digits, exponent classes and slot layouts."""
    d = np.arange(48, 58, dtype="<u4")  # "0000" .. "9999" as little-endian words
    digits4 = np.add.outer(np.add.outer(d, d << 8), np.add.outer(d << 16, d << 24)).ravel()
    # a class per exponent E = index - 330: 0-20 fixed (E = -4..16), 21-24 e+dd, e+ddd, e-dd, e-ddd
    e = np.arange(-330, 310)
    form = np.where((e < -4) | (e > 16), 21 + 2 * (e < 0) + (abs(e) >= 100), e + 4) * 17 - 1
    # a 30-byte slot per (sign, class, digit count): sign, "0.000" lead, 17 digits and a point, "e+308",
    # separator; as a template, and the slots taking their own digit or the one before
    sign, cls, count = (v.reshape(-1, 1) for v in np.indices((2, 25, 18))[:, :, :, 1:])
    j, exp, sci = np.arange(30) - 6, cls - 4, cls >= 21  # j: the digit slot
    point = np.where(sci, 1, np.where(exp >= 0, exp + 1, 17))
    tpl = np.select([j == point, j == -6, j == 23], [46 * (point < count), 45 * sign, 44])
    tpl[:, 1:6] = np.where(np.arange(5) < np.where(exp < 0, 1 - exp, 0), np.frombuffer(b"0.000", np.uint8), 0)
    tpl[:, 24:26] = sci * np.hstack([np.full_like(cls, 101), np.where(cls >= 23, 45, 43)])
    own = (j >= 0) & (j < np.where(exp < 0, count, point))  # fixed notation keeps every integer digit
    own[:, 26:29] = sci & np.hstack([cls % 2 == 0, sci, sci])  # two or three exponent digits
    masks = (tpl, own, (j > point) & (j <= count))
    layout = [np.ascontiguousarray(m, np.uint8).view("V30").ravel() for m in masks]
    return digits4, form, layout


def _g17_cells(x):
    """``"{:.17g}".format`` of each float64 of ``x``, in NUL-padded 30-byte slots ending in ','.

    |x| = f * 2**b is scaled by 10**(16 - E) and rounded to 17 digits; a scaled value
    within 2**-30 of a half-integer, a tie or too near one to call, is left to Python.
    """
    digits4, form, layout = _csv_tables()
    real = np.isfinite(x) & (x != 0)
    a = np.where(real, np.abs(x), 1.0)
    f, b = np.frexp(a)
    exp = np.floor(np.log10(a)).astype(np.int32)
    hi, lo = _scaled(f, b, 16 - exp)
    fix = np.flatnonzero((hi < 1e16) | (hi > 1e17) | (hi == 1e16) & (lo < 0) | (hi == 1e17) & (lo >= 0))
    if fix.size:  # the estimate of E = floor(log10 |x|) was one off
        exp[fix] += np.where(hi[fix] > 5e16, 1, -1)
        hi[fix], lo[fix] = _scaled(f[fix], b[fix], 16 - exp[fix])
    ties = np.flatnonzero(np.abs(np.abs(lo - np.rint(lo)) - 0.5) < 2.0**-30)
    d = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    up = d == 10**17  # rounded up to the next power of ten
    d, exp = np.where(up, 10**16, d), exp + up
    top, low = np.divmod(d, 10**8)  # the lead digit, then four groups of four
    groups = np.stack(np.divmod(np.stack([top % 10**8, low], axis=1), 10**4), axis=-1).reshape(-1, 4)
    flat = np.zeros(len(x) * 30 + 1, np.uint8)  # the cells, and flat[:-1] the same one byte later
    cells = flat[1:].reshape(-1, 30)
    cells[:, 6] = top // 10**8 + 48
    cells[:, 7:23] = digits4.take(groups).view(np.uint8)
    cells[:, 26:29] = digits4.take(np.abs(exp)).view(np.uint8).reshape(-1, 4)[:, 1:]
    count = 17 - np.argmax(cells[:, 22:5:-1] != 48, axis=1)  # digits up to the last nonzero one
    for where, word in ((np.isnan(x), b"nan"), (np.isinf(x), b"inf"), (x == 0, b"0")):
        cells[where, 6 : 6 + len(word)] = np.frombuffer(word, np.uint8)
        exp[where] = len(word) - 1
    code = form.take(exp + 330) + count + 425 * (np.signbit(x) & ~np.isnan(x))
    tpl, own, shifted = (table.take(code).view(np.uint8) for table in layout)
    text = tpl + flat[1:] * own + flat[:-1] * shifted
    for i in ties.tolist():
        text[30 * i : 30 * i + 29] = np.frombuffer("{:.17g}".format(x[i]).encode().ljust(29, b"\0"), np.uint8)
    return text.reshape(-1, 30)


def _render_csv(table: _Table) -> bytes:
    """``"{:.17g}".format(x)`` of each float cell and ``str(n)`` of each integer one, a block at a time."""
    step = max(1, _CSV_BLOCK // len(table.columns))
    chunks = [",".join(cell for cell, _ in table.columns).encode("utf-8") + b"\n"]
    for start in range(0, table.n_rows(), step):
        block = [values[start : start + step] for _, values in table.columns]
        floats = np.column_stack([np.zeros(len(v)) if v.dtype.kind in "iu" else v for v in block])
        cells = _g17_cells(floats.astype(float).ravel()).reshape(len(floats), len(block), 30)
        cells[:, -1, -1] = ord("\n")
        for c, values in enumerate(block):
            if values.dtype.kind in "iu":
                cells[:, c, :-1] = values.astype("S29").view(np.uint8).reshape(-1, 29)
        chunks.append(cells.tobytes().translate(None, b"\0"))
    return b"".join(chunks)


_SVG_PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd",
    "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f",
    "#bcbd22", "#e377c2", "#393b79", "#637939",
)


def _render_svg(table: _Table, title: str) -> bytes:
    """Minimal deterministic line plot: first column is x, the rest are series.

    The title and the column headers are XML-escaped: both can come from the
    document (the ``output.path`` stem, the spectrum curve labels).
    ``html.escape`` is used because ``xml.sax.saxutils`` imports
    ``urllib.request``, about 25 ms of start-up; ``html`` itself is imported
    here, since only SVG output needs it.
    """
    import html

    width, height = 720, 480
    left, right, top, bottom = 70.0, 20.0, 34.0, 50.0
    x = np.asarray(table.columns[0][1], dtype=float)
    series = [(cell, np.asarray(vals, dtype=float)) for cell, vals in table.columns[1:]]
    finite = np.isfinite(x)
    finite_x = x[finite]
    ys = np.concatenate([v[np.isfinite(v)] for _, v in series]) if series else np.array([])
    if finite_x.size == 0 or ys.size == 0:
        raise PolaritonError("nothing to plot: no finite data points")
    x0, x1 = float(finite_x.min()), float(finite_x.max())
    y0, y1 = float(ys.min()), float(ys.max())
    if x1 == x0:
        x0, x1 = x0 - 1.0, x1 + 1.0
    if y1 == y0:
        y0, y1 = y0 - 1.0, y1 + 1.0
    pad = 0.05 * (y1 - y0)
    y0, y1 = y0 - pad, y1 + pad

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width} {height}" '
        f'font-family="sans-serif" font-size="12">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{left:.1f}" y="20" font-size="14">{html.escape(title, quote=False)}</text>',
        f'<line x1="{left:.1f}" y1="{height - bottom:.1f}" x2="{width - right:.1f}" '
        f'y2="{height - bottom:.1f}" stroke="black"/>',
        f'<line x1="{left:.1f}" y1="{top:.1f}" x2="{left:.1f}" y2="{height - bottom:.1f}" '
        f'stroke="black"/>',
        f'<text x="{left:.1f}" y="{height - bottom + 16:.1f}">{x0:.6g}</text>',
        f'<text x="{width - right:.1f}" y="{height - bottom + 16:.1f}" text-anchor="end">{x1:.6g}</text>',
        f'<text x="{left - 6:.1f}" y="{height - bottom:.1f}" text-anchor="end">{y0:.6g}</text>',
        f'<text x="{left - 6:.1f}" y="{top + 10:.1f}" text-anchor="end">{y1:.6g}</text>',
        f'<text x="{(left + width - right) / 2:.1f}" y="{height - 12:.1f}" '
        f'text-anchor="middle">{html.escape(table.columns[0][0], quote=False)}</text>',
    ]
    for idx, (cell, values) in enumerate(series):
        color = _SVG_PALETTE[idx % len(_SVG_PALETTE)]
        # a run is a stretch of consecutive rows where both x and y are finite
        shown = np.flatnonzero(finite & np.isfinite(values))
        px = (left + (x[shown] - x0) / (x1 - x0) * (width - left - right)).tolist()
        py = (height - bottom - (values[shown] - y0) / (y1 - y0) * (height - top - bottom)).tolist()
        cuts = (np.flatnonzero(np.diff(shown) > 1) + 1).tolist()
        for start, stop in zip([0, *cuts], [*cuts, len(shown)]):
            if stop - start == 1:
                parts.append(f'<circle cx="{px[start]:.3f}" cy="{py[start]:.3f}" r="2" fill="{color}"/>')
            elif stop > start:  # an all-NaN series is one empty run
                points = " ".join(map("{:.3f},{:.3f}".format, px[start:stop], py[start:stop]))
                parts.append(
                    f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.5"/>'
                )
        ly = top + 14.0 * idx
        parts.append(
            f'<line x1="{width - right - 150:.1f}" y1="{ly:.1f}" x2="{width - right - 130:.1f}" '
            f'y2="{ly:.1f}" stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{width - right - 124:.1f}" y="{ly + 4:.1f}">{html.escape(cell, quote=False)}</text>'
        )
    parts.append("</svg>")
    return ("\n".join(parts) + "\n").encode("utf-8")


def _atomic_write(path: Path, data: bytes) -> dict:
    """Write ``data`` beside ``path`` as ``open(path, "wb")`` would, then rename it in; returns its summary entry."""
    path.parent.mkdir(parents=True, exist_ok=True)
    for attempt in itertools.count():
        tmp = path.parent / f".{path.name}.{os.getpid()}.{attempt}.tmp"
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0), 0o666)
            break
        except FileExistsError:  # another write of this path under way, or left by a process of the same id
            pass
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}
