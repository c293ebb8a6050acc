"""CSV output of simulated waveforms, formatted in numpy.

Every value is written as `fmt_float` writes it, `%.17g`, so the CSV
bytes are those of the report's number format.
"""

from __future__ import annotations

import numpy as np

from .model import IX1, IY1, IX2, IY2
from .report import fmt_float
from .simulation import Trajectory

_CSV_CHUNK_VALUES = 4096


# Exact `%.17g` text for float64 values without a bignum per value. For
# 1e-4 <= |x| < 1e17 the format is fixed-point with decimal exponent
# X in [-4, 16] and digits D = round(|x| 10^q), q = 16 - X, ties to
# even. 10^q is an exact double for q <= 22, so Dekker's two-product
# gives |x| 10^q = p + e exactly. Where D is in [1e16, 1e17), p >= 2^53
# is an even integer, so D = p + rint(e), ties included. Any other
# value is printed by fmt_float on its own: zero, nan, inf, |x| outside
# that range, and D outside [1e16, 1e17) (a rounding carry, or a log10
# estimate of X that is off by one).
#
# Each value fills one row of _ROW_WIDTH bytes: "-0.000", the digits
# d0..d16, ".", d1..d16 again, separator. The mask row for (sign, X,
# digits kept) selects the sign, "0." and leading zeros when X < 0,
# d0..dX from the first copy and the point and d(X+1).. from the second,
# which places the point without moving bytes. A mask row holds 0xFF
# for a kept byte and 0x00 for a dropped one; ANDed with the row, it
# leaves 0x00 in every dropped byte, and `bytes.translate` deletes them
# in one pass. Mask row _FALLBACK keeps a \x01 written over d0 and the
# separator; the fallback text replaces the \x01, a byte that no `%.17g`
# text or separator holds.
def _pow10_parts() -> tuple[np.ndarray, np.ndarray]:
    """10^q, q = 0..20, as a 26-bit high part plus the exact rest."""
    hi, lo = [], []
    for q in range(21):
        p = 10 ** q
        drop = max(0, p.bit_length() - 26)
        hi.append(p >> drop << drop)
        lo.append(p - hi[-1])
    return np.array(hi, dtype=float), np.array(lo, dtype=float)


def _group_tables() -> tuple[np.ndarray, np.ndarray]:
    """For each 4-digit group 0..9999: its ASCII digits as one 4-byte
    word, and per position i = 1..4 of the group in D (digits
    d(4i-3)..d(4i)) the index of its last nonzero digit, 0 if none."""
    digits = np.empty((10, 10, 10, 10, 4), dtype=np.uint8)
    for k in range(4):
        digits[..., k] = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8
                                   ).reshape((10,) + (1,) * (3 - k))
    last = np.empty((4, 10000), dtype=np.int8)
    for i in range(4):
        for zeros in range(4):
            last[i, ::10 ** zeros] = 4 * i + 4 - zeros
    last[:, 0] = 0
    return digits.view(np.uint32).ravel(), last


_POW10_HI, _POW10_LO = _pow10_parts()
_DIGITS4, _LAST4 = _group_tables()
_HEAD = np.frombuffer(b"-0.000", dtype=np.uint8)
_POINT = len(_HEAD) + 17
_ROW_WIDTH = _POINT + 1 + 16 + 1


def _build_masks() -> np.ndarray:
    # rows ordered by (sign, X + 4, digits kept - 1), then the fallback row
    x = np.arange(-4, 17)[:, None, None]
    kept = np.arange(1, 18)[None, :, None]
    col = np.arange(_ROW_WIDTH)
    fixed = x >= 0
    keep = ((col >= 1) & (col < 2 - x) & ~fixed
            | (col >= len(_HEAD))
            & (col < len(_HEAD) + np.where(fixed, x + 1, kept))
            | (col == _POINT) & fixed & (kept > x + 1)
            | (col > _POINT + x) & (col < _POINT + kept) & fixed
            | (col == _ROW_WIDTH - 1)).reshape(-1, _ROW_WIDTH)
    neg = keep.copy()
    neg[:, 0] = True
    fallback = (col == len(_HEAD)) | (col == _ROW_WIDTH - 1)
    return 0xFF * np.concatenate([keep, neg, fallback[None]]).astype(np.uint8)


_MASKS = _build_masks()
_FALLBACK = len(_MASKS) - 1


def _csv_rows(ncols: int, nrows: int) -> np.ndarray:
    """Row buffer for `_format_values`: nrows lines of ncols values."""
    rows = np.empty((nrows * ncols, _ROW_WIDTH), dtype=np.uint8)
    rows[:, :len(_HEAD)] = _HEAD
    rows[:, _POINT] = ord(".")
    rows[:, -1] = ord(",")
    rows[ncols - 1::ncols, -1] = ord("\n")
    return rows


def _digits17(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """X = floor(log10 a), maybe off by one, and D = round(a 10^(16 - X))."""
    x = np.clip(np.floor(np.log10(a)), -4, 16).astype(np.int64)
    q = 16 - x
    # Dekker two-product a * 10^q with Veltkamp's split of a
    c = 134217729.0 * a
    a_hi = c - (c - a)
    a_lo = a - a_hi
    p_hi, p_lo = np.take(_POW10_HI, q), np.take(_POW10_LO, q)
    p = a * (p_hi + p_lo)
    e = ((a_hi * p_hi - p) + a_hi * p_lo + a_lo * p_hi) + a_lo * p_lo
    return x, p.astype(np.int64) + np.rint(e).astype(np.int64)


def _digit_words(d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """ASCII digits of D in [1e16, 1e17) as bytes 3..19 of five words,
    and the index of the last nonzero digit."""
    g0 = d // 10 ** 16
    rest = d - g0 * 10 ** 16
    hi8 = rest // 10 ** 8
    lo8 = rest - hi8 * 10 ** 8
    g1 = hi8 // 10 ** 4
    g3 = lo8 // 10 ** 4
    words = np.empty((len(d), 5), dtype=np.uint32)
    words[:, 0] = np.take(_DIGITS4, g0)
    last = np.zeros(len(d), dtype=np.int8)
    for i, g in enumerate((g1, hi8 - g1 * 10 ** 4, g3, lo8 - g3 * 10 ** 4)):
        words[:, i + 1] = np.take(_DIGITS4, g)
        np.maximum(last, np.take(_LAST4[i], g), out=last)
    return words, last


def _format_rows(v: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Fill `rows`, a `_csv_rows` buffer of `len(v)` rows, with the
    digits of each value of `v`; return each row's index into `_MASKS`.

    A value the kernel does not cover gets mask row _FALLBACK and a byte
    0x01 where its text goes; `_join` puts `fmt_float`'s text there.
    """
    a = np.abs(v)
    fast = (a >= 1e-4) & (a < 1e17)
    x, d = _digits17(np.where(fast, a, 1.0))
    fast &= (d >= 10 ** 16) & (d < 10 ** 17)
    words, last = _digit_words(np.where(fast, d, 10 ** 16))
    digits = words.view(np.uint8)[:, 3:]
    rows[:, len(_HEAD):_POINT] = digits
    rows[:, _POINT + 1:-1] = digits[:, 1:]
    rows[~fast, len(_HEAD)] = 1
    return np.where(fast, np.where(v < 0, x + 25, x + 4) * 17 + last, _FALLBACK)


def _mask(rows: np.ndarray, mask_row: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The `_format_rows` rows `rows` ANDed with their mask rows, in `out`
    (of the same shape): each byte the mask drops becomes 0x00."""
    # every index is in range; mode "raise" would copy through a buffer
    np.take(_MASKS, mask_row, axis=0, out=out, mode="clip")
    return np.bitwise_and(out, rows, out=out)


def _join(masked: np.ndarray, mask_row: np.ndarray, v: np.ndarray) -> bytes:
    """The text of the `_mask` rows `masked` (any leading shape), each
    followed by its separator; `v` holds their values in order."""
    text = masked.tobytes().translate(None, b"\0")
    slow = np.flatnonzero(mask_row == _FALLBACK)
    if not len(slow):
        return text
    pieces = text.split(b"\x01")
    out = [pieces[0]]
    for val, piece in zip(v.ravel()[slow].tolist(), pieces[1:]):
        out += [fmt_float(val).encode(), piece]
    return b"".join(out)


def _format_values(v: np.ndarray, rows: np.ndarray) -> bytes:
    """`'%.17g' % x` of each value of `v`, each followed by its separator.

    `rows` is a `_csv_rows` buffer of `len(v)` rows; its digit columns
    are overwritten.
    """
    mask_row = _format_rows(v, rows)
    return _join(_mask(rows, mask_row, np.empty_like(rows)), mask_row, v)


def _csv_chunks(fh, header: str, columns: tuple):
    """Write `columns` to the binary file `fh` as CSV, a chunk of rows at
    a time, and yield each chunk's (masked rows, mask_row, values) once
    it is written, so that another file can reuse the formatted text."""
    # a few thousand values per numpy pass keeps the temporaries under
    # 1 MB for long runs
    nrows = max(1, _CSV_CHUNK_VALUES // len(columns))
    rows = _csv_rows(len(columns), nrows)
    masked = np.empty_like(rows)
    fh.write(header.encode() + b"\n")
    for i in range(0, len(columns[0]), nrows):
        v = np.column_stack([c[i:i + nrows] for c in columns]).ravel()
        mask_row = _format_rows(v, rows[:v.size])
        chunk = _mask(rows[:v.size], mask_row, masked[:v.size])
        fh.write(_join(chunk, mask_row, v))
        yield chunk, mask_row, v


#: y1 and y2 among trajectory.csv's columns t, x1, y1, x2, y2: y1 is
#: followed by a comma and y2, the last column, by a line end, as in
#: phase.csv
_PHASE_COLUMNS = slice(1 + IY1, None, IY2 - IY1)


def write_trajectory_csv(path: str, traj: Trajectory, phase=None) -> None:
    """Waveform samples; header exactly `t,x1,y1,x2,y2`.

    `phase`, if given, is called with an iterator over the formatted
    chunks, each written as it is read; `write_phase_csv` takes it, so
    phase.csv copies this file's y1, y2 text instead of formatting it
    again.
    """
    st = traj.states
    with open(path, "wb") as fh:
        chunks = _csv_chunks(fh, "t,x1,y1,x2,y2", (traj.t, st[:, IX1], st[:, IY1],
                                                   st[:, IX2], st[:, IY2]))
        if phase is not None:
            phase(chunks)
        for _ in chunks:  # whatever phase left unread
            pass


def write_phase_csv(path: str, chunks) -> None:
    """Protein phase-plane samples; header exactly `y1,y2`.

    `chunks` is the iterator that `write_trajectory_csv` passes to its
    `phase` callback.
    """
    with open(path, "wb") as fh:
        fh.write(b"y1,y2\n")
        for masked, mask_row, v in chunks:
            fh.write(_join(masked.reshape(-1, 5, _ROW_WIDTH)[:, _PHASE_COLUMNS],
                           mask_row.reshape(-1, 5)[:, _PHASE_COLUMNS],
                           v.reshape(-1, 5)[:, _PHASE_COLUMNS]))
