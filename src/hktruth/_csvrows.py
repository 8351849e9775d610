"""The rows of a per-step CSV table, encoded with numpy into exactly the bytes "%.12g" writes.

A (steps, columns) table's rows are ``"%d," + ",".join(["%.12g"] * columns) +
"\\n"``, t counting from 0. They are encoded a block of at most
``BLOCK_CELLS`` cells at a time into fixed-width byte slots, and the pad
bytes (0) are dropped at the end, so the memory taken is bounded by the
block. A value v in [1e-4, 1) takes a float path: with e = floor(log10 v),
s = fl(v * 10^(11-e)) errs by at most 2^-14 (10^(11-e) is exact), so rint(s)
is the correctly rounded 12-digit N whenever frac(s) lies more than 2^-11
from 1/2 and 10^11 < N < 10^12; the text is "0.", -e-1 zeros and N's
digits without their trailing zeros. A nan is written "nan"; every other
value ("%.12g"'s rounding ties, a misjudged decade, 0, 1, inf, v < 1e-4)
is formatted by "%.12g" itself.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

BLOCK_CELLS = 4096
_SLOT = 20  # a cell's slot: its text, at most 19 bytes as "%.12g" writes it, then its comma
_U8, _U16 = np.dtype(np.uint8), np.dtype("<u2")  # glyph bytes are viewed little-endian
_SCALE = np.array([1e12, 1e13, 1e14, 1e15])  # 10^(11 - e) for e = -1 .. -4: each exact
_PAIR_POWERS = np.array([1e10, 1e8, 1e6, 1e4, 1e2, 1.0])[:, None, None]  # N's base-100 digits
_DIGITS = [b"%02d" % p for p in range(100)]
# a base-100 digit of N as two glyphs: [0, 100) as it is, [100, 200) as N's last
# nonzero one, its trailing "0" dropped; 100, a zero after the last nonzero one, is all pad
_PAIRS = np.frombuffer(b"".join([*_DIGITS, *(d.rstrip(b"0").ljust(2, b"\0") for d in _DIGITS)]),
                       _U16)
# words 1 and 2 of a fast cell's text, the zeros after "0.", by their count 0 .. 3
_ZEROS = np.frombuffer(b"".join((b"0" * z).ljust(4, b"\0") for z in range(4)), _U16).reshape(4, 2).T
_NAN = np.frombuffer(b"nan".ljust(_SLOT - 1, b"\0") + b",", _U16)


def encode_table(table: np.ndarray) -> Iterator[np.ndarray]:
    """Yield the CSV rows of a (steps, columns) table as bytes, a block of rows at a time."""
    table = np.asarray(table, dtype=np.float64)
    rows = max(1, BLOCK_CELLS // max(1, table.shape[1]))
    for t0 in range(0, len(table), rows):
        yield encode_rows(table[t0:t0 + rows], t0)


def encode_rows(values: np.ndarray, t0: int) -> np.ndarray:
    """The CSV rows of a float64 (rows, columns) block as bytes, t from ``t0``."""
    rows, cols = values.shape
    fast = (values >= 1e-4) & (values < 1.0)
    s = np.where(fast, values, 0.5)
    e = np.log10(s)
    np.floor(e, out=e)
    np.maximum(e, -4.0, out=e)  # log10 may round 1e-4 down; a value below 1 has e <= -1
    zeros = (-1.0 - e).astype(np.intp)
    s *= _SCALE.take(zeros)
    n = np.rint(s)
    s -= n
    fast &= (np.abs(s, out=s) < 0.5 - 2.0 ** -11) & (n > 1e11) & (n < 1e12)
    pairs = n / _PAIR_POWERS
    np.floor(pairs, out=pairs)
    last = pairs * _PAIR_POWERS == n  # no nonzero digit follows
    pairs[1:] -= 100.0 * pairs[:-1]
    pairs += 100.0 * last

    width = len(str(t0 + rows - 1)) + 1  # t's digits and its comma
    width += width % 2  # so every cell starts on a uint16
    # a row's words; only this C-contiguous array is viewed as bytes, as numpy < 1.23
    # changes the item size of no other
    buf = np.empty((rows, (width + cols * _SLOT + 2) // 2), _U16)
    text = buf.view(_U8)
    cells = text[:, width:-2].reshape(rows, cols, _SLOT)
    words = buf[:, width // 2:-1].reshape(rows, cols, _SLOT // 2)
    words[..., 0] = ord("0") | ord(".") << 8
    words[..., 1] = _ZEROS[0].take(zeros)
    words[..., 2] = _ZEROS[1].take(zeros)
    # clipped, as a value off the float path may leave a digit pair above 99
    for j, glyphs in enumerate(_PAIRS.take(pairs.astype(np.intp), mode="clip"), start=3):
        words[..., j] = glyphs
    words[..., 9] = ord(",") << 8
    slow = ~fast
    nan = np.isnan(values)
    if nan.any():  # d_S or d_Sbar of an empty subset: a whole column
        words[nan] = _NAN
        slow &= ~nan
    if slow.any():
        formatted = b"%.12g " * int(np.count_nonzero(slow)) % tuple(values[slow].tolist())
        cells[slow, :-1] = np.array(formatted.split(), "S19").view(_U8).reshape(-1, _SLOT - 1)
    cells[:, cols - 1:, -1] = 0  # the last cell, if any, has no comma

    digits = np.arange(t0, t0 + rows)[:, None] // 10 ** np.arange(width - 2, -1, -1)
    lead = digits == 0
    lead[:, -1] = False  # t = 0 keeps its one digit
    digits %= 10
    digits += 48
    digits[lead] = 0
    text[:, :width - 1] = digits
    text[:, width - 1] = ord(",")
    text[:, -2:] = (ord("\n"), 0)
    flat = text.ravel()
    return flat[flat != 0]
