"""Exact ``"%.17g"`` text of float64 cells, rendered in numpy.

``parts`` is what ``output._emit`` writes: every number of its tables, header
cells and row labels included, as Python's ``"%.17g" % v`` would print it.
``render`` makes those bytes for a batch of cells at a time, and hands to
``fallback`` (that ``%``) only the cells it cannot prove exact; ``_QUAD`` holds
the text of every four digits. ``output`` imports this module on its first emit,
so a program that writes no CSV does not build its tables.
"""

from __future__ import annotations

import itertools

import numpy as np

_NUMBER = "%.17g"  # integers print without a decimal point, and -0 stays -0
_BLOCK = 1 << 14  # cells per render call: 16 rows of a 1001-site P(x, t), about 2 MB

# The digits. A finite nonzero |v| = D * 10**(k - 16), with k = floor(log10 |v|), has the
# 17-digit integer D in [10**16, 10**17). D comes from |v| * 10**p, p = 16 - k, in
# double-double arithmetic: |v| is scaled by 2**s (exact) and 10**p * 2**-s held as a
# correctly rounded pair hi + lo, both near 1e8 for every p, so nothing overflows and a
# subnormal |v| scales like any other. Dekker's product is exact, so the sum is off by
# less than 2**-47; a cell is rendered only when D's fraction is more than 2**-30 from
# one half and D lies in range, so the rounding is the one % makes. Every other cell
# (ties, a log10 off by one, -0.0, NaN, +-inf) goes through fallback. The tables below
# are indexed by at = 308 - k.
_P = np.arange(-292, 341)  # p for k = 308 ... -324
_SHIFT = np.rint((_P - 8) * np.log2(10)).astype(np.int32)  # s: |v| * 2**s near 1e8
_SPLIT = 2.0**27 + 1
# Operands of a batch's arithmetic as numpy values (a Python number costs each numpy call a
# conversion); sizes and ends int32. x // 10**4 is (x * _QUOT) >> _QSHIFT, x < 10**8.
_K308, _E4, _E8, _E16, _E17, _QUOT, _QSHIFT, _HALF, _TIE, _ZERO = map(
    np.array, (308, 10**4, 10**8, 10**16, 10**17, 109951163, 40, 0.5, 2.0**-30, 0))
_ONE, _TWO = np.array(1, np.int32), np.array(2, np.int32)


def _pow_table():
    """Per at: hi's Dekker halves, hi and lo, built at import in one pass over Python ints."""
    rows = []
    for p, s in zip(_P.tolist(), _SHIFT.tolist()):
        num, den = 10 ** max(p, 0) << max(-s, 0), 10 ** max(-p, 0) << max(s, 0)
        hi = num / den  # int / int rounds correctly, and so does the remainder's
        n, d = hi.as_integer_ratio()
        hh = hi * _SPLIT - (hi * _SPLIT - hi)
        rows.append((hh, hi - hh, hi, (num * d - n * den) / (den * d)))
    return np.array(rows)  # a row per at, so that a batch gathers whole rows


_POW = _pow_table()

# The text. A cell's text is some of the bytes of a 32-byte row of four little-endian
# words: the sign, "0.000", d0 and "."; d1 ... d8 and d9 ... d16, four a _QUAD word; "e",
# the exponent and the comma of column 29. The 18 columns from 6 hold d0 "." d1 ... d16,
# and d0 ... dk "." ... in %g's fixed form for k >= 1 when a fraction follows (deep). A
# keep mask per class picks the bytes: class 1 + (form * 17 + n - 1) * 2 + sign for n
# significant digits (choosing n drops the zeros D ends in), form k + 4 in the fixed form
# (-4 <= k <= 16), else 21 or 22 for a two- or three-digit exponent. Class 0 keeps none.
_AREA = 6  # first column of the digit area
_WORD0, _D0 = np.array(int.from_bytes(b"-0.0000.", "little")), np.array(1 << 48)  # d0's "0"
_PERM = np.array([[0, *range(2, k + 2), 1, *range(k + 2, 18)] for k in range(17)]) + _AREA
_DIGIT = np.arange(ord("0"), ord("9") + 1, dtype="<u4")
_QUAD = np.add.outer(np.add.outer(_DIGIT, _DIGIT << 8),  # the "%04d" text of 0 ... 9999
                     np.add.outer(_DIGIT << 16, _DIGIT << 24)).ravel()


def _text_tables():
    """Per at: the row's last word ("e", the exponent left-aligned in five bytes, ",") and
    the class of 17 digits, sign +. Per class: the keep mask, its size, and whether deep."""
    k = _K308 - np.arange(_P.size)
    e = np.abs(k)
    digits = (_QUAD.take(e) >> np.where(e >= 100, 8, 16)).astype(np.int64)  # two or three
    word = ord("e") | np.where(k < 0, ord("-"), ord("+")) << 8 | digits << 16 | 0x20202C << 40
    form = np.where((k >= -4) & (k <= 16), k + 4, 21 + (e >= 100))
    c = np.arange(23 * 17, dtype=np.int16)[:, None]  # form * 17 + n - 1, a row each
    n, k = c % 17 + 1, c // 17 - 4  # k of the fixed form
    exp = k > 16  # forms 21 and 22
    whole = ~exp & (k >= 0) & (n <= k + 1)  # an integer: d0 and d1 ... dk, without the point
    point, col = np.where(exp, n > 1, (k >= 0) & ~whole), np.arange(32, dtype=np.int16)
    keep = ((col >= 1) & (col < 2 - k) & (k < 0)  # the "0.000" of a fixed-form k < 0
            | (col == _AREA) | (col == _AREA + 1) & point  # d0 and the point
            | (col >= _AREA + 2) & (col <= _AREA + np.where(whole, k + 1, n))  # d1 ...
            | (col >= 24) & (col <= k + 10) & exp | (col == 29))  # e+dd or e+ddd, ","
    keep = np.concatenate(([[False] * 32], np.repeat(keep, 2, axis=0)))  # and each sign
    keep[2::2, 0] = True
    deep = np.concatenate(([False], np.repeat((point & ~exp & (k >= 1)).ravel(), 2)))
    return word, 1 + (form * 17 + 16) * 2, keep, keep.sum(1, np.int32), deep


_EXP, _CLASS, _KEEP, _SIZE, _DEEP = _text_tables()


def fallback(cells):
    """The per-cell path: Python's own _NUMBER text of each value in ``cells``."""
    return [_NUMBER % v for v in cells.tolist()]


def _digits(a):
    """(ok, at, D) for finite positive ``a``: D is exact where ok, else a fallback."""
    at = (_K308 - np.floor(np.log10(a))).astype(np.intp)
    hh, hl, hi, lo = _POW.take(at, axis=0).T
    a = np.ldexp(a, _SHIFT.take(at))
    ah = a * _SPLIT - (a * _SPLIT - a)  # Dekker's halves, as of hi in _pow_table
    al = a - ah
    ph = a * hi
    pl = ((ah * hh - ph) + ah * hl + al * hh) + al * hl + a * lo
    whole = np.floor(pl)
    pl -= whole + _HALF  # the fraction, less one half
    d = ph.astype(np.int64) + whole.astype(np.int64)
    ok = (np.abs(pl) > _TIE) & (d >= _E16)
    d += pl > _ZERO
    ok &= d < _E17
    return ok, at, d


def _texts(at, d, neg, ok):
    """The rendered cells' bytes, each cell's text and a comma in turn, and the size of
    each, 0 where not ``ok``: D's digits and the exponent fill the cells' rows, and the
    keep mask of each cell's class picks their bytes."""
    q = np.empty((3, d.size), np.int64)  # d0; d0 ... d8; D
    q[2] = d
    np.floor_divide(d, _E8, out=q[1])
    np.floor_divide(q[1], _E8, out=q[0])
    q[1:] -= q[:2] * _E8  # d1 ... d8 and d9 ... d16
    head = (q[1:] * _QUOT) >> _QSHIFT
    q[1:] -= head * _E4  # d5 ... d8 and d13 ... d16
    words = np.empty((d.size, 4), "<i8")
    for i, quad in enumerate((head[0], q[1], head[1], q[2])):
        words.view("<u4")[:, 2 + i] = _QUAD.take(quad)
    words[:, 0] = q[0] * _D0 + _WORD0
    words[:, 3] = _EXP.take(at)
    del q, head  # before the masked copy, when the most is held
    row = words.view(np.uint8)
    cls = _CLASS.take(at) + neg
    zeros = (row[:, _AREA + 17] == _DIGIT[0]).nonzero()[0]
    if zeros.size:  # fewer digits: the point stops the search back from d16
        cls[zeros] -= 2 * np.argmax(row[zeros, _AREA + 17:_AREA:-1] != _DIGIT[0], axis=1)
    cls *= ok
    deep = _DEEP.take(cls).nonzero()[0]  # the point moves after digit k
    if deep.size:
        perm = _PERM.take(_K308 - at[deep], axis=0)
        row[deep, _AREA:_AREA + 18] = row.take(deep[:, None] * 32 + perm)
    return row[_KEEP.take(cls, axis=0)], _SIZE.take(cls)


def render(v, stops):
    """The CSV text of the float64 cells ``v``, each cell's _NUMBER text then a newline
    after cell ``stops - 1`` and a comma after any other, and the byte after each cell."""
    rendered = (v != _ZERO) & np.isfinite(v)
    cells = rendered.nonzero()[0]
    x = v[cells]
    ok, at, d = _digits(np.abs(x))
    text, sizes = _texts(at, d, np.signbit(x), ok)
    plus0 = v.view(np.int64) == _ZERO  # an exact +0.0: the "0" the buffer starts as
    size = plus0 * _TWO
    size[cells] = sizes
    slow = (size == _ZERO).nonzero()[0]  # -0.0, NaN, +-inf and the cells not proved exact
    texts = [t + "," for t in fallback(v[slow])]
    if texts:
        size[slow] = [len(t) for t in texts]
        rendered[slow] = False
    ends = np.add.accumulate(size, dtype=np.int32)
    out = np.empty(ends[-1], np.uint8)
    out.fill(_DIGIT[0])
    out[ends - _ONE] = ord(",")
    out[rendered.repeat(size)] = text
    if texts:
        out[~(rendered | plus0).repeat(size)] = np.frombuffer("".join(texts).encode(), "u1")
    out[ends[stops - _ONE] - _ONE] = ord("\n")
    return out, ends


def _lines(header, labels, matrix):
    """One CSV table as blocks of lines: each a (lines, width) float64 array for render
    and the edit that makes its text the table's, or None. A header item is a name or
    numbers, and the edit puts each name in place of the 0 it was rendered as. A text
    table's lines hold its labels, and the edit joins each row's cells to them with "%s"."""
    head = [np.ravel(0.0 if isinstance(h, str) else h) for h in header]
    starts = itertools.accumulate((h.size for h in head), initial=0)
    names = {i: h.encode() for i, h in zip(starts, header) if isinstance(h, str)}

    def named(part, ends):
        pieces, start = [], 0
        for i, name in names.items():
            pieces += part[start:int(ends[i]) - 2], name
            start = int(ends[i]) - 1
        return b"".join([*pieces, part[start:]])

    yield np.concatenate(head)[None], named if names else None
    text = matrix.dtype.kind in "OSU"  # e.g. "winning"
    width = 1 if text else 1 + matrix.shape[1]
    step = max(1, _BLOCK // width - 1)  # a block of rows and the header fit in one batch
    for i in range(0, len(labels), step):
        cells = np.empty((len(labels[i:i + step]), width))
        cells[:, 0] = labels[i:i + step]
        if text:
            def joined(part, ends, rows=matrix[i:i + step].tolist()):
                return "".join(",".join([label, *map(str, row)]) + "\n" for label, row
                               in zip(bytes(part).decode().split("\n"), rows)).encode()

            yield cells, joined
        else:
            cells[:, 1:] = matrix[i:i + step]
            yield cells, None


def parts(paths, tables):
    """(path, bytes) in the files' order: every table's lines, rendered a batch of up to
    _BLOCK cells at a time, so that small tables share one render call."""
    batch, size = [], 0
    for path, table in zip(paths, tables):
        for cells, edit in _lines(*table):
            if batch and size + cells.size > _BLOCK:
                yield from _split(batch)
                batch, size = [], 0
            batch.append((path, cells, edit))
            size += cells.size
    yield from _split(batch)


def _split(batch):
    """Render the batch's cells in one call, a lone block's own cells, and cut the text
    back into its parts, each edit given its cells' ends within the part."""
    firsts = list(itertools.accumulate((cells.size for _, cells, _ in batch), initial=0))
    stops = [np.arange(first + cells.shape[1], last + 1, cells.shape[1])
             for (_, cells, _), first, last in zip(batch, firsts, firsts[1:])]
    if len(batch) == 1:
        text, ends = render(batch[0][1].ravel(), stops[0])
    else:
        text, ends = render(np.concatenate([cells.ravel() for _, cells, _ in batch]),
                            np.concatenate(stops))
    start = 0
    for (path, _, edit), first, last in zip(batch, firsts, firsts[1:]):
        end = int(ends[last - 1])
        part = text[start:end]
        yield path, part if edit is None else edit(part, ends[first:last] - start)
        start = end
