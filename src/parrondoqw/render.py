"""Exact ``"%.17g"`` text of float64 cells, rendered in numpy.

``parts`` is what ``output._emit`` writes: every number of its tables, header
cells and row labels included, as Python's ``"%.17g" % v`` would print it.
``render`` makes those bytes for a batch of cells at a time, and hands to
``fallback`` (that ``%``) only the cells it cannot prove exact; ``_ascii8`` makes
digits eight at a time. ``output`` imports this module on its first emit, so a
program that writes no CSV does not build its tables.
"""

from __future__ import annotations

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
# (ties, a log10 off by one, -0.0, NaN, +-inf) goes through fallback.
_P = np.arange(-292, 341)  # p for k = 308 ... -324, at index 308 - k
_SHIFT = np.rint((_P - 8) * np.log2(10)).astype(np.int32)  # s: |v| * 2**s near 1e8
_SPLIT = 2.0**27 + 1


def _pow_table():
    """Per p: hi's Dekker halves, hi and lo, built at import in one pass over Python ints."""
    columns = []
    for p, s in zip(_P.tolist(), _SHIFT.tolist()):
        num, den = 10 ** max(p, 0) << max(-s, 0), 10 ** max(-p, 0) << max(s, 0)
        hi = num / den  # int / int rounds correctly, and so does the remainder's
        n, d = hi.as_integer_ratio()
        hh = hi * _SPLIT - (hi * _SPLIT - hi)
        columns.append((hh, hi - hh, hi, (num * d - n * den) / (den * d)))
    return np.array(columns).T.copy()


_POW = _pow_table()


def _decimal_table():
    """Per k + 324: the exponent after "e", its sign then two digits or three,
    left-aligned in four bytes, and the form (below)."""
    k = np.arange(-324, 309)
    e = np.abs(k)
    exp = np.stack((np.where(k < 0, ord("-"), ord("+")),
                    e // 100 + 48, e // 10 % 10 + 48, e % 10 + 48), 1).astype(np.uint8)
    exp = np.where(e[:, None] >= 100, exp, exp[:, [0, 2, 3, 3]])
    form = np.where((k >= -4) & (k <= 16), k + 4, 21 + (e >= 100))
    return exp.view(np.uint32).ravel(), form


_EXP, _FORM = _decimal_table()

# The text. A cell's text is some of the bytes of one row: sign, "0.000", an 18-byte
# digit area, "e" and the exponent, and the comma of column 29, after all of them. The area
# holds d0 "." d1 ... d16; d0 ... dk "." ... in %g's fixed form for k >= 1 when a fraction
# follows, and d0 ... d16 for k < 0. One keep mask per (form, digit count n, sign) class
# picks the bytes: form is k + 4 in the fixed form (-4 <= k <= 16), else 21 or 22 for an
# exponent of two or three digits. Dropping the zeros D ends in is choosing n. The row is
# padded to 32 bytes, four little-endian words: d1 ... d8 are word 1 and d9 ... d16 word 2.
_ROW = np.frombuffer(b"-0.0000.0000000000000000e+000,  ", np.uint8)
_AREA = 6  # first column of the digit area
_DEEP = np.array([[0, *range(2, k + 2), 1, *range(k + 2, 18)] for k in range(17)]) + _AREA


def _keep_table():
    """Per class (form * 17 + n - 1) * 2 + sign: the keep mask, which keeps the comma of
    column 29 too, and the number of bytes it keeps."""
    col = np.arange(_ROW.size)
    pos = col - _AREA
    n = np.arange(1, 18)[:, None, None]
    k = np.arange(-4, 17)[None, :, None]
    whole = (k >= 0) & (n <= k + 1)  # an integer: d0 and d1 ... dk, without the point
    end = np.where(k < 0, n - 1, n)  # otherwise, the last area byte kept
    fixed = np.where(whole, (pos == 0) | (pos >= 2) & (pos <= k + 1), (pos >= 0) & (
        pos <= end)) | (col >= 1) & (col < 2 - k) & (k < 0)
    three = np.array([0, 1])[None, :, None]
    exp = (pos == 0) | (pos == 1) & (n > 1) | (pos >= 2) & (pos <= n) | (col >= 24) & (
        col <= 27 + three)
    keep = np.concatenate((fixed, exp), axis=1) | (col == 29)
    keep = np.repeat(keep[:, :, None], 2, axis=2)
    keep[..., 0] = [False, True]  # the sign
    keep = keep.transpose(1, 0, 2, 3).reshape(-1, _ROW.size)
    return keep.view(np.dtype((np.void, _ROW.size))).ravel(), keep.sum(1, np.int32)


_KEEP, _SIZE = _keep_table()


def fallback(cells):
    """The per-cell path: Python's own _NUMBER text of each value in ``cells``."""
    return [_NUMBER % v for v in cells.tolist()]


def _digits(a):
    """(ok, k, D) for finite positive ``a``: D is exact where ok, else a fallback."""
    k = np.floor(np.log10(a)).astype(np.intp)
    at = 308 - k
    hh, hl, hi, lo = _POW.take(at, axis=1)
    a = np.ldexp(a, _SHIFT.take(at))
    c = a * _SPLIT
    ah = c - (c - a)
    al = a - ah
    ph = a * hi
    pl = ((ah * hh - ph) + ah * hl + al * hh) + al * hl + a * lo
    whole = np.floor(pl)
    pl -= whole  # the fraction
    d = ph.astype(np.int64) + whole.astype(np.int64)
    ok = (np.abs(pl - 0.5) > 2.0**-30) & (d >= 10**16)
    d += pl > 0.5
    ok &= d < 10**17
    return ok, k, d


def _ascii8(x):
    """The "%08d" text of each int64 x in [0, 10**8), first digit in the low byte: x splits
    into 4-digit lanes of 32 bits, 2-digit ones of 16 and digits of 8, by exact shifts."""
    hi = (x * 109951163) >> 40  # x // 10**4
    x = hi | (x - hi * 10**4) << 32
    hi = (x * 5243) >> 19 & 0x7F0000007F  # // 100 per lane
    x = hi | (x - hi * 100) << 16
    hi = (x * 103) >> 10 & 0xF000F000F000F  # // 10 per lane
    return (hi | (x - hi * 10) << 8) + 0x3030303030303030


def _texts(k, d, neg):
    """The rendered cells' bytes, each cell's text and a comma in turn, and the size of
    each: D's digits and k's exponent fill the cells' rows, and a keep mask per class
    picks their bytes."""
    m = d.size
    lead = d // 10**8
    first = lead // 10**8
    row = np.empty((m, _ROW.size), np.uint8)
    words = row.view("<u8")
    words[:] = _ROW.view("<u8")
    words[:, 1] = _ascii8(lead - first * 10**8)  # d1 ... d8
    words[:, 2] = _ascii8(d - lead * 10**8)  # d9 ... d16
    row[:, _AREA] = first + ord("0")
    n = np.full(m, 17)  # significant digits: D without the zeros it ends in
    zeros = (row[:, _AREA + 17] == ord("0")).nonzero()[0]
    if zeros.size:  # the point stops the search back from d16
        n[zeros] = 17 - np.argmax(row[zeros, _AREA + 17:_AREA:-1] != ord("0"), axis=1)
    row[:, 25:29] = _EXP.take(k + 324).view(np.uint8).reshape(m, 4)
    form = _FORM.take(k + 324)
    small = form < 4  # 0.000ddd: no point among the digits
    row[small, _AREA + 1:_AREA + 17] = row[small, _AREA + 2:_AREA + 18]
    deep = ((form > 4) & (form < 21) & (n > form - 3)).nonzero()[0]  # a point after digit k
    if deep.size:
        row[deep, _AREA:_AREA + 18] = row.take(deep[:, None] * _ROW.size + _DEEP[k[deep]])
    cls = (form * 17 + n - 1) * 2 + neg
    return row.ravel()[_KEEP.take(cls).view(bool)], _SIZE.take(cls)


def render(v, stops):
    """The CSV text of the float64 cells ``v``, each cell's _NUMBER text then a newline
    after cell ``stops - 1`` and a comma after any other, and the byte after each cell."""
    nonzero = v != 0
    cells = (nonzero & np.isfinite(v)).nonzero()[0]
    ok, k, d = _digits(np.abs(v[cells]))
    cells, k, d = cells[ok], k[ok], d[ok]
    text, sizes = _texts(k, d, np.signbit(v[cells]))
    size = np.full(v.size, 2, np.int32)  # an exact +0.0: the "0" the buffer starts as
    size[cells] = sizes
    rendered = np.zeros(v.size, bool)
    rendered[cells] = True
    slow = ((nonzero | np.signbit(v)) & ~rendered).nonzero()[0]
    texts = [t + "," for t in fallback(v[slow])]
    size[slow] = [len(t) for t in texts]
    ends = np.cumsum(size, dtype=np.int32)
    out = np.full(ends[-1], ord("0"), np.uint8)
    out[ends - 1] = ord(",")
    out[np.repeat(rendered, size)] = text
    if texts:
        rendered[:] = False
        rendered[slow] = True
        out[np.repeat(rendered, size)] = np.frombuffer("".join(texts).encode(), np.uint8)
    out[ends[stops - 1] - 1] = ord("\n")
    return out, ends


def _lines(header, labels, matrix):
    """One CSV table as blocks of lines: each a (lines, width) float64 array for render
    and the edit that makes its text the table's, or None to write it as rendered. The
    header's names are rendered as 0 and put back; a text table's lines hold only its
    labels, and the edit joins each row's cells to them with "%s"."""
    def named(line):
        cells = line[:-1].split(",")
        return ",".join(h if isinstance(h, str) else c for h, c in zip(header, cells)) + "\n"

    yield np.array([[0.0 if isinstance(h, str) else h for h in header]]), named
    text = matrix.dtype.kind in "OSU"  # e.g. "winning"
    width = 1 if text else 1 + matrix.shape[1]
    step = max(1, _BLOCK // width - 1)  # a block of rows and the header fit in one batch
    for i in range(0, len(labels), step):
        cells = np.empty((len(labels[i:i + step]), width))
        cells[:, 0] = labels[i:i + step]
        if text:
            def joined(lines, rows=matrix[i:i + step].tolist()):
                return "".join(",".join([label, *map(str, row)]) + "\n"
                               for label, row in zip(lines.split("\n"), rows))

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
    """Render the batch's cells in one call and cut the text back into its parts."""
    sizes = np.cumsum([cells.size for _, cells, _ in batch])
    stops = np.concatenate([end - cells.size + np.arange(cells.shape[1], cells.size + 1,
                                                         cells.shape[1])
                            for (_, cells, _), end in zip(batch, sizes)])
    text, ends = render(np.concatenate([cells.ravel() for _, cells, _ in batch]), stops)
    start = 0
    for (path, _, edit), end in zip(batch, ends[sizes - 1].tolist()):
        part, start = text[start:end], end
        yield path, part if edit is None else edit(part.tobytes().decode()).encode()
