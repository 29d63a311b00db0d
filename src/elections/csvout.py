"""The program's one CSV writer, numpy columns rendered as csv.writer's text:
`simulate` writes its four CSV files and `pca --loadings` its stdout with it."""

import functools

import numpy as np

# write_csv renders SLICE_ROWS lines at a time, so that a slice's blocks stay in
# the cache, and copies them into row order BAND byte positions at a time, as
# numpy's byte transpose slows with the rows it reads at once (2-vCPU AMD EPYC):
#   slice width (bytes)  11   16   24   32   62
#   one .T.copy() (µs)   26   64  169  244  738
#   12-wide bands (µs)   27   49   58   82  169
# On a 2-vCPU Intel Xeon (in-process, minimum of 7), the bands against one
# block.T.tobytes() a slice wrote trials.csv's rows in 327 against 371 ms at
# 1M trials, 35 against 38 ms at 100k and 7.5 against 8.0 ms at 20k.
SLICE_ROWS, BAND = 1 << 13, 12

# DIGITS[:, v] is the four ASCII digits of v < 10**4, zero-padded; POW10[i] = 10**i
DIGITS = np.indices((10,) * 4, np.uint8).reshape(4, -1) + 48
POW10 = 10 ** np.arange(20, dtype=np.uint64)
# floats in [FAST_LO, FAST_HI) are rendered from their bits, the rest by repr
FAST_LO, FAST_HI = 2.0**23, 2.0**53

# A block of text is a (width, rows) byte matrix: row j's text is the column
# block[:, j] without its PAD bytes, a byte that never occurs in UTF-8.  Each
# byte position is one contiguous vector, so every step is a whole-vector op.
PAD = 0xFF


def _digits(u: np.ndarray, width: int) -> np.ndarray:
    """The last `width` decimal digits of each uint64 of u, zero-padded."""
    groups = -(-width // 4)
    out = np.empty((4 * groups, len(u)), np.uint8)
    for g in range(groups - 1, -1, -1):
        high = u // np.uint64(10**4)
        out[4 * g:4 * g + 4] = np.take(DIGITS, (u - high * np.uint64(10**4)).astype(np.intp),
                                       axis=1)
        u = high
    return out[4 * groups - width:]


def _number(u: np.ndarray) -> np.ndarray:
    """The block of each uint64 of u right-aligned, as wide as the longest."""
    count = np.maximum(np.searchsorted(POW10, u, "right"), 1)
    text = _digits(u, int(count.max(initial=1)))
    text[count <= np.arange(len(text) - 1, -1, -1)[:, None]] = PAD
    return text


def _ints(v: np.ndarray) -> np.ndarray:
    """The block of int64 values: a sign, then the digits."""
    return np.vstack([np.where(v < 0, ord("-"), PAD).astype(np.uint8),
                      _number(np.abs(v).astype(np.uint64))])   # abs(-2**63) is 2**63 as uint64


def _floats(x: np.ndarray) -> np.ndarray:
    """The block of float64 values, each as repr writes it.

    A value x in [FAST_LO, FAST_HI) is m * 2**-s with a 53-bit m and
    0 <= s <= 29, so its integer part is i = m >> s and its fraction
    r * 2**-s with r = m - (i << s).  repr writes i, a point and the fewest
    fraction digits p that read back as x, or "0" for p = 0; of those, the
    nearest, q = round(r * 10**p / 2**s), ties to even.  The nearest p-digit
    fraction reads back iff 2 * |q * 2**s - r * 10**p| < 10**p.  At p = 9
    it does, as 10**-9 < 2**-29 <= 2**-s, so p <= 9, and a fraction that
    reads back at p does at p + 1 too: p is the number of j < 9 at which
    none does.  Every product is below 2**29 * 10**9.  repr's carry and its
    inclusive bound for an even m never apply here: i + 1 is a double of
    its own, so no q = 10**p reads back as x, and x is exact with s
    fraction digits, so the bound is met with equality only at p > s, where
    p = s already reads back.  Every other value is repr'd into the block.
    """
    fast = (x >= FAST_LO) & (x < FAST_HI)
    bits = np.where(fast, x, FAST_LO).view(np.uint64)
    s = np.uint64(1075) - (bits >> np.uint64(52))
    m = (bits & np.uint64(2**52 - 1)) | np.uint64(2**52)
    i = m >> s
    r = m - (i << s)
    unit = np.uint64(1) << s
    low = unit - np.uint64(1)
    p = 0
    for j in range(9):
        off = (r * POW10[j]) & low   # |q * 2**s - r * 10**j| is this or unit - off
        p = p + (np.minimum(off, unit - off) << np.uint64(1) >= POW10[j])
    scaled = r * POW10[p]
    q, twice = scaled >> s, (scaled & low) << np.uint64(1)
    q += (twice > unit) | ((twice == unit) & (q & np.uint64(1) == 1))
    digits = _number(i)
    point = max(int(p.max(initial=0)), 1)
    fraction = _digits(q * POW10[point - p], point)
    fraction[np.maximum(p, 1) <= np.arange(point)[:, None]] = PAD
    slow = np.flatnonzero(~fast)
    reprs = np.array(list(map(repr, x[slow].tolist())), dtype=bytes)
    reprs = reprs.view(np.uint8).reshape(len(slow), reprs.itemsize).T
    n = len(digits)
    text = np.full((max(n + 1 + point, len(reprs)), len(x)), PAD, np.uint8)
    text[:n], text[n], text[n + 1:n + 1 + point] = digits, ord("."), fraction
    text[:, slow] = PAD
    text[:len(reprs), slow] = np.where(reprs == 0, PAD, reprs)
    return text


@functools.lru_cache(maxsize=64)
def _fields(fields: tuple) -> np.ndarray:
    """The block of each field in UTF-8, padded to the longest: column f is
    fields[f].  Built once per tuple of fields and read-only."""
    encoded = [f.encode() for f in fields]
    table = np.array(encoded, dtype=bytes)
    text = table.view(np.uint8).reshape(len(encoded), table.itemsize).T.copy()
    text[np.array([len(e) for e in encoded]) <= np.arange(table.itemsize)[:, None]] = PAD
    text.flags.writeable = False
    return text


def _render(columns, rows) -> np.ndarray:
    """The block of the CSV lines of the slice `rows`."""
    blocks = []
    for end, column in zip([","] * (len(columns) - 1) + ["\n"], columns):
        if isinstance(column, tuple):
            block = np.take(column[0], column[1][rows], axis=1)
        elif column.dtype.kind == "f":
            block = _floats(column[rows].astype(np.float64, copy=False))
        else:
            block = _ints(column[rows].astype(np.int64, copy=False))
        blocks += [block, np.full((1, block.shape[1]), ord(end), np.uint8)]
    return np.vstack(blocks)


def write_csv(f, header: list | None, columns) -> None:
    """Write `header`, unless it is None, and one CSV line per row of the
    equal-length `columns` to the open binary stream f, after whatever it
    already holds: with no header, the rows append to the lines before.

    A column is an int64 or float64 numpy array, or an (index, fields) pair
    standing for fields[index], where fields covers the column's whole range
    and no field needs CSV quoting; the text is what csv.writer writes for
    the same rows, floats as repr writes them.  Each slice of SLICE_ROWS rows
    is rendered as one byte matrix of fixed-width blocks, pairs' taken from
    a table of their fields built once, copied into a bytearray in row order
    BAND bytes at a time, and written in one call, translate dropping PAD.
    """
    n = len(columns[0][0] if isinstance(columns[0], tuple) else columns[0]) if len(columns) else 0
    if len(columns) == 1 and isinstance(columns[0], tuple):   # csv.writer's "" for a lone ""
        columns = [(columns[0][0], [field or '""' for field in columns[0][1]])]
    columns = [(_fields(tuple(c[1])), c[0]) if isinstance(c, tuple) else c for c in columns]
    if header is not None:
        f.write((",".join(header) + "\n").encode())
    for start in range(0, n, SLICE_ROWS):
        block = _render(columns, slice(start, start + SLICE_ROWS))
        lines = bytearray(block.size)
        text = np.frombuffer(lines, np.uint8).reshape(block.shape[::-1])
        for lo in range(0, len(block), BAND):
            text[:, lo:lo + BAND] = block[lo:lo + BAND].T
        f.write(lines.translate(None, bytes([PAD])))
