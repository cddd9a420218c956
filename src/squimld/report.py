"""Output emission: fixed-schema CSV files, run manifests, and plot scripts.

Every CSV is a record array with an explicit dtype, under a header of its
field names.  One formatter, `format_records`, turns a block of rows into
CSV bytes, and one writer, `write_blocks`, writes the header and then the
formatted blocks in the order they come, into a temporary file beside the
target that replaces the target only after the last block: a command that
fails part-way leaves no partial CSV.  `write_csv` feeds it a record
array, KERNEL_ROWS rows per block, so a table never sits in memory as
text; domain-scan feeds it the blocks its sampling shards format in the
worker that drew them (ratecurves.domain_scan_csv), so its rows cross the
process pool once, as text.  A column's format follows from its dtype kind: a float
cell is printed with 17 significant digits ("%.17g"), so a value survives
a round trip through text exactly; a bool cell as 1/0; an int cell with
"%d"; anything else with "%s".  Each cell's bytes depend on its value
alone, never on the block it was formatted in, so any split of a table
into blocks writes the same file.

A block is formatted KERNEL_ROWS rows at a time, each window into one
row buffer: a bytearray filled with the pad byte, in which every cell has
a word-aligned slot of its row.  A float cell takes 5 words with its
separator in byte 39; a bool cell takes 2 bytes, its digit and its
separator, and adjacent bool columns share a word, 4 cells to it; an int
or text cell takes ceil((width + 1)/8) words, width being its column's
widest cell in the window, with the separator in the last byte.  The
cells are written into their slots, and one bytearray.translate deletes
the padding.  Each float column goes through an exact numpy kernel for
"%.17g", whose digit pipeline runs only on the cells it prints: finite
|v| in [1e-4, 1e16), where "%.17g" prints fixed notation.  There the 17
significant digits are the exact integer round(|v| * 10^(16 - E)), E =
floor(log10 |v|), rounded half to even from Dekker's error-free product;
each digit gets a slot for the decimal point after it.  When the 17th
digit is nonzero all 17 show, so only the cells whose 17th digit is 0
are searched for trailing zeros.  Each such cell's five words are built
in one contiguous block and copied into the row buffer once.  nan, inf
and -inf take one word each, and bool cells are written directly.  Only
the remaining float cells (zeros, subnormals, |v| < 1e-4, |v| >= 1e16)
and int and text cells are formatted one at a time with %; the formatter
and the writers return how many.  The kernel's bytes equal "%.17g"'s for every
float64, and an int column prints every value of its dtype exactly (a
seed column is uint64).  The bytes are the determinism contract for
repeated runs.

The manifest is a flat JSON object with string keys and string values
recording what produced the outputs and the estimator's diagnostics
(diag.*); it carries timestamps and wall times (time.*), so only the CSVs
are expected to be byte-stable.

Plot scripts are standalone gnuplot text files that read the CSV next to
them, so figures stay reproducible without adding a rendering dependency.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from datetime import datetime, timezone
from functools import cache
from pathlib import Path

import numpy as np

from . import __version__

FLOAT_FMT = "%.17g"


# The float kernel.  Each cell is laid out in its slot of a window's row
# buffer with PAD in every byte it leaves empty, and one translate of the
# buffer deletes the padding.
# A float cell takes 40 bytes, filled as five uint64 words (native order):
#   byte 0      the sign;
#   bytes 1-5   "0.000", of which 1e-4 <= |v| < 1 shows "0." and -E - 1 zeros;
#   bytes 6-39  the 17 significant digits, each followed by a slot for the
#               decimal point; the last slot, after digit 17, is never a
#               point and carries the separator that ends the cell.
PAD = b"\0"
# Finite |v| in [FIXED_MIN, FIXED_MAX) is printed by the kernel: there
# "%.17g" uses fixed notation with E = floor(log10 |v|) in [-4, 15].  Zeros,
# subnormals and every other finite value are formatted one at a time.
FIXED_MIN, FIXED_MAX = 1e-4, 1e16
# Rows formatted at a time, and the rows write_csv puts in one block: the
# kernel's temporaries for one column of them stay in cache (a float
# column of 65,536 rows took 4.5 ms in one piece, 2.4 ms in four, on a
# 2-core AMD EPYC).
KERNEL_ROWS = 16_384


def _words(byte_rows) -> np.ndarray:
    """Rows of 8 bytes as uint64 words."""
    return np.ascontiguousarray(byte_rows, dtype=np.uint8).view(np.uint64)[..., 0]


def _digit_words(digits: np.ndarray) -> np.ndarray:
    """[v]: the 4 digits of v < 10^4 in the even bytes of a word."""
    rows = np.zeros((10_000, 8), dtype=np.uint8)
    rows[:, ::2] = digits + ord("0")
    return _words(rows)


def _shown_masks() -> np.ndarray:
    """[s]: the five words of a float cell that keep its bytes through
    digit s, byte 2 s + 6, and clear every later byte."""
    keep = np.arange(40) <= 2 * np.arange(17)[:, None] + 6
    return _words(np.where(keep, 0xFF, 0).reshape(17, 5, 8))


def _head_words() -> np.ndarray:
    """[(E + 4 + 20 * negative) * 10 + d]: bytes 0-7 of a cell with
    exponent E and first digit d."""
    rows = np.zeros((2, 20, 10, 8), dtype=np.uint8)
    rows[1, :, :, 0] = ord("-")
    for exp10 in range(-4, 0):
        rows[:, exp10 + 4, :, 1:3] = list(b"0.")
        rows[:, exp10 + 4, :, 3:2 - exp10] = ord("0")
    rows[..., 6] = np.arange(10) + ord("0")
    return _words(rows).ravel()


@cache
def _tables() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The digit words, the head words, [v]: the position (1..4) of the
    last nonzero digit of v < 10^4, below any digit position for v = 0,
    and the shown-digit masks.  Built on first use, so importing the
    module stays cheap."""
    digits = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T  # [v]: v's 4 digits
    last_nonzero = np.where(digits.any(axis=1),
                            4 - np.argmax(digits[:, ::-1] != 0, axis=1), -16)
    return _digit_words(digits), _head_words(), last_nonzero, _shown_masks()


_NAN, _INF, _MINUS_INF = _words(np.frombuffer(b"nan\0\0\0\0\0\0inf\0\0\0\0-inf\0\0\0\0",
                                              np.uint8).reshape(3, 8))
# 10^k for k = 16 - E, exact in float64 up to k = 22, and its Veltkamp split
_TEN = np.array([10.0**k for k in range(22)])


def _split(a):
    """Veltkamp's split of float64 a into two 26-bit halves, hi + lo = a."""
    hi = a * 134217729.0  # 2^27 + 1, then hi = c - (c - a)
    hi -= hi - a
    return hi, a - hi


_TEN_HI, _TEN_LO = _split(_TEN)


# The digit kernel works in place where it can: a window's column
# temporaries are 128 KiB each, and a fresh one can cost a page fault per
# 4 KiB when the allocator has handed that memory back to the system.


def _scaled_digits(mag: np.ndarray, exp10: np.ndarray) -> np.ndarray:
    """round(mag * 10^(16 - exp10)) as int64, ties to even, exactly.

    Dekker's product gives the float64 product p and its exact error, so
    p + err is the exact value.  Where that value is at least 10^16 > 2^53,
    p is an even integer and p + rint(err) is its round half to even.  An
    exp10 off by one gives a result outside [10^16, 10^17), which the
    caller redoes.
    """
    k = 16 - exp10
    p = mag * _TEN[k]
    hi, lo = _split(mag)
    ten_hi, ten_lo = _TEN_HI[k], _TEN_LO[k]
    # err = ((hi * ten_hi - p) + hi * ten_lo + lo * ten_hi) + lo * ten_lo
    err = hi * ten_hi
    err -= p
    term = np.multiply(hi, ten_lo, out=hi)
    err += term
    err += np.multiply(lo, ten_hi, out=term)
    err += np.multiply(lo, ten_lo, out=term)
    d = p.astype(np.int64)
    d += np.rint(err, out=err).astype(np.int64)
    return d


def _fixed_cells(mag: np.ndarray, negative: np.ndarray) -> np.ndarray:
    """The five words of "%.17g" of each finite mag in [FIXED_MIN, FIXED_MAX),
    signed by negative, as an (n, 5) uint64 block, one cell to a row; byte
    39 of each cell, after the 17th digit, is PAD."""
    exp10 = np.log10(mag)
    exp10 = np.floor(exp10, out=exp10).astype(np.int64)
    d = _scaled_digits(mag, exp10)
    # log10 can miss E by one near a power of ten, and rounding can carry
    # into an 18th digit: move E and redo those cells until D has 17 digits
    while True:
        redo = ((d >= 10**17) | (d < 10**16)).nonzero()[0]
        if not redo.size:
            break
        exp10[redo] += np.where(d[redo] >= 10**17, 1, -1)
        d[redo] = _scaled_digits(mag[redo], exp10[redo])
    digit_words, head_words, last_nonzero, shown_masks = _tables()
    # D = first * 10^16 + four 4-digit chunks, cut down in place
    high = d // 10**8
    d -= high * 10**8
    first = high // 10**8
    high -= first * 10**8
    chunks = [high // 10**4, high, d // 10**4, d]
    high -= chunks[0] * 10**4
    d -= chunks[2] * 10**4
    cells = np.empty((len(d), 5), dtype=np.uint64)
    head = 20 * negative
    head += exp10
    head += 4
    head *= 10
    head += first
    cells[:, 0] = head_words[head]
    for c in range(4):
        cells[:, c + 1] = digit_words[chunks[c]]
    # all 17 digits, with the point after digit E
    point = (exp10 >= 0).nonzero()[0]
    cells.view(np.uint8)[point, 2 * exp10[point] + 7] = ord(".")
    # where the 17th digit is 0, %g cuts the trailing zeros, down to digit
    # E, and with them a point after the last digit it shows
    tail = (last_nonzero[chunks[3]] != 4).nonzero()[0]
    if tail.size:
        last = np.maximum(last_nonzero[chunks[0][tail]], 0)  # index of the last nonzero digit
        for c in range(1, 4):
            np.maximum(last, last_nonzero[chunks[c][tail]] + 4 * c, out=last)
        cells[tail] &= shown_masks[np.maximum(last, exp10[tail])]
    return cells


def _format_floats(values: np.ndarray, rows: np.ndarray, at: int) -> int:
    """Write "%.17g" of each value into its float slot, words at..at + 4 of
    its row of the PAD-filled uint64 row buffer rows, and return the number
    of cells formatted one at a time.  Only the cells "%.17g" prints in
    fixed notation go through the digit kernel (_fixed_cells); nan and
    +-inf take one word, the rest are formatted one at a time.  Byte 39 of
    the slot, after the 17th digit, is left as it was for the caller's
    separator."""
    mag = np.abs(values)
    fast = (mag >= FIXED_MIN) & (mag < FIXED_MAX)
    if fast.all():
        rows[:, at:at + 5] = _fixed_cells(mag, values < 0.0)
        return 0
    fixed = fast.nonzero()[0]
    if fixed.size:
        rows[fixed, at:at + 5] = _fixed_cells(mag[fixed], values[fixed] < 0.0)
    finite = np.isfinite(values)
    special = (~finite).nonzero()[0]
    if special.size:
        v = values[special]
        rows[special, at] = np.where(np.isnan(v), _NAN, np.where(v < 0.0, _MINUS_INF, _INF))
    single = (finite & ~fast).nonzero()[0]
    if single.size:
        rows[single, at:at + 4] = _cell_bytes(FLOAT_FMT, values[single], 32).view(np.uint64)
    return int(single.size)


def _cell_bytes(spec: str, values: np.ndarray, width: int = 0) -> np.ndarray:
    """Each value formatted with spec, one at a time, as the rows of a
    PAD-filled uint8 matrix at least width bytes wide."""
    cells = [(spec % v).encode() for v in values.tolist()]
    if any(PAD in cell for cell in cells):
        raise ValueError("a CSV cell holds a NUL byte")
    matrix = np.array(cells, dtype=f"S{max(width, *map(len, cells), 1)}")
    return matrix.view(np.uint8).reshape(len(cells), matrix.itemsize)


def _slots(kinds, widths) -> tuple[list[int], list[int], int]:
    """The row layout of one window: each cell's first byte, each
    separator's byte, and the row size in bytes, a whole number of words.

    A float cell takes 5 words, its separator in byte 39; a bool cell takes
    2 bytes, the digit and its separator, and a run of bool columns shares
    words, 4 cells to a word; any other cell, width bytes at its widest,
    takes ceil((width + 1) / 8) words with its separator in the last byte.
    Every non-bool slot starts on a word."""
    starts, seps, size = [], [], 0
    for kind, width in zip(kinds, widths):
        if kind == "b":
            span = 2
        else:
            size = -(-size // 8) * 8
            span = 40 if kind == "f" else (width // 8 + 1) * 8
        starts.append(size)
        size += span
        seps.append(size - 1)
    return starts, seps, -(-size // 8) * 8


def format_records(block: np.ndarray) -> tuple[bytes, int]:
    """A block of a record array as CSV bytes, and the number of cells
    formatted one at a time.

    Each window of KERNEL_ROWS rows is written into one PAD-filled row
    buffer, every cell into its word-aligned slot (see _slots), and one
    translate deletes the padding.  A column's format follows from its
    dtype kind: float columns go through the kernel, which writes its
    words straight into the slots, and bool columns are written as 1/0
    directly; int columns are formatted one cell at a time with "%d" and
    any other column with "%s", and their widest cell in the window sets
    their slot width.
    """
    names = block.dtype.names
    kinds = [block.dtype[name].kind for name in names]
    seps = [ord(",")] * (len(names) - 1) + [ord("\n")]
    texts, count = [], 0
    for start in range(0, len(block), KERNEL_ROWS):
        rows = block[start:start + KERNEL_ROWS]
        cells = [None if kind in "fb" else _cell_bytes("%d" if kind in "iu" else "%s", rows[name])
                 for name, kind in zip(names, kinds)]
        starts, sep_at, size = _slots(kinds, [0 if c is None else c.shape[1] for c in cells])
        buf = bytearray(len(rows) * size)  # zero bytes: PAD
        table = np.frombuffer(buf, dtype=np.uint8).reshape(len(rows), size)
        for name, kind, cell, at in zip(names, kinds, cells, starts):
            col = rows[name]
            if kind == "f":
                # % prints any float width as a Python float
                count += _format_floats(col.astype(np.float64, copy=False),
                                        table.view(np.uint64), at // 8)
            elif kind == "b":
                table[:, at] = col.view(np.uint8) + ord("0")
            else:
                table[:, at:at + cell.shape[1]] = cell
                count += len(col)
        table[:, sep_at] = seps
        texts.append(buf.translate(None, PAD))
    return b"".join(texts), count


def write_blocks(path: str | Path, names, blocks) -> int:
    """Write CSV under a header of the field names, then each formatted
    block in turn; blocks yields (bytes, cells formatted one at a time)
    pairs, as format_records returns them.  Returns the summed count.

    The rows go to a temporary file beside path (its directory is made if
    missing), renamed onto path after the last block; if anything raises on
    the way, the temporary file is removed, path is left as it was, and the
    exception propagates."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    single = 0
    try:
        with open(tmp, "wb") as out:
            out.write((",".join(names) + "\n").encode())
            for text, count in blocks:
                out.write(text)
                single += count
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return single


def write_csv(path: str | Path, rows: np.ndarray) -> int:
    """Write the record array rows as CSV under a header of its field names,
    KERNEL_ROWS rows per formatted block; return the number of cells
    formatted one at a time."""
    blocks = (rows[start:start + KERNEL_ROWS] for start in range(0, len(rows), KERNEL_ROWS))
    return write_blocks(path, rows.dtype.names, map(format_records, blocks))


def utc_now() -> str:
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


@dataclass(frozen=True)
class RunManifest:
    """What ran, with what knobs, and what it wrote."""

    command: str
    parameters: dict
    seed: int
    workers: int
    started: str
    finished: str
    output_files: list = field(default_factory=list)
    code_version: str = __version__
    timings: dict = field(default_factory=dict)  # stage -> wall seconds
    diagnostics: dict = field(default_factory=dict)  # name -> estimator figure

    def to_flat(self) -> dict:
        """Flat string-keyed, string-valued JSON object."""
        flat = {
            "command": self.command,
            "seed": str(self.seed),
            "workers": str(self.workers),
            "started": self.started,
            "finished": self.finished,
            "code_version": self.code_version,
        }
        for key, value in sorted(self.parameters.items()):
            flat[f"param.{key}"] = str(value)
        for i, name in enumerate(self.output_files):
            flat[f"output.{i}"] = str(name)
        for stage, seconds in self.timings.items():
            flat[f"time.{stage}"] = f"{seconds:.6f}"
        for name, value in self.diagnostics.items():
            flat[f"diag.{name}"] = str(value)
        return flat

    def write(self, path: str | Path) -> None:
        Path(path).write_text(
            json.dumps(self.to_flat(), indent=2, sort_keys=False) + "\n",
            newline="\n",
        )


def domain_plot_script(csv_name: str) -> str:
    """Scatter of accepted domain points with constraint points overlaid."""
    return f"""\
# gnuplot script: domain scan scatter
set datafile separator ','
set xlabel 'theta1'
set ylabel 'theta2'
set key outside
plot '{csv_name}' skip 1 using ($3 == 1 && $4 == 0 ? $1 : 1/0):2 \\
         title 'D (domain)' with points pt 7 ps 0.2, \\
     '{csv_name}' skip 1 using ($4 == 1 ? $1 : 1/0):2 \\
         title 'G (constraint set)' with points pt 5 ps 0.6
"""


def rate_plot_script(csv_name: str) -> str:
    """Both rate curves against x; missing I2 cells plot as gaps."""
    return f"""\
# gnuplot script: rate curves
set datafile separator ','
set xlabel 'x'
set ylabel 'rate'
set key top right
plot '{csv_name}' skip 1 using 1:2 title 'I1' with linespoints pt 7, \\
     '{csv_name}' skip 1 using 1:3 title 'I2' with linespoints pt 5
"""


def write_text(path: str | Path, content: str) -> None:
    Path(path).write_text(content, newline="\n")
