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

A block is formatted into a byte matrix whose empty slots hold a pad
byte, deleted afterwards with bytes.translate.  Each float column goes
through an exact numpy kernel for "%.17g": for finite |v| in
[1e-4, 1e16), where "%.17g" prints fixed notation, the 17 significant
digits are the exact integer round(|v| * 10^(16 - E)), E = floor(log10
|v|), rounded half to even from Dekker's error-free product; each digit
gets a slot for the decimal point after it.  nan, inf and -inf are
written by the kernel too, and bool cells directly.  Only the remaining
float cells (zeros, subnormals, |v| < 1e-4, |v| >= 1e16) and int and
text cells are formatted one at a time with %; the formatter and the
writers return how many.  The kernel's bytes equal "%.17g"'s for every
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


# The float kernel.  Each cell is laid out in a row of bytes with PAD in
# every slot it leaves empty, and one bytes.translate per KERNEL_ROWS rows
# deletes the padding.
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
    """[n * 10^4 + v]: the 4 digits of v < 10^4 in the even bytes of a
    word, only the first n (0..4) of them shown."""
    rows = np.zeros((5, 10_000, 8), dtype=np.uint8)
    for n in range(1, 5):
        rows[n, :, :2 * n:2] = digits[:, :n] + ord("0")
    return _words(rows).ravel()


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
def _tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The digit words, the head words, and [v]: the position (1..4) of the
    last nonzero digit of v < 10^4, below any digit position for v = 0.
    Built on first use, so importing the module stays cheap."""
    digits = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T  # [v]: v's 4 digits
    last_nonzero = np.where(digits.any(axis=1),
                            4 - np.argmax(digits[:, ::-1] != 0, axis=1), -16)
    return _digit_words(digits), _head_words(), last_nonzero


_NAN, _INF, _MINUS_INF = _words(np.frombuffer(b"nan\0\0\0\0\0\0inf\0\0\0\0-inf\0\0\0\0",
                                              np.uint8).reshape(3, 8))
# 10^k for k = 16 - E, exact in float64 up to k = 22, and its Veltkamp split
_TEN = np.array([10.0**k for k in range(22)])


def _split(a):
    """Veltkamp's split of float64 a into two 26-bit halves, hi + lo = a."""
    c = a * 134217729.0  # 2^27 + 1
    hi = c - (c - a)
    return hi, a - hi


_TEN_HI, _TEN_LO = _split(_TEN)


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
    err = ((hi * ten_hi - p) + hi * ten_lo + lo * ten_hi) + lo * ten_lo
    return p.astype(np.int64) + np.rint(err).astype(np.int64)


def _format_floats(values: np.ndarray) -> tuple[np.ndarray, int]:
    """"%.17g" of each value, as the 40-byte rows of a PAD-filled uint8
    matrix whose last byte the caller sets to the separator, and the number
    of cells formatted one at a time."""
    mag = np.abs(values)
    fast = (mag >= FIXED_MIN) & (mag < FIXED_MAX)
    mag[~fast] = 1.0  # a stand-in; those cells are overwritten below
    exp10 = np.floor(np.log10(mag)).astype(np.int64)
    d = _scaled_digits(mag, exp10)
    # log10 can miss E by one near a power of ten, and rounding can carry
    # into an 18th digit: move E and redo those cells until D has 17 digits
    while True:
        step = (d >= 10**17).astype(np.int64) - (d < 10**16)
        redo = np.flatnonzero(step)
        if not redo.size:
            break
        exp10[redo] += step[redo]
        d[redo] = _scaled_digits(mag[redo], exp10[redo])
    digit_words, head_words, last_nonzero = _tables()
    # D = first * 10^16 + four 4-digit chunks
    first = d // 10**16
    rest = d - first * 10**16
    high = rest // 10**8
    low = rest - high * 10**8
    chunks = [high // 10**4, high % 10**4, low // 10**4, low % 10**4]
    last = np.maximum(last_nonzero[chunks[0]], 0)  # index of the last nonzero digit
    for c in range(1, 4):
        np.maximum(last, last_nonzero[chunks[c]] + 4 * c, out=last)
    shown = np.maximum(last, exp10)  # digits 0..shown are printed
    words = np.empty((len(d), 5), dtype=np.uint64)
    words[:, 0] = head_words[(exp10 + 4 + 20 * (values < 0)) * 10 + first]
    for c in range(4):
        keep = np.minimum(np.maximum(shown - 4 * c, 0), 4)
        words[:, c + 1] = digit_words[keep * 10_000 + chunks[c]]
    cells = words.view(np.uint8)
    point = np.flatnonzero((last > exp10) & (exp10 >= 0))
    cells.reshape(-1)[point * 40 + 2 * exp10[point] + 7] = ord(".")

    special = ~np.isfinite(values)
    if special.any():
        words[special, 1:] = 0
        words[special, 0] = np.where(np.isnan(values[special]), _NAN,
                                     np.where(values[special] < 0, _MINUS_INF, _INF))
    single = ~fast & ~special
    count = int(single.sum())
    if count:
        words[single] = 0
        words[single, :4] = _cell_bytes(FLOAT_FMT, values[single], 32).view(np.uint64)
    return cells, count


def _cell_bytes(spec: str, values: np.ndarray, width: int = 0) -> np.ndarray:
    """Each value formatted with spec, one at a time, as the rows of a
    PAD-filled uint8 matrix at least width bytes wide."""
    cells = [(spec % v).encode() for v in values.tolist()]
    if any(PAD in cell for cell in cells):
        raise ValueError("a CSV cell holds a NUL byte")
    matrix = np.array(cells, dtype=f"S{max(width, *map(len, cells), 1)}")
    return matrix.view(np.uint8).reshape(len(cells), matrix.itemsize)


def format_records(block: np.ndarray) -> tuple[bytes, int]:
    """A block of a record array as CSV bytes, and the number of cells
    formatted one at a time.

    A column's format follows from its dtype kind: float columns go
    through the kernel, one column of KERNEL_ROWS rows at a time, and bool
    columns are written as 1/0 directly; int columns are formatted one
    cell at a time with "%d" and any other column with "%s".
    """
    names = block.dtype.names
    kinds = [block.dtype[name].kind for name in names]
    seps = [ord(",")] * (len(names) - 1) + [ord("\n")]
    texts, count = [], 0
    for start in range(0, len(block), KERNEL_ROWS):
        rows = block[start:start + KERNEL_ROWS]
        parts = []
        for name, kind, sep in zip(names, kinds, seps):
            col = rows[name]
            if kind == "f":
                # % prints any float width as a Python float
                cells, single = _format_floats(col.astype(np.float64, copy=False))
                cells[:, 39] = sep
                count += single
            elif kind == "b":
                cells = np.stack([col + ord("0"), np.full(len(col), sep)], axis=1)
            else:
                cells = _cell_bytes("%d" if kind in "iu" else "%s", col)
                cells = np.column_stack([cells, np.full(len(col), sep)])
                count += len(col)
            parts.append(cells.astype(np.uint8, copy=False))
        texts.append(np.concatenate(parts, axis=1).tobytes().translate(None, PAD))
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
