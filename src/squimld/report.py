"""Output emission: fixed-schema CSV files, run manifests, and plot scripts.

Every CSV goes through the one writer, `write_csv`, under one formatting
rule: a float cell is printed with 17 significant digits ("%.17g"), so a
value survives a round trip through text exactly; an int or bool cell is
printed as an integer ("%d", so booleans become 1/0); anything else is
printed with str ("%s").  The rule is applied per column, once per table:
a record array's columns take it from their dtype, a list of row tuples
from the Python types of its cells.  Rows are formatted and written a
block of CHUNK_ROWS at a time, so a table never sits in memory as text.
With workers > 1, a record array of more than one block has its blocks
formatted on the shared process pool of `parallel` (built on first use,
reused by every later call, fork start method on Linux before Python 3.14
and forkserver from 3.14; `_format_block` is module-level, so both work)
and written in order, with at most parallel.TASKS_PER_WORKER x workers
(2 x workers) blocks in flight, so the text held in memory stays bounded.
A list of row tuples is always formatted in-process.  The bytes do not
depend on the worker count; they are the determinism contract for
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
from dataclasses import dataclass, field
from datetime import datetime, timezone
from functools import partial
from itertools import chain
from pathlib import Path

import numpy as np

from .parallel import ordered_map

FLOAT_FMT = "%.17g"
# Rows formatted and written per block; bounds the text held in memory.
CHUNK_ROWS = 65_536

CODE_VERSION = "0.1.0"


def _dtype_spec(dtype: np.dtype) -> str:
    """The cell format of a record-array column."""
    if dtype.kind in "biu":
        return "%d"
    if dtype.kind == "f":
        return FLOAT_FMT
    return "%s"


def _cell_spec(value) -> str:
    """The cell format of one Python value (bool is an int)."""
    if isinstance(value, (int, np.integer)):
        return "%d"
    if isinstance(value, float):
        return FLOAT_FMT
    return "%s"


def _check_width(path, header: list[str], width: int) -> None:
    if width != len(header):
        raise ValueError(
            f"row width {width} != header width {len(header)} in {path}"
        )


def _row_format(path, header: list[str], rows) -> str:
    """The one %-format string shared by every row of the table.

    A column of Python cells must need one format throughout; a column
    mixing, say, ints and floats is refused rather than printed unevenly.
    """
    if isinstance(rows, np.ndarray):
        names = rows.dtype.names or ()
        _check_width(path, header, len(names))
        return ",".join(_dtype_spec(rows.dtype[name]) for name in names)
    for row in rows:
        _check_width(path, header, len(row))
    specs = []
    for name, column in zip(header, zip(*rows)):
        kinds = {_cell_spec(v) for v in column}
        if len(kinds) > 1:
            raise ValueError(f"column {name} mixes {sorted(kinds)} cells in {path}")
        specs.append(kinds.pop())
    return ",".join(specs)


def _format_block(line: str, block) -> str:
    """One block of rows as CSV text: one `line` per row, a single % over
    the block's cells flattened row-major."""
    if isinstance(block, np.ndarray):
        cells = np.empty((len(block), len(block.dtype.names)), dtype=object)
        for j, name in enumerate(block.dtype.names):
            cells[:, j] = block[name]
        flat = tuple(cells.ravel().tolist())
    else:
        flat = tuple(chain.from_iterable(block))
    return (line * len(block)) % flat


def write_csv(path: str | Path, header: list[str], rows, workers: int = 1) -> None:
    """Write header and rows as CSV, CHUNK_ROWS rows per formatting call.

    rows is a list of row tuples or a record array with one field per
    header column; len(rows) is the row count.  With workers > 1 the
    blocks of a record array are formatted on the process pool; the bytes
    written are the same for every worker count.
    """
    line = _row_format(path, header, rows) + "\n"
    starts = range(0, len(rows), CHUNK_ROWS)
    if not (isinstance(rows, np.ndarray) and len(starts) > 1):
        workers = 1
    blocks = (rows[start:start + CHUNK_ROWS] for start in starts)
    with open(path, "w", newline="\n") as out:
        out.write(",".join(header) + "\n")
        for text in ordered_map(partial(_format_block, line), blocks, workers):
            out.write(text)


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
    code_version: str = CODE_VERSION
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
