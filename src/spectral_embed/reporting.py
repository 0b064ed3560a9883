"""Deterministic report and CSV writers (atomic, byte-stable)."""

import itertools
import os
import re
import tempfile

import numpy as np

_KEY_RE = re.compile(r"^[a-z0-9_]+$")


def fmt(value):
    """Stable text for a report value (shortest round-trip repr for floats)."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def format_report(entries):
    """Render key=value lines; keys must be lowercase identifiers."""
    lines = []
    for key, value in entries.items():
        if not _KEY_RE.match(key):
            raise ValueError(f"bad report key {key!r}")
        lines.append(f"{key}={fmt(value)}")
    return "\n".join(lines) + "\n"


class WriteError(OSError):
    """An output file could not be written; `filename` is its path."""


def atomic_write(path, data):
    """Write `data` (text, bytes as given, or an iterable of text chunks)
    via a temp file in the same directory, then rename.  An OSError on the
    way is raised as a WriteError naming `path`."""
    tmp = None
    try:
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
        umask = os.umask(0)
        os.umask(umask)
        os.fchmod(fd, 0o666 & ~umask)  # mkstemp creates the file 0600
        with os.fdopen(fd, "wb" if isinstance(data, bytes) else "w") as fh:
            for chunk in [data] if isinstance(data, (str, bytes)) else data:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise WriteError(exc.errno, exc.strerror or str(exc),
                             path) from exc
        raise


def write_report(path, entries):
    atomic_write(path, format_report(entries))


# Exact cell types whose report text is their own repr, as fmt writes it.
_REPR = {float: float.__repr__, np.float64: float.__repr__, int: int.__repr__}


def _cell(value, _repr=_REPR.get):
    """fmt(value), skipping fmt's isinstance chain for exact floats and ints."""
    return _repr(type(value), fmt)(value)


def _column(cells):
    """fmt text of one column, with the formatter picked once for it."""
    types = set(map(type, cells))
    if types <= {float, int}:
        return map(repr, cells)
    return map(_cell, cells)


# rows formatted per chunk of the file; a 512 x 129 export then holds 0.6
# MiB of text at once instead of 3.7 MiB
CSV_BLOCK = 64


def _lines(rows):
    """fmt text of a block of rows, one line each: by column when the rows
    share one nonzero width, cell by cell otherwise."""
    widths = set(map(len, rows))
    if len(widths) == 1 and widths != {0}:
        return map(",".join, zip(*map(_column, zip(*rows))))
    return (",".join(map(_cell, row)) for row in rows)


def write_csv(path, header, rows):
    """CSV with one fmt text per cell; hand bulk numpy data over as
    ``.tolist()`` rows, whose Python floats and ints take the fast path.

    Rows are formatted and written CSV_BLOCK at a time."""
    rows = iter(rows)

    def chunks():
        yield ",".join(header) + "\n"
        while block := list(itertools.islice(rows, CSV_BLOCK)):
            yield "\n".join(_lines(block)) + "\n"
    atomic_write(path, chunks())
