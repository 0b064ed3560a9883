"""Deterministic report and CSV writers (atomic, byte-stable)."""

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


def atomic_write(path, text):
    """Write via a temp file in the same directory, then rename."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        umask = os.umask(0)
        os.umask(umask)
        os.fchmod(fd, 0o666 & ~umask)  # mkstemp creates the file 0600
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_report(path, entries):
    atomic_write(path, format_report(entries))


# Exact cell types whose report text is their own repr, as fmt writes it.
_REPR = {float: float.__repr__, np.float64: float.__repr__, int: int.__repr__}


def _cell(value, _repr=_REPR.get):
    """fmt(value), skipping fmt's isinstance chain for exact floats and ints."""
    return _repr(type(value), fmt)(value)


def write_csv(path, header, rows):
    """CSV with one fmt text per cell; hand bulk numpy data over as
    ``.tolist()`` rows, whose Python floats and ints take the fast path."""
    lines = [",".join(header)]
    lines.extend(",".join(map(_cell, row)) for row in rows)
    atomic_write(path, "\n".join(lines) + "\n")
