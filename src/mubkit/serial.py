"""Deterministic JSON reading and writing shared by the import/export paths."""

from __future__ import annotations

import functools
import gc
import json
import os
from itertools import chain, repeat


class ParseError(ValueError):
    """A file or JSON document does not match the expected schema."""


# read_json refuses a longer file before it is parsed.  The complete s = 32
# MUB set takes 10 MB of JSON and its float copy 44 MB.
MAX_DOCUMENT_BYTES = 1 << 26


def gc_paused(func):
    """func with the cyclic garbage collector paused while it runs, and the
    caller's setting restored on every exit, an exception included.  The
    loaders run under it: a parse allocates about one container per list
    and object of a document, none of them in a cycle, and each full
    collection it triggered would walk the whole live heap."""
    @functools.wraps(func)
    def paused(*args):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return func(*args)
        finally:
            if enabled:
                gc.enable()
    return paused


@gc_paused
def read_json(path: str | os.PathLike) -> object:
    """The decoded JSON document in the file at path, read and parsed with
    the cyclic garbage collector paused (see gc_paused; the s = 32 set
    parses in about a fifth of the time)."""
    try:
        with open(path, "rb") as fh:
            # read(n) allocates n bytes at once, so a file is read at the
            # size it reports, plus one byte; only a file that reports no
            # size, or outgrew it, is read on up to the bound
            want = min(os.fstat(fh.fileno()).st_size, MAX_DOCUMENT_BYTES) + 1
            data = fh.read(want)
            if len(data) == want:
                data += fh.read(MAX_DOCUMENT_BYTES + 1 - want)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    expect(len(data) <= MAX_DOCUMENT_BYTES,
           f"{path} holds more than {MAX_DOCUMENT_BYTES} bytes")
    try:
        return json.loads(data.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or too deep
        raise ParseError(f"{path}: invalid JSON: {exc}") from None


# Sorted keys and fixed separators keep byte-identical output for equal
# inputs, which the CLI promises.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def encode(obj: object) -> str:
    """Canonical JSON text of obj, without the final newline."""
    return _ENCODER.encode(obj)


def dumps(obj: object) -> str:
    return encode(obj) + "\n"


def write_json(path: str | os.PathLike, obj: object) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(obj))


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise ParseError(message)


def is_int(value: object) -> bool:
    # JSON booleans are ints in Python; schemas here never want them.
    return isinstance(value, int) and not isinstance(value, bool)


def is_int_rows(rows: object) -> bool:
    """A list of lists whose items all pass is_int.  A valid decoded JSON
    document holds plain ints there, so one pass over the item types
    accepts it; the per-item test decides any list holding another type."""
    if not isinstance(rows, list) or not all(map(isinstance, rows, repeat(list))):
        return False
    if set(map(type, chain.from_iterable(rows))) <= {int}:
        return True
    return all(is_int(x) for row in rows for x in row)
