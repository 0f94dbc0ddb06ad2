"""Deterministic JSON reading and writing shared by the import/export paths."""

from __future__ import annotations

import json
import os
from typing import Any


class ParseError(ValueError):
    """A file or JSON document does not match the expected schema."""


# read_json refuses a longer file before it is parsed.  The complete s = 32
# MUB set takes 10 MB of JSON and its float copy 44 MB.
MAX_DOCUMENT_BYTES = 1 << 26


def loads(text: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from None


def read_json(path: str | os.PathLike) -> Any:
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
    return loads(data.decode("utf-8"))


# Sorted keys and fixed separators keep byte-identical output for equal
# inputs, which the CLI promises.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def encode(obj: Any) -> str:
    """Canonical JSON text of obj, without the final newline."""
    return _ENCODER.encode(obj)


def dumps(obj: Any) -> str:
    return encode(obj) + "\n"


def write_json(path: str | os.PathLike, obj: Any) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(obj))


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise ParseError(message)


def is_int(value: Any) -> bool:
    # JSON booleans are ints in Python; schemas here never want them.
    return isinstance(value, int) and not isinstance(value, bool)
