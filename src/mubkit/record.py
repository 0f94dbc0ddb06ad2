"""Immutable records.

Every record in the package is a named tuple subclass with empty
__slots__ (or none, where a functools.cached_property needs __dict__).
A record that checks its fields does so in an explicit __new__, and
takes checked_make as its _make: a named tuple's own _make, which
_replace calls, skips __new__, so without it x._replace(...) could build
a record that was never checked.
"""


def checked_make(cls, iterable):
    return cls(*iterable)
