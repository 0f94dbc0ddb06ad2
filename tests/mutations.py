"""Random edits of valid JSON documents, for the loader fuzz tests."""

from __future__ import annotations

import copy

from hypothesis import strategies as st

from mubkit.mub import MAX_MAGNITUDE, MAX_ROOT_ORDER

JSON_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 40), st.text(max_size=2),
    st.sampled_from([MAX_ROOT_ORDER, MAX_ROOT_ORDER + 1, MAX_MAGNITUDE + 1, 10 ** 400]),
    st.floats(allow_nan=True, allow_infinity=True))


def _locations(doc, path=()):
    yield path
    items = doc.items() if isinstance(doc, dict) else \
        enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _locations(value, path + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@st.composite
def mutated_documents(draw, seeds, keys):
    """A fresh valid document from one of the zero-argument builders seeds,
    called while drawing (so a writer that fails fails the test that draws
    it, not the import of its module), with one to three random edits:
    values replaced, keys and entries deleted, inserted, duplicated or
    swapped, numbers shifted (to huge values too), and values wrapped one
    level deeper.  Half of the edits land on a number.  Inserted objects
    and keys are drawn from keys, the names the loader knows plus "x"."""
    values = st.recursive(JSON_LEAVES, lambda kids: st.one_of(
        st.lists(kids, max_size=3),
        st.dictionaries(st.sampled_from(keys), kids, max_size=3)), max_leaves=6)
    doc = draw(st.sampled_from(seeds))()
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_locations(doc))
        numbers = [p for p in paths if p and _is_number(_at(doc, p))]
        path = draw(st.sampled_from(numbers if numbers and draw(st.booleans()) else paths))
        op = draw(st.sampled_from(["replace", "delete", "insert", "swap", "nudge", "wrap"]))
        if not path:
            doc = draw(values) if op == "replace" else [doc] if op == "wrap" else doc
            continue
        holder = _at(doc, path[:-1])
        key, value = path[-1], holder[path[-1]]
        if op == "replace":
            holder[key] = draw(values)
        elif op == "delete":
            del holder[key]
        elif op == "insert" and isinstance(holder, list):
            holder.insert(draw(st.integers(0, len(holder))),
                          copy.deepcopy(value) if draw(st.booleans()) else draw(values))
        elif op == "insert":
            holder[draw(st.sampled_from(keys))] = draw(values)
        elif op == "swap" and isinstance(holder, list) and len(holder) > 1:
            other = draw(st.integers(0, len(holder) - 1))
            holder[key], holder[other] = holder[other], holder[key]
        elif op == "nudge" and _is_number(value):
            big = 10 ** 400 if isinstance(value, int) else 1e300
            holder[key] = value + draw(st.sampled_from([-2, -1, 1, 2, MAX_ROOT_ORDER,
                                                        MAX_MAGNITUDE, big]))
        elif op == "wrap":
            holder[key] = [value]
    return doc
