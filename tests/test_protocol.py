"""Pins every labelled row the functional protocol yields on the desk instances.

The eavesdropper analysis consumes only (label, row) pairs, so a change to
how the code models build them must leave this traversal byte-identical.
Each digest is a sha256 over one "label<TAB>row" line per yielded pair.
"""

import hashlib
import itertools

import pytest

from coopstore.eve import download_span, repair_download_rows
from coopstore.instances import a1, b1, s1
from coopstore.legacy import CodeAAdapter
from coopstore.stable import eavesdroppable_nodes


def traversal(code, nominal):
    n = code.params.n
    for node in range(1, n + 1):
        yield from code.storage_rows(node)
    for node in eavesdroppable_nodes(code):
        for group, helpers in code.contexts(node):
            yield from code.downloads_for_context(node, group, helpers)
    if nominal:
        for a, b in itertools.permutations(range(1, n + 1), 2):
            yield f"S_{a}^{b}", code.nominal_repair_row(a, b)
            yield f"Z_{a}^{b}", code.nominal_exchange_row(a, b)
    for node in eavesdroppable_nodes(code):
        yield from code.granted_rows(node)


def digest(code, nominal):
    h = hashlib.sha256()
    count = 0
    for label, row in traversal(code, nominal):
        h.update(f"{label}\t{tuple(row)}\n".encode())
        count += 1
    return count, h.hexdigest()


# Code A's adapter models only node 1's traversal and has no nominal rows.
@pytest.mark.parametrize(
    "make, nominal, expected",
    [
        (s1, True, (552, "050f3e02ee53a178e885060f8c6d4f8c71e9c3d76a8b029d2758e5a7911a0081")),
        (b1, True, (552, "8ac95d9183836c36b716b9535357feeb70c4ab8016b5c29a8ec40f29eff9aed5")),
        (
            lambda: CodeAAdapter(a1()),
            False,
            (30, "7747886212d7c3989f35bd1a990a187d573c46e26918d127d026a6b397ffba79"),
        ),
    ],
    ids=["s1", "b1", "code-a"],
)
def test_traversal_digest(make, nominal, expected):
    assert digest(make(), nominal) == expected


@pytest.mark.parametrize("make", [s1, b1, lambda: CodeAAdapter(a1())], ids=["s1", "b1", "code-a"])
def test_download_rows_are_the_labelled_rows(make):
    # one traversal: downloads_for_context labels exactly download_rows, and
    # the span walked over download_rows keeps the labelled view's first
    # occurrences in order
    code = make()
    for node in eavesdroppable_nodes(code):
        for group, helpers in code.contexts(node):
            labelled = code.downloads_for_context(node, group, helpers)
            assert code.download_rows(node, group, helpers) == [row for _, row in labelled]
        full = [row for _, row in repair_download_rows(code, node)]
        assert download_span(code, node) == list(dict.fromkeys(full))
