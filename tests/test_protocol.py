"""Pins every labelled row the functional protocol yields on the desk instances.

The eavesdropper analysis consumes the codes' rows, and reports name them
by labels built on demand, so a change to how the code models build
either must leave this traversal byte-identical.  Each digest is a sha256
over one "label<TAB>row" line per yielded pair.
"""

import hashlib
import itertools

import pytest

from coopstore.eve import download_label, repair_download_rows
from coopstore.instances import a1, b1, s1
from coopstore.legacy import CodeAAdapter


def traversal(code, nominal):
    n = code.params.n
    for node in range(1, n + 1):
        yield from code.storage_rows(node)
    for node in code.supported_failed_nodes:
        for key, row in repair_download_rows(code, node):
            yield download_label(code, node, key), row
    if nominal:
        for a, b in itertools.permutations(range(1, n + 1), 2):
            yield f"S_{a}^{b}", code.nominal_repair_row(a, b)
            yield f"Z_{a}^{b}", code.nominal_exchange_row(a, b)
    for node in code.supported_failed_nodes:
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


def old_labels(code, node, group, helpers):
    """Reference: the labels of one context's downloads, in the format reports print."""
    if isinstance(code, CodeAAdapter):
        other = group[1]
        parity = [j + 2 for j in range(1, code.code_params.d + 1) if j + 2 != other]
        senders = parity + ([2] if other != 2 else [])
        return [f"S_{j}^1|C=1,{other}" for j in senders]
    ctx = f"C={','.join(map(str, group))};D={','.join(map(str, helpers))}"
    return [f"S_{lam}^{node}|{ctx}" for lam in helpers] + [
        f"Z_{j}^{node}|{ctx}" for j in group if j != node
    ]


@pytest.mark.parametrize(
    "make, first",
    [
        (s1, "S_3^1|C=1,2;D=3,4,5"),
        (b1, "S_3^1|C=1,2;D=3,4,5"),
        (lambda: CodeAAdapter(a1()), "S_3^1|C=1,2"),
    ],
    ids=["s1", "b1", "code-a"],
)
def test_labels_on_demand_are_the_old_strings(make, first):
    # download_label over the keyed walk names every download as the
    # labelled view used to, in the same order
    code = make()
    for node in code.supported_failed_nodes:
        labels = [download_label(code, node, key) for key, _ in repair_download_rows(code, node)]
        assert labels == [
            label
            for group, helpers in code.contexts(node)
            for label in old_labels(code, node, group, helpers)
        ]
        if node == 1:
            assert labels[0] == first
