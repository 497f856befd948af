"""Tests for the package's public namespace."""

import m0nbar


def test_all_names_resolve_sorted_and_unique():
    names = m0nbar.__all__
    missing = [name for name in names if not hasattr(m0nbar, name)]
    assert missing == []
    assert len(set(names)) == len(names)
    assert names == sorted(names)


def test_all_names_have_their_own_docstrings():
    # a dataclass without a docstring gets its signature "Name(...)"
    bare = []
    for name in m0nbar.__all__:
        doc = getattr(m0nbar, name).__doc__
        if not doc or doc.startswith(name + "("):
            bare.append(name)
    assert bare == []
