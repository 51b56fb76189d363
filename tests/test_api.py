"""The public names the package exports."""

import lgsteer


def test_every_exported_name_resolves():
    missing = [name for name in lgsteer.__all__ if not hasattr(lgsteer, name)]
    assert missing == []


def test_no_duplicate_exports():
    assert len(lgsteer.__all__) == len(set(lgsteer.__all__))
