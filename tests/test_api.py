"""The public names of the package."""
import toposample as ts


def test_all_names_resolve_once():
    assert len(ts.__all__) == len(set(ts.__all__))
    missing = [name for name in ts.__all__ if not hasattr(ts, name)]
    assert missing == []
