import pytest


def _assert_same_lines(got: str, want: str) -> None:
    # Line by line: pytest's diff of two long strings takes minutes.
    got, want = got.split("\n"), want.split("\n")
    assert [(i, g, w) for i, (g, w) in enumerate(zip(got, want)) if g != w][:5] == []
    assert len(got) == len(want)


@pytest.fixture
def assert_same_lines():
    """``assert got == want`` for two long texts, compared line by line."""
    return _assert_same_lines
