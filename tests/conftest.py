import numpy as np
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


@pytest.fixture
def eigensolves(monkeypatch):
    """Each ``numpy.linalg.eigh``/``eigvalsh`` call from now on, in order, as
    (name, a copy of its matrix); the solves themselves are unchanged."""
    solves = []
    for name in ("eigh", "eigvalsh"):

        def record(a, *args, _name=name, _solve=getattr(np.linalg, name), **kwargs):
            solves.append((_name, np.array(a)))
            return _solve(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, record)
    return solves
