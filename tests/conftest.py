import pytest

from degenpoly import combinat, egfseries, families, identities, multipoly


@pytest.fixture
def no_ring_work(monkeypatch):
    """Every sum of products, and every polynomial that ``_make`` forms
    (constants and scalings included), raises AssertionError."""

    def refuse(*args):
        raise AssertionError("ring work before the size check")

    for module in (multipoly, egfseries, combinat, families, identities):
        monkeypatch.setattr(module, "sum_products", refuse)
    monkeypatch.setattr(multipoly, "_make", refuse)
