"""Shared fixtures: small certified matrices used across the suite, and a
counter of Bareiss eliminations."""

import pytest

from totneg import ExactMatrix
from totneg import matrix as matrix_module


@pytest.fixture(scope="session")
def n2() -> ExactMatrix:
    """2x2 with all five minors negative."""
    return ExactMatrix.from_rows([[-1, -2], [-2, -1]])


@pytest.fixture(scope="session")
def n3() -> ExactMatrix:
    """3x3 with all nineteen minors negative."""
    return ExactMatrix.from_rows([[-1, -2, -4], [-2, -3, -5], [-4, -5, -6]])


@pytest.fixture(scope="session")
def near_miss() -> ExactMatrix:
    """Entrywise negative, determinant +1: fails the order-2 class at one minor."""
    return ExactMatrix.from_rows([[-1, -2], [-2, -5]])


@pytest.fixture(scope="session")
def zero_row_tnp() -> ExactMatrix:
    """Non-positive 3x3 with a zero first row; in the weak class, not the strict one."""
    return ExactMatrix.from_rows([[0, 0, 0], [-1, -3, -3], [-1, -1, -1]])


@pytest.fixture
def eliminations(monkeypatch) -> list[int]:
    """The size of every Bareiss elimination ``matrix._det_int`` runs while the test does."""
    sizes: list[int] = []
    original = matrix_module._det_int

    def counting(m):
        sizes.append(len(m))
        return original(m)

    monkeypatch.setattr(matrix_module, "_det_int", counting)
    return sizes
