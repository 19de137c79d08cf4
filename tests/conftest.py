import pytest

from adasub import CoverageUtility, IndependentPrior, core

# Two-item stochastic coverage instance used throughout: universe {u1, u2}
# with unit weights; item 0 covers {u1} or {u1,u2}, item 1 covers {} or {u2};
# both items are in state 1 with probability 1/2, independently.
A_WEIGHTS = (1.0, 1.0)
A_COVERS = ((0b01, 0b11), (0b00, 0b10))


@pytest.fixture
def prior_a():
    return IndependentPrior([[0.5, 0.5], [0.5, 0.5]])


@pytest.fixture
def utility_a():
    return CoverageUtility(A_WEIGHTS, A_COVERS)


@pytest.fixture
def mask_sums(monkeypatch):
    """The masks of the whole-mask sums (core._low_to_high) made during the
    test, in order: a coverage Delta state past the weight-table cap sums its
    covered mask once when built and each newly covered mask once, on its
    memo's miss.  value() over such a universe sums its mask too."""
    sums = []
    low_to_high = core._low_to_high

    def counted(weights, mask):
        sums.append(mask)
        return low_to_high(weights, mask)

    monkeypatch.setattr(core, "_low_to_high", counted)
    return sums
