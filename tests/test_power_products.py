"""x**k squares only while bits are left: k.bit_length() - 1 squares and one product per set bit."""

import pytest

from grossone.gnum import GROSSONE, GrossNumber, finite


@pytest.fixture
def products(monkeypatch):
    """The number of GrossNumber products made since the fixture was set up."""
    made = [0]
    multiply = GrossNumber.__mul__

    def counted(self, other):
        made[0] += 1
        return multiply(self, other)

    monkeypatch.setattr(GrossNumber, "__mul__", counted)
    return made


@pytest.mark.parametrize("k", range(1, 65))
def test_a_power_makes_no_unused_square(products, k):
    x = GROSSONE + 1
    power = x**k
    assert products[0] == k.bit_length() - 1 + bin(k).count("1")
    assert power == (GROSSONE + 1) ** (k - 1) * x


def test_the_zeroth_power_makes_no_product(products):
    assert (GROSSONE + 1) ** 0 == 1
    assert products[0] == 0


def test_powers_keep_their_values():
    assert (GROSSONE + 1) ** 3 == GROSSONE**3 + GROSSONE**2 * 3 + GROSSONE * 3 + 1
    assert finite(2) ** 64 == 2**64
    assert (GROSSONE / 2) ** 5 == GROSSONE**5 / 32
