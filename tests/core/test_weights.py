"""Quantised-weight arithmetic: the paper's Zeno-avoidance mechanism."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.weights import DEFAULT_QUANTA_PER_UNIT, Quantization, WeightError


class TestConstruction:
    def test_default_lattice_is_fine(self):
        lattice = Quantization()
        assert lattice.quanta_per_unit == DEFAULT_QUANTA_PER_UNIT
        assert lattice.quantum == 1.0 / DEFAULT_QUANTA_PER_UNIT

    def test_rejects_zero_quanta_per_unit(self):
        with pytest.raises(WeightError):
            Quantization(quanta_per_unit=0)

    def test_rejects_negative_quanta_per_unit(self):
        with pytest.raises(WeightError):
            Quantization(quanta_per_unit=-4)

    def test_rejects_fractional_quanta_per_unit(self):
        with pytest.raises(WeightError):
            Quantization(quanta_per_unit=2.5)

    def test_unit_equals_quanta_per_unit(self):
        assert Quantization(16).unit == 16


class TestConversions:
    def test_to_float(self):
        lattice = Quantization(4)
        assert lattice.to_float(3) == 0.75

    def test_from_float_snaps_to_nearest(self):
        lattice = Quantization(4)
        assert lattice.from_float(0.74) == 3
        assert lattice.from_float(0.76) == 3
        assert lattice.from_float(0.88) == 4

    def test_from_float_rejects_negative(self):
        with pytest.raises(WeightError):
            Quantization(4).from_float(-0.5)

    @given(st.integers(min_value=1, max_value=10**9))
    def test_roundtrip(self, quanta):
        lattice = Quantization(1 << 20)
        assert lattice.from_float(lattice.to_float(quanta)) == quanta


class TestCheck:
    def test_accepts_positive(self):
        assert Quantization(4).check(7) == 7

    def test_rejects_zero(self):
        with pytest.raises(WeightError):
            Quantization(4).check(0)

    def test_rejects_negative(self):
        with pytest.raises(WeightError):
            Quantization(4).check(-1)

    def test_rejects_float(self):
        with pytest.raises(WeightError):
            Quantization(4).check(1.5)


class TestSplit:
    """The paper's ``half``: closest multiple of q to w/2, ties to kept."""

    def test_even_weight_splits_exactly(self):
        assert Quantization(4).split(8) == (4, 4)

    def test_odd_weight_gives_extra_quantum_to_kept(self):
        assert Quantization(4).split(9) == (5, 4)

    def test_single_quantum_cannot_send(self):
        kept, sent = Quantization(4).split(1)
        assert kept == 1
        assert sent == 0

    def test_rejects_zero(self):
        with pytest.raises(WeightError):
            Quantization(4).split(0)

    @given(st.integers(min_value=1, max_value=10**12))
    def test_conservation(self, quanta):
        """Splitting never creates or destroys weight."""
        kept, sent = Quantization().split(quanta)
        assert kept + sent == quanta

    @given(st.integers(min_value=1, max_value=10**12))
    def test_both_shares_closest_to_half(self, quanta):
        """|share - w/2| <= 1/2 quantum for both shares."""
        kept, sent = Quantization().split(quanta)
        assert abs(kept - quanta / 2) <= 0.5
        assert abs(sent - quanta / 2) <= 0.5

    @given(st.integers(min_value=2, max_value=10**12))
    def test_sendable_above_one_quantum(self, quanta):
        _, sent = Quantization().split(quanta)
        assert sent >= 1

    @given(st.integers(min_value=1, max_value=10**6))
    def test_kept_at_least_sent(self, quanta):
        """Ties favour the kept share, so kept >= sent always."""
        kept, sent = Quantization().split(quanta)
        assert kept >= sent


class TestMinimum:
    def test_one_quantum_is_minimum(self):
        assert Quantization(4).is_minimum(1)

    def test_larger_weights_are_not_minimum(self):
        assert not Quantization(4).is_minimum(2)


class TestPopulationBound:
    """The whole network's ``n * unit`` quanta must fit a signed 64-bit sum."""

    def test_default_unit_allows_up_to_2_pow_23_minus_1_nodes(self):
        lattice = Quantization()
        assert lattice.check_population(8_388_607) == 8_388_607
        with pytest.raises(WeightError, match="at most n = 8388607"):
            lattice.check_population(8_388_608)

    def test_coarse_unit_names_the_largest_network(self):
        lattice = Quantization(1 << 62)
        assert lattice.check_population(1) == 1
        with pytest.raises(WeightError, match=r"n = 2 nodes .* at most n = 1 "):
            lattice.check_population(2)
