import pytest
from hypothesis import given
from hypothesis import strategies as st

from nearness.domain import (
    MS_PER_DAY,
    MS_PER_HOUR,
    MS_PER_MINUTE,
    DomainError,
    canonical_pair,
    day_index,
    hour_slot,
    minute_index,
    validate_node_id,
)

node_ids = st.text(
    alphabet=st.characters(blacklist_characters=",\n\r", min_codepoint=33, max_codepoint=126),
    min_size=1, max_size=64)


class TestCanonicalPair:
    def test_orders_reversed_arguments(self):
        assert canonical_pair("delta5", "bravo2") == ("bravo2", "delta5")

    def test_keeps_already_ordered(self):
        assert canonical_pair("bravo2", "delta5") == ("bravo2", "delta5")

    def test_equal_ids_rejected(self):
        with pytest.raises(DomainError):
            canonical_pair("A", "A")

    @given(node_ids, node_ids)
    def test_symmetric_and_idempotent(self, a, b):
        if a == b:
            return
        pair = canonical_pair(a, b)
        assert pair == canonical_pair(b, a)
        assert pair == canonical_pair(*pair)
        assert pair[0] < pair[1]


class TestNodeIdValidation:
    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            validate_node_id("")

    def test_comma_rejected(self):
        with pytest.raises(DomainError):
            validate_node_id("a,b")

    def test_too_long_rejected(self):
        with pytest.raises(DomainError):
            validate_node_id("x" * 65)

    def test_max_length_accepted(self):
        assert validate_node_id("x" * 64) == "x" * 64


class TestTickArithmetic:
    def test_minute_hour_day_examples(self):
        t = 2 * MS_PER_DAY + 5 * MS_PER_HOUR + 3 * MS_PER_MINUTE + 999
        assert minute_index(t) == 2 * 1440 + 5 * 60 + 3
        assert hour_slot(t) == 5
        assert day_index(t) == 2

    @given(st.integers(min_value=0, max_value=10 ** 12))
    def test_decomposition_recomposes_below_t(self, t):
        assert day_index(t) * MS_PER_DAY + hour_slot(t) * MS_PER_HOUR <= t
        assert minute_index(t) * MS_PER_MINUTE <= t
        assert hour_slot(t) == (minute_index(t) // 60) % 24

