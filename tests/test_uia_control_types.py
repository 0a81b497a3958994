"""Tests for the UIA control-type catalogue."""

import pytest

from repro.uia.control_types import (
    CLICKABLE_CONTROL_TYPES,
    CONTAINER_CONTROL_TYPES,
    ControlType,
    KEY_CONTROL_TYPES,
    NON_NAVIGATING_CONTROL_TYPES,
    all_control_types,
    control_type_of,
    is_clickable_type,
    is_container_type,
)


def test_there_are_41_control_types():
    # UIA defines exactly 41 control types (paper Insight #3).
    assert len(all_control_types()) == 41


def test_control_type_values_are_unique():
    values = [t.value for t in ControlType]
    assert len(values) == len(set(values))


def test_control_type_round_trip_from_string():
    for control_type in ControlType:
        assert ControlType(control_type.value) is control_type


def test_control_type_of_matches_the_enum_call():
    for control_type in ControlType:
        assert control_type_of(control_type.value) is control_type
        assert control_type_of(control_type) is control_type


@pytest.mark.parametrize("value", ["Widget", "BUTTON", "", None, ["Button"]])
def test_control_type_of_rejects_what_the_enum_call_rejects(value):
    with pytest.raises(ValueError):
        ControlType(value)
    with pytest.raises(ValueError, match="not a valid ControlType"):
        control_type_of(value)


def test_key_types_are_valid_control_types():
    assert KEY_CONTROL_TYPES <= set(ControlType)


def test_button_is_clickable_but_not_container():
    assert is_clickable_type(ControlType.BUTTON)
    assert not is_container_type(ControlType.BUTTON)


def test_window_is_container():
    assert is_container_type(ControlType.WINDOW)


def test_text_is_non_navigating():
    assert ControlType.TEXT in NON_NAVIGATING_CONTROL_TYPES
    assert not is_clickable_type(ControlType.TEXT)


def test_clickable_and_container_sets_do_not_cover_everything():
    # CUSTOM and DOCUMENT (among others) are in neither helper set.
    neither = set(ControlType) - CLICKABLE_CONTROL_TYPES - CONTAINER_CONTROL_TYPES
    assert ControlType.CUSTOM in neither


def test_string_representation_matches_value():
    assert str(ControlType.TAB_ITEM) == "TabItem"
