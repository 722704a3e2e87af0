"""Each test starts with an empty memo of `order.kept`'s equal values, so no
value another test built answers a build in this one."""

import pytest

from doctrines import order


@pytest.fixture(autouse=True)
def no_equal_values_from_other_tests():
    order._SHARED.clear()
