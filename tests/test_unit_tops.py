"""The one branch loop of ``_MISEngine`` keeps class tops only under
vertex weights: a unit search never reads ``_heaviest``, which keeps it as
cheap as a loop written for unit weights alone."""

from unittest import mock

import pytest

from shancap.solvers import _MISEngine
from test_engine import GOLDEN

UNIT_CALLS = {"C7^2": GOLDEN[0], "kings7x2": GOLDEN[4]}


def _no_tops(eng, cls):
    raise AssertionError("a unit search read a class top")


@pytest.mark.parametrize("name", sorted(UNIT_CALLS))
def test_unit_searches_keep_no_tops(name):
    call, expected = UNIT_CALLS[name]
    with mock.patch.object(_MISEngine, "_heaviest", _no_tops):
        assert call() == expected
