"""pytest plugin: every test runs with the pricing path's memos off.

Applies the ``memos_off`` fixture of ``tests/conftest.py`` to each test,
so a pin tier replayed under it shows that no memo moves a price or a
digest::

    python -m pytest -p tests.memos_off_plugin tests/test_risk_pinned.py
"""

import pytest


@pytest.fixture(autouse=True)
def _memos_off_everywhere(memos_off):
    yield
