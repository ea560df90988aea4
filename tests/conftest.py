"""Session fixtures.

The exhaustive scans are the expensive shared artifacts (n=5 certifies the
radii and invariants of 5,048 classes), so each order is scanned once per
session and reused by every test that needs it.  The alpha set is the union
of all grids the tests use.
"""
import pytest

from alphaspec import oracle

SCAN_ALPHAS = (0.0, 0.25, 0.3, 0.5, 0.7, 0.75)


@pytest.fixture(scope="session")
def scan2():
    return oracle.run_scan(2, SCAN_ALPHAS)


@pytest.fixture(scope="session")
def scan3():
    return oracle.run_scan(3, SCAN_ALPHAS)


@pytest.fixture(scope="session")
def scan4():
    return oracle.run_scan(4, SCAN_ALPHAS)


@pytest.fixture(scope="session")
def scan5():
    return oracle.run_scan(5, SCAN_ALPHAS)


@pytest.fixture(scope="session")
def scans(scan2, scan3, scan4, scan5):
    return {2: scan2, 3: scan3, 4: scan4, 5: scan5}
