import pytest

from attopmm.io import default_scenario_path, load_scenario


@pytest.fixture(scope="session")
def scenario():
    return load_scenario(default_scenario_path())


def pytest_runtest_logreport(report):
    if report.when == "call" and "test_acceptance.py" in report.nodeid:
        name = report.nodeid.split("::")[-1]
        print(f"\n[acceptance] {name}: {report.outcome.upper()}")
