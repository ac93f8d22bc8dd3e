import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--stretch",
        action="store_true",
        default=False,
        help="also run the stretch-scale cases (about 20 s)",
    )


def pytest_collection_modifyitems(config, items):
    if config.getoption("--stretch"):
        return
    skip = pytest.mark.skip(reason="stretch scale; pass --stretch to run")
    for item in items:
        if "stretch" in item.keywords:
            item.add_marker(skip)
