"""Test-suite configuration shared by every test module."""

# Criterion 9 fits the warped mixture 72 times over the twelve-wafer corpus
# and takes nearly all of the suite's wall time (7.5-8.5 minutes on two
# vCPUs, with the fits running on both); every other test together takes
# under a minute.
_LONG_RUNNING = {"test_criterion_09_directional_comparison"}


def pytest_collection_modifyitems(config, items):
    """Run the long-running comparison last, so that a run cut short by a
    time limit has still reported every other test."""
    items.sort(key=lambda item: item.name in _LONG_RUNNING)
