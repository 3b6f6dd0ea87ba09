"""Repo-wide pytest options (the per-suite fixtures live in each suite's conftest)."""


def pytest_addoption(parser):
    # Registered here rather than in benchmarks/conftest.py so the flag is
    # known whichever directory pytest is pointed at.
    parser.addoption(
        "--exhibits-out",
        metavar="PATH",
        default=None,
        help="also write the exhibits printed by benchmarks/ to PATH (truncated first)",
    )
