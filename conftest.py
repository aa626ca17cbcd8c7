"""Repository-wide pytest options (a root conftest, so any invocation sees them)."""

from __future__ import annotations


def pytest_addoption(parser) -> None:
    parser.addoption(
        "--write-baseline",
        action="store_true",
        default=False,
        help=(
            "write benchmark results over the committed files in benchmarks/results/ "
            "instead of the untracked benchmarks/results/run/"
        ),
    )
