"""Benchmark fixtures.

Every bench regenerates one of the paper's tables or figures; the rows
are printed to the terminal *and* written to ``benchmarks/out/`` so the
paper-vs-measured record (which figure or table row each function
reproduces is mapped in ``docs/paper_mapping.md``) can be assembled
from artifacts.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.process import CMOS12

OUT_DIR = pathlib.Path(__file__).parent / "out"


@pytest.fixture(scope="session")
def tech():
    return CMOS12


@pytest.fixture(scope="session")
def report_dir():
    OUT_DIR.mkdir(exist_ok=True)
    return OUT_DIR


@pytest.fixture
def save_report(report_dir, request):
    """Write a named text artifact and echo it to the terminal."""

    def _save(name: str, text: str) -> None:
        path = report_dir / f"{name}.txt"
        path.write_text(text + "\n")
        print(f"\n===== {name} =====\n{text}\n")

    return _save
