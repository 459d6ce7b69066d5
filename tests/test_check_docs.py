"""`tools/check_docs.py`: every emitted event is named in the architecture doc."""

import importlib.util
import pathlib

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def _load_tool():
    spec = importlib.util.spec_from_file_location(
        "check_docs", REPO_ROOT / "tools" / "check_docs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_emitted_events_include_the_solver_wrapper_names():
    names = _load_tool().emitted_events()
    assert {"dc.jacobian_singular", "dc.dense_latch",
            "dc.strategy_escalation", "dc.nonconvergence"} <= names


def test_every_emitted_event_is_documented():
    tool = _load_tool()
    doc = (REPO_ROOT / "docs" / "architecture.md").read_text()
    assert tool.undocumented_events(tool.emitted_events(), doc) == []


def test_a_dropped_row_is_reported():
    tool = _load_tool()
    doc = "| `dc.dense_latch` | warn |\n"
    assert tool.undocumented_events({"dc.dense_latch", "dc.jacobian_singular"},
                                    doc) == ["dc.jacobian_singular"]


def test_repo_paths_are_read_from_code_spans_only():
    text = ("See `src/repro/spice/dc.py:415` and `tests/spice/test_dc.py::"
            "TestDcSweep`, not `repro.spice.dc` or `PYTHONPATH=src`.\n"
            "```\ntools/not_a_span.py\n`examples/fenced.py`\n```\n")
    assert list(_load_tool().iter_repo_paths(text)) == [
        "src/repro/spice/dc.py", "tests/spice/test_dc.py"]


def test_repo_path_exists_for_files_and_globs():
    tool = _load_tool()
    assert tool.repo_path_exists("tools/check_docs.py")
    assert tool.repo_path_exists("tests/spice/test_*.py")
    assert not tool.repo_path_exists("tests/ingest/test_keys.py")
    assert not tool.repo_path_exists("tests/spice/test_nothing_*.py")


def test_every_repo_path_in_the_docs_exists():
    tool = _load_tool()
    docs = [REPO_ROOT / "README.md", *sorted((REPO_ROOT / "docs").glob("*.md"))]
    assert [err for doc in docs for err in tool.missing_paths(doc)] == []


def test_gitignored_output_dirs_are_skipped():
    assert "tests/paper/out/" in _load_tool().ignored_dirs()
