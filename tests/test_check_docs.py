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
