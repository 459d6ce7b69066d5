#!/usr/bin/env python
"""Fail CI on broken intra-repo links and undocumented events and spans.

Scans ``README.md`` and ``docs/*.md`` for markdown links/images and
verifies that every *relative* target (no scheme, no mailto) exists on
disk, resolved against the file containing the link. Anchors are
stripped (``file.md#section`` checks ``file.md``); ``http(s)://`` links
are ignored — CI must not depend on the network.  Every backticked
``tests/…``, ``src/…``, ``tools/…`` or ``examples/…`` path in those files
must exist too, resolved against the repo root; a ``:line`` or ``::test``
suffix is dropped, a glob pattern passes if it matches something, and a
path under a directory that ``.gitignore`` lists (test and build output,
absent from a fresh checkout) is skipped.

Also fails when an ``event("<name>"`` or ``span("<name>"`` literal under
``src/`` is not named (in backticks) in ``docs/architecture.md``, so an
event or a span cannot drop out of the taxonomy there unnoticed.

Usage::

    python tools/check_docs.py [files...]     # default: README.md docs/*.md
"""

from __future__ import annotations

import pathlib
import re
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

# [text](target) and ![alt](target); stops at the first unescaped ')'.
_LINK_RE = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
# Inline/fenced code spans can contain "[x](y)"-shaped text that is not
# a link (e.g. numpy slices in code examples).
_FENCE_RE = re.compile(r"```.*?```", re.DOTALL)
_CODE_RE = re.compile(r"`[^`]*`")
# A code span that is a repo path, e.g. `src/repro/spice/dc.py:415`.
_PATH_RE = re.compile(r"^(?:tests|src|tools|examples)/\S*$")
_SUFFIX_RE = re.compile(r"(?:::.*|:\d[\d,-]*)$")
# event("name", ...) and the solver wrapper _solver_event("name", ...).
_EVENT_RE = re.compile(r'event\(\s*"([^"]+)"')
# with span("name", ...).
_SPAN_RE = re.compile(r'\bspan\(\s*"([^"]+)"')


def iter_links(text: str):
    cleaned = _CODE_RE.sub("", _FENCE_RE.sub("", text))
    for match in _LINK_RE.finditer(cleaned):
        yield match.group(1)


def check_file(path: pathlib.Path) -> list[str]:
    errors = []
    for target in iter_links(path.read_text()):
        if re.match(r"^[a-zA-Z][a-zA-Z0-9+.-]*:", target):
            continue                        # http:, https:, mailto:, ...
        bare = target.split("#", 1)[0]
        if not bare:
            continue                        # pure in-page anchor
        resolved = (path.parent / bare).resolve()
        if not resolved.exists():
            errors.append(f"{path.relative_to(REPO_ROOT)}: broken link -> {target}")
    return errors


def iter_repo_paths(text: str):
    """Repo paths named in inline code spans, ``:line``/``::test`` dropped."""
    for span in _CODE_RE.findall(_FENCE_RE.sub("", text)):
        span = span.strip("`")
        if _PATH_RE.match(span):
            yield _SUFFIX_RE.sub("", span)


def repo_path_exists(path: str) -> bool:
    """Whether ``path`` (a glob pattern: any match) exists in the repo."""
    if any(c in path for c in "*?["):
        return next(REPO_ROOT.glob(path), None) is not None
    return (REPO_ROOT / path).exists()


def ignored_dirs() -> tuple[str, ...]:
    """The directory entries of ``.gitignore``, e.g. ``tests/paper/out/``."""
    lines = (REPO_ROOT / ".gitignore").read_text().split()
    return tuple(line for line in lines if line.endswith("/"))


def missing_paths(path: pathlib.Path) -> list[str]:
    skip = ignored_dirs()
    return [f"{path.relative_to(REPO_ROOT)}: no such repo path -> {name}"
            for name in iter_repo_paths(path.read_text())
            if not name.startswith(skip) and not repo_path_exists(name)]


def _emitted(pattern: re.Pattern) -> set[str]:
    return {match.group(1)
            for path in (REPO_ROOT / "src").rglob("*.py")
            for match in pattern.finditer(path.read_text())}


def emitted_events() -> set[str]:
    """Names of every ``event("<name>"`` literal under ``src/``."""
    return _emitted(_EVENT_RE)


def emitted_spans() -> set[str]:
    """Names of every ``span("<name>"`` literal under ``src/``."""
    return _emitted(_SPAN_RE)


def undocumented_events(names: set[str], doc_text: str) -> list[str]:
    """The ``names`` that ``doc_text`` does not mention in backticks."""
    return sorted(name for name in names if f"`{name}`" not in doc_text)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv:
        files = [pathlib.Path(a).resolve() for a in argv]
    else:
        files = [REPO_ROOT / "README.md", *sorted((REPO_ROOT / "docs").glob("*.md"))]
    missing = [f for f in files if not f.exists()]
    if missing:
        for f in missing:
            print(f"ERROR: no such file {f}")
        return 1
    errors: list[str] = []
    checked = 0
    for f in files:
        errors.extend(check_file(f))
        errors.extend(missing_paths(f))
        checked += 1
    broken = len(errors)
    arch_text = (REPO_ROOT / "docs" / "architecture.md").read_text()
    names = {"event": emitted_events(), "span": emitted_spans()}
    for kind, emitted in names.items():
        errors.extend(f"docs/architecture.md: {kind} {name!r} is emitted "
                      f"under src/ but not documented"
                      for name in undocumented_events(emitted, arch_text))
    for err in errors:
        print(f"ERROR: {err}")
    print(f"checked {checked} file(s), {len(names['event'])} event(s) and "
          f"{len(names['span'])} span(s): {'FAIL' if errors else 'ok'} "
          f"({broken} broken link(s) or path(s), "
          f"{len(errors) - broken} undocumented event(s) or span(s))")
    return 1 if errors else 0


if __name__ == "__main__":
    raise SystemExit(main())
