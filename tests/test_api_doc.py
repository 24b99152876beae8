"""docs/api.md lists each package's ``__all__``, no more and no less.

Every bold name in a list item under a ``## `package` `` heading must
be exported by that package, and every exported name must be listed,
so a deleted or added export cannot leave the reference stale.
"""

from __future__ import annotations

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import repro

API_DOC = Path(__file__).resolve().parents[1] / "docs" / "api.md"
_HEADING = re.compile(r"^## `([\w.]+)`[ \t]*$", re.MULTILINE)
_NAME = re.compile(r"\*\*`([^`]+)`\*\*")


def _documented() -> dict[str, set[str]]:
    parts = _HEADING.split(API_DOC.read_text(encoding="utf-8"))
    sections: dict[str, set[str]] = {}
    for package, body in zip(parts[1::2], parts[2::2]):
        names = sections.setdefault(package, set())
        for line in body.splitlines():
            if line.startswith("- "):
                # Names come before the em dash; the text after it is prose.
                names.update(_NAME.findall(line.split(" — ", 1)[0]))
    return sections


SECTIONS = _documented()


@pytest.mark.parametrize("package", sorted(SECTIONS))
def test_section_matches_dunder_all(package):
    exported = set(importlib.import_module(package).__all__)
    listed = SECTIONS[package]
    assert sorted(exported - listed) == [], "exported but not in docs/api.md"
    assert sorted(listed - exported) == [], "in docs/api.md but not exported"


def test_every_package_has_a_section():
    packages = ["repro"] + [
        f"repro.{info.name}"
        for info in pkgutil.iter_modules(repro.__path__)
        if info.ispkg
    ]
    assert sorted(set(packages) - set(SECTIONS)) == []
