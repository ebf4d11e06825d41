"""Rules shared between tools/determinism_lint.py and tools/analyzer.

The publication-order rule used to live inline in the determinism lint;
it now has exactly one implementation here. Both tools call
``check_publication_order`` and wrap the returned (line, message) pairs
in their own finding types (each applies its own suppression syntax).

The rule guards the publication proof obligation in
``src/service/matching_service.cpp``: the writer must publish the
snapshot pointer (``latest_``) *before* release-storing the epoch counter
(``published_epoch_``) — a reader that observes epoch >= e is then
guaranteed to observe snapshot e when it fetches the pointer. The code
marks the pair with ``publication-order[1]`` / ``publication-order[2]``
comments; the rule checks the markers exist, appear in order, and each
sits immediately above the matching store. The snapshot store is either
an atomic ``latest_.store(..., std::memory_order_release)`` or a write to
a mutex-guarded slot (``latest_ = ...`` / ``latest_.swap(...)`` under a
``MutexLock`` opened right below the marker), whose unlock is the release.
"""

from __future__ import annotations

import re

RULE_NAME = "publication-order"

SLOT_WRITE_RE = re.compile(r"\blatest_\s*(?:=(?!=)|\.swap\s*\()")


def _is_release_store(stmt: str, want: str) -> bool:
    return f"{want}.store" in stmt and "std::memory_order_release" in stmt


def _is_locked_slot_write(stmt: str) -> bool:
    return "MutexLock" in stmt and SLOT_WRITE_RE.search(stmt) is not None


def check_publication_order(
    raw_lines: list[str], lines: list[str]
) -> list[tuple[int, str]]:
    """Returns (0-based line index, message) pairs for a service-subsystem
    file. ``raw_lines`` carry the comments (the markers live there);
    ``lines`` are the comment/string-stripped twin used to match the actual
    stores."""
    if not any("published_epoch_.store" in line for line in lines):
        return []
    findings: list[tuple[int, str]] = []
    marker1 = marker2 = None
    for idx, raw in enumerate(raw_lines):
        if "publication-order[1]" in raw:
            marker1 = idx
        if "publication-order[2]" in raw:
            marker2 = idx
    if marker1 is None or marker2 is None:
        findings.append(
            (
                0,
                "file release-stores published_epoch_ but lacks the "
                "publication-order[1]/[2] proof markers (see "
                "docs/static_analysis.md)",
            )
        )
    elif marker1 >= marker2:
        findings.append(
            (
                marker2,
                "publication-order[2] (epoch store) precedes "
                "publication-order[1] (snapshot store): the snapshot must "
                "be release-stored first",
            )
        )
    else:
        if not (
            _is_release_store("\n".join(lines[marker1 + 1 : marker1 + 3]), "latest_")
            or _is_locked_slot_write("\n".join(lines[marker1 + 1 : marker1 + 4]))
        ):
            findings.append(
                (
                    marker1,
                    "publication-order[1] must be immediately followed by "
                    "latest_.store(..., std::memory_order_release) or a "
                    "MutexLock-guarded latest_ write",
                )
            )
        if not _is_release_store(
            "\n".join(lines[marker2 + 1 : marker2 + 3]), "published_epoch_"
        ):
            findings.append(
                (
                    marker2,
                    "publication-order[2] must be immediately followed by "
                    "published_epoch_.store(..., std::memory_order_release)",
                )
            )
    return findings
