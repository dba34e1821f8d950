"""Patch application: ordered span replacement plus import insertion.

Patches are applied back-to-front so earlier spans stay valid; when two
patches target overlapping spans the earlier (higher-priority, catalog
order) one wins and the other is reported as skipped rather than silently
corrupting the file.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

from repro.core.imports import ImportManager
from repro.types import Patch


@dataclass
class AppliedPatches:
    """Outcome of :func:`apply_patches`."""

    source: str
    applied: List[Patch] = field(default_factory=list)
    skipped: List[Patch] = field(default_factory=list)

    @property
    def changed(self) -> bool:
        """True when at least one patch was applied."""
        return bool(self.applied)


def apply_patches(source: str, patches: Sequence[Patch]) -> AppliedPatches:
    """Apply ``patches`` to ``source``, returning the new text and outcome."""
    accepted, skipped = _resolve_overlaps(patches)
    text = source
    for patch in sorted(accepted, key=lambda p: p.span.start, reverse=True):
        text = text[: patch.span.start] + patch.replacement + text[patch.span.end :]
    all_imports: List[str] = []
    for patch in accepted:
        for statement in patch.new_imports:
            if statement not in all_imports:
                all_imports.append(statement)
    if all_imports:
        text = ImportManager(text).insert(all_imports)
    return AppliedPatches(source=text, applied=list(accepted), skipped=list(skipped))


def _resolve_overlaps(patches: Sequence[Patch]) -> Tuple[List[Patch], List[Patch]]:
    accepted: List[Patch] = []
    skipped: List[Patch] = []
    # The accepted spans as sorted (start, end) pairs.  They never
    # overlap, so their ends rise with their starts, and of those that
    # start before a span ends, the last reaches furthest.
    taken: List[Tuple[int, int]] = []
    for patch in patches:
        start, end = patch.span.start, patch.span.end
        before = bisect_left(taken, (end,))
        if before and taken[before - 1][1] > start:
            skipped.append(patch)
        else:
            accepted.append(patch)
            insort(taken, (start, end))
    return accepted, skipped
