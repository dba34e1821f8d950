"""Safe-fragment extraction via ``difflib.SequenceMatcher`` (§II-A).

After mining the common vulnerable pattern ``LCS_v`` and the common safe
pattern ``LCS_s`` for a sample pair, the paper compares the two with
``SequenceMatcher`` to pull out the *additional* parts of code present only
in the safe side — the blue fragments of Table I that become the patch.
"""

from __future__ import annotations

from dataclasses import dataclass
from difflib import SequenceMatcher
from typing import List, Sequence, Tuple


@dataclass(frozen=True)
class DiffFragment:
    """One contiguous run of tokens inserted or replaced on the safe side.

    ``anchor_before``/``anchor_after`` hold the unchanged context tokens
    around the fragment — the hooks a patch template uses to locate where
    the safe addition belongs inside the vulnerable pattern.
    """

    kind: str  # "insert" or "replace"
    vulnerable_tokens: Tuple[str, ...]
    safe_tokens: Tuple[str, ...]
    anchor_before: Tuple[str, ...]
    anchor_after: Tuple[str, ...]

    @property
    def added_text(self) -> str:
        """The fragment's safe tokens joined with spaces."""
        return " ".join(self.safe_tokens)


def extract_additions(
    vulnerable: Sequence[str],
    safe: Sequence[str],
    context: int = 3,
) -> List[DiffFragment]:
    """Fragments present in ``safe`` but not in ``vulnerable``.

    ``context`` caps how many unchanged tokens are kept as anchors on each
    side of a fragment.
    """
    matcher = SequenceMatcher(a=list(vulnerable), b=list(safe), autojunk=False)
    fragments: List[DiffFragment] = []
    for tag, i1, i2, j1, j2 in matcher.get_opcodes():
        if tag in ("equal", "delete"):
            continue
        before = tuple(vulnerable[max(0, i1 - context) : i1])
        after = tuple(vulnerable[i2 : i2 + context])
        fragments.append(
            DiffFragment(
                kind=tag,
                vulnerable_tokens=tuple(vulnerable[i1:i2]),
                safe_tokens=tuple(safe[j1:j2]),
                anchor_before=before,
                anchor_after=after,
            )
        )
    return fragments


def opcode_summary(vulnerable: Sequence[str], safe: Sequence[str]) -> List[Tuple[str, int, int]]:
    """Compact opcode view ``(tag, vulnerable_len, safe_len)`` for reports."""
    matcher = SequenceMatcher(a=list(vulnerable), b=list(safe), autojunk=False)
    return [(tag, i2 - i1, j2 - j1) for tag, i1, i2, j1, j2 in matcher.get_opcodes()]
