"""Pattern extraction: the LCS + SequenceMatcher core of Fig. 2.

Given a pair of vulnerable samples ``(v_i, v_j)`` and their safe
counterparts ``(s_i, s_j)``:

1. standardize all four snippets with the named entity tagger;
2. compute the token-level LCS of the standardized vulnerable pair
   (``LCS_v``) and of the safe pair (``LCS_s``) — the bold text of
   Table I;
3. diff ``(LCS_v, LCS_s)`` with ``difflib.SequenceMatcher`` to isolate the
   *additional* safe fragments — the blue text of Table I that becomes the
   patch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.exceptions import MiningError
from repro.standardize import standardize
from repro.textutils.diffing import DiffFragment, extract_additions
from repro.textutils.lcs import lcs_tokens, similarity_ratio
from repro.textutils.tokenizer import detokenize, tokenize


@dataclass(frozen=True)
class MinedPattern:
    """Outcome of mining one (vulnerable, safe) pair of pairs."""

    lcs_vulnerable: Tuple[str, ...]
    lcs_safe: Tuple[str, ...]
    fragments: Tuple[DiffFragment, ...]
    vulnerable_similarity: float
    safe_similarity: float

    @property
    def lcs_vulnerable_text(self) -> str:
        """LCS_v rendered back to readable text."""
        return detokenize(_as_tokens(self.lcs_vulnerable))

    @property
    def lcs_safe_text(self) -> str:
        """LCS_s rendered back to readable text."""
        return detokenize(_as_tokens(self.lcs_safe))


def _token_texts(source: str) -> List[str]:
    return [t.text for t in tokenize(source)]


def _as_tokens(texts: Tuple[str, ...]):
    from repro.textutils.tokenizer import Token, TokenKind

    return [Token(TokenKind.NAME, text, 0, 0) for text in texts]


def standardized_tokens(source: str) -> List[str]:
    """Standardize a snippet and return its token texts."""
    return _token_texts(standardize(source).text)


def extract_pattern(
    vulnerable_a: str,
    vulnerable_b: str,
    safe_a: str,
    safe_b: str,
    min_lcs_tokens: int = 4,
) -> MinedPattern:
    """Run the full standardize → LCS → diff pipeline on one pair of pairs."""
    tokens_va = standardized_tokens(vulnerable_a)
    tokens_vb = standardized_tokens(vulnerable_b)
    tokens_sa = standardized_tokens(safe_a)
    tokens_sb = standardized_tokens(safe_b)

    lcs_v = lcs_tokens(tokens_va, tokens_vb)
    lcs_s = lcs_tokens(tokens_sa, tokens_sb)
    if len(lcs_v) < min_lcs_tokens or len(lcs_s) < min_lcs_tokens:
        raise MiningError(
            f"common pattern too short (|LCS_v|={len(lcs_v)}, |LCS_s|={len(lcs_s)})"
        )

    fragments = tuple(extract_additions(list(lcs_v), list(lcs_s)))
    return MinedPattern(
        lcs_vulnerable=tuple(lcs_v),
        lcs_safe=tuple(lcs_s),
        fragments=fragments,
        vulnerable_similarity=similarity_ratio(tokens_va, tokens_vb),
        safe_similarity=similarity_ratio(tokens_sa, tokens_sb),
    )
