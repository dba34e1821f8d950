"""The patch path grows near-linearly with its input.

Patching concatenated AI snippets used to grow far faster than detect:
the verifier built a fresh ``ImportManager`` of the original (a
string-literal scan plus, for every import-shaped line, a linear walk
over every string span) for each patch that adds imports, and
``prune_unused_imports`` rebuilt the whole text minus one line for each
import line.  One 256 KiB ``/v1/analyze`` with ``patch`` held a pool
thread for minutes.  Now the verifier derives the original's imports and
bindings once, span lookups bisect, pruning searches from the line's
end, overlap resolution bisects the accepted spans, and the import
placement masks each comment once.

Each rewrite is held to what it replaced: the old implementations live
below as oracles, on their own (Hypothesis) and together (the whole
``patch()`` outcome on the corpus and on detect's mutation strategy).
The growth test times n and 4n and asserts near-linear growth rather
than a wall-clock cap.
"""

from __future__ import annotations

import random
import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import imports, patcher
from repro.core.engine import PatchitPy
from repro.core.imports import string_spans
from repro.core.verify import PatchVerifier, _Bindings
from repro.generators import generate_all_models
from repro.types import Patch, Span
from tests.test_candidates import mutated_samples


def old_offset_in_spans(offset, spans):
    return any(start <= offset < end for start, end in spans)


def old_used_outside(source, name, start, end, _first_use):
    """Whether the text rebuilt without ``[start, end)`` uses ``name``."""
    rest = source[:start] + source[end:]
    return bool(re.search(rf"(?<![\w.]){re.escape(name)}(?![\w])", rest))


def old_blank_strings_and_comments(text, spans):
    """Matched a comment from every ``#`` outside the literals, those
    inside an earlier comment too: n²/2 steps for a line of n ``#``."""
    masked = [(start, min(end, len(text)), '"') for start, end in spans if start < len(text)]
    for mark in re.finditer("#", text):
        at = mark.start()
        if not old_offset_in_spans(at, spans):
            masked.append((at, re.compile(r"#[^\r\n]*").match(text, at).end(), " "))
    masked.sort()
    pieces, pos = [], 0
    for start, end, lead in masked:
        if start < pos:
            continue  # a "#" inside a comment
        pieces += (text[pos:start], lead, " " * (end - start - 1))
        pos = end
    pieces.append(text[pos:])
    return "".join(pieces)


def old_resolve_overlaps(patches):
    accepted, skipped = [], []
    for patch in patches:
        if any(patch.span.overlaps(existing.span) for existing in accepted):
            skipped.append(patch)
        else:
            accepted.append(patch)
    return accepted, skipped


def _outcome(result):
    return (
        result.patched,
        [(p.rule_id, p.span, p.replacement, p.new_imports) for p in result.applied],
        [(p.rule_id, p.span) for p in result.skipped],
        [v.to_dict() for v in result.verdicts],
    )


def _swap_in_the_old_path(mp):
    """Every rewritten piece of the patch path replaced by its oracle."""
    mp.setattr(imports, "_offset_in_spans", old_offset_in_spans)
    mp.setattr(imports, "_used_outside", old_used_outside)
    mp.setattr(imports, "_blank_strings_and_comments", old_blank_strings_and_comments)
    mp.setattr(patcher, "_resolve_overlaps", old_resolve_overlaps)
    mp.setattr(
        PatchVerifier, "_bindings_of_original", lambda self, original: _Bindings(original)
    )


QUOTED = st.text(alphabet="'\"\\#\nrbx =", max_size=60)


@settings(max_examples=300, deadline=None)
@given(text=QUOTED)
def test_span_lookup_agrees_with_a_scan(text):
    spans = string_spans(text)
    for offset in range(len(text) + 1):
        assert imports._offset_in_spans(offset, spans) == old_offset_in_spans(
            offset, spans
        ), offset


@settings(max_examples=300, deadline=None)
@given(text=st.text(alphabet="os.x_\n\r\x0c ()", max_size=60))
def test_use_outside_a_line_agrees_with_the_rebuilt_text(text):
    first_use = {}
    offset = 0
    for line in text.splitlines(keepends=True):
        start, offset = offset, offset + len(line)
        for name in ("os", "x", "(x", "o"):
            assert imports._used_outside(
                text, name, start, offset, first_use
            ) == old_used_outside(text, name, start, offset, None), (name, start)


@settings(max_examples=300, deadline=None)
@given(text=QUOTED, cut=st.integers(0, 60))
def test_comment_masking_agrees_with_the_old_loop(text, cut):
    # the placement masks a prefix of the text with the whole text's spans
    spans = string_spans(text)
    region = text[:cut]
    assert imports._blank_strings_and_comments(
        region, spans
    ) == old_blank_strings_and_comments(region, spans)


SPANS = st.lists(
    st.tuples(st.integers(0, 30), st.integers(0, 6)).map(
        lambda pair: Span(pair[0], pair[0] + pair[1])
    ),
    max_size=25,
)


@settings(max_examples=300, deadline=None)
@given(spans=SPANS)
def test_overlap_resolution_agrees_with_the_pairwise_check(spans):
    patches = [Patch("R", "CWE-0", span, "x") for span in spans]
    assert patcher._resolve_overlaps(patches) == old_resolve_overlaps(patches)


def test_patch_outcomes_match_the_old_path_on_the_corpus(flat_samples):
    engine = PatchitPy()
    sources = [sample.source for sample in flat_samples]
    new = [_outcome(engine.patch(source)) for source in sources]
    with pytest.MonkeyPatch.context() as mp:
        _swap_in_the_old_path(mp)
        old = [_outcome(engine.patch(source)) for source in sources]
    for sample, got, expected in zip(flat_samples, new, old):
        assert got == expected, sample.sample_id


def test_patch_outcomes_match_the_old_path_on_mutations(flat_samples):
    engine = PatchitPy()

    @settings(max_examples=150, deadline=None)
    @given(source=mutated_samples([sample.source for sample in flat_samples]))
    def check(source):
        got = _outcome(engine.patch(source))
        with pytest.MonkeyPatch.context() as mp:
            _swap_in_the_old_path(mp)
            assert got == _outcome(engine.patch(source))

    check()


def _import_carrying_snippets(engine):
    """Distinct corpus snippets whose patches add an import, shuffled:
    the ones that exercised the verifier's and the pruner's growth."""
    seen = {}
    for seed in (42, 43, 44):
        for samples in generate_all_models(seed).values():
            for sample in samples:
                seen.setdefault(sample.source, None)
    pool = [
        source
        for source in seen
        if any(
            patch.new_imports
            for patch in engine.render_patches(source, engine.detect(source))
        )
    ]
    random.Random(7).shuffle(pool)
    return pool


def _concatenated(pool, size):
    parts, length = [], 0
    for source in pool:
        if length >= size:
            break
        parts.append(source)
        length += len(source) + 1
    assert length >= size, "snippet pool too small"
    return "\n".join(parts)


def _best_of_5(engine, text):
    best = float("inf")
    for _ in range(5):
        started = time.perf_counter()
        engine.patch(text)
        best = min(best, time.perf_counter() - started)
    return best


def _assert_grows_near_linearly(engine, texts):
    """Each text is about 4x the one before; its patch may cost about
    4x, and fails the first step that costs 8x or more."""
    times = [_best_of_5(engine, texts[0])]
    for text in texts[1:]:
        times.append(_best_of_5(engine, text))
        assert times[-1] / times[-2] < 8, [
            (len(text), seconds) for text, seconds in zip(texts, times)
        ]


def test_patching_concatenated_snippets_grows_near_linearly():
    """4x the input may cost about 4x, never the 10x-20x it used to.

    The sizes climb in 4x steps from 4 KiB, so a super-linear patch path
    fails at its first step in seconds instead of running for minutes at
    the last one.
    """
    engine = PatchitPy()
    pool = _import_carrying_snippets(engine)
    sizes = (4 * 1024, 16 * 1024, 64 * 1024)
    _assert_grows_near_linearly(engine, [_concatenated(pool, size) for size in sizes])


def test_unclosed_parenthesized_imports_grow_near_linearly():
    """An unclosed ``from m import (`` reads its names no further than
    the next one's ``(``.  No corpus snippet holds a parenthesized
    import, so the test above cannot see a walk that runs on to the end
    of the text for each of them: 4x the lines cost 16x."""
    engine = PatchitPy()
    texts = [
        "from m import (\n" * lines + "x = pickle.loads(b)\n"
        for lines in (256, 1024, 4096)
    ]
    _assert_grows_near_linearly(engine, texts)


def test_a_long_comment_above_the_imports_grows_near_linearly():
    """A use before the last import makes the import placement mask the
    comments above that import.  Each comment is masked once: matching
    one from every ``#`` in it made a line of n ``#`` cost n²/2 steps.
    No corpus snippet holds such a line, so the tests above cannot see
    it."""
    engine = PatchitPy()
    texts = [
        "data = yaml.load(b)\n" + "#" * hashes + "\nimport os\n"
        for hashes in (4096, 16384, 65536)
    ]
    assert engine.patch(texts[0]).patched.startswith("import yaml\n")
    _assert_grows_near_linearly(engine, texts)
