"""Core datatypes shared across the PatchitPy reproduction.

The types here model the artifacts that flow through the paper's two-phase
workflow: code samples produced by (simulated) AI generators, findings
emitted by detection tools, patches emitted by patching tools, and the
reports that bundle them together.
"""

from __future__ import annotations

import enum
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence, Tuple


class Severity(enum.Enum):
    """Severity grades used by detection rules and baseline tools."""

    LOW = "low"
    MEDIUM = "medium"
    HIGH = "high"
    CRITICAL = "critical"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


class Confidence(enum.Enum):
    """Confidence grades, mirroring Bandit's LOW/MEDIUM/HIGH scale."""

    LOW = "low"
    MEDIUM = "medium"
    HIGH = "high"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True)
class Span:
    """A half-open character span ``[start, end)`` inside a source string."""

    start: int
    end: int

    def __post_init__(self) -> None:
        if self.start < 0 or self.end < self.start:
            raise ValueError(f"invalid span [{self.start}, {self.end})")

    @property
    def length(self) -> int:
        """Number of characters covered by the span."""
        return self.end - self.start

    def overlaps(self, other: "Span") -> bool:
        """True when the two spans share at least one character."""
        return self.start < other.end and other.start < self.end

    def contains(self, other: "Span") -> bool:
        """True when ``other`` lies entirely inside this span."""
        return self.start <= other.start and other.end <= self.end

    def shift(self, delta: int) -> "Span":
        """Copy of the span moved by ``delta`` characters."""
        return Span(self.start + delta, self.end + delta)


def line_of_offset(source: str, offset: int) -> int:
    """Return the 1-based line number holding character ``offset``."""
    if offset < 0 or offset > len(source):
        raise ValueError(f"offset {offset} outside source of length {len(source)}")
    return source.count("\n", 0, offset) + 1


class LineIndex:
    """Shared line-offset index for one source string.

    Report rendering, SARIF export, review annotation, and guard checks
    all ask "which line holds offset X?" — re-deriving the answer with
    ``source.count("\\n", 0, offset)`` costs O(len(source)) per query
    and goes quadratic on finding-dense files.  A ``LineIndex`` is built
    once per source and shared: :meth:`line_of` scans lazily on first
    use (one pass building the line-start table), then answers every
    later query by bisection; :meth:`line_bounds`/:meth:`line_text`
    use C-level ``rfind``/``find`` and never force the build, so a
    single-query source pays no table at all.

    Semantics exactly match :func:`line_of_offset`: lines are separated
    by ``"\\n"`` only (``"\\r"`` is ordinary text, so ``"\\r\\n"``
    terminators leave the ``"\\r"`` at the end of :meth:`line_text`),
    offsets from 0 to ``len(source)`` inclusive are valid, and the
    property tests pin the agreement on adversarial inputs.
    """

    __slots__ = ("source", "_starts")

    def __init__(self, source: str) -> None:
        self.source = source
        self._starts: Optional[list] = None

    def _build(self) -> list:
        starts = self._starts
        if starts is None:
            starts = [0]
            find = self.source.find
            position = find("\n")
            while position != -1:
                starts.append(position + 1)
                position = find("\n", position + 1)
            self._starts = starts
        return starts

    def __len__(self) -> int:
        """Number of lines (an empty source still has line 1)."""
        return len(self._build())

    def line_of(self, offset: int) -> int:
        """1-based line number holding character ``offset``."""
        if offset < 0 or offset > len(self.source):
            raise ValueError(
                f"offset {offset} outside source of length {len(self.source)}"
            )
        return bisect_right(self._build(), offset)

    def line_start(self, line: int) -> int:
        """Offset where 1-based line ``line`` starts."""
        starts = self._build()
        if line < 1 or line > len(starts):
            raise ValueError(f"line {line} outside source of {len(starts)} lines")
        return starts[line - 1]

    def line_bounds(self, offset: int) -> Tuple[int, int]:
        """``(start, end)`` offsets of the line holding ``offset``.

        ``end`` excludes the terminating newline; for the last line it
        is ``len(source)``.
        """
        if offset < 0 or offset > len(self.source):
            raise ValueError(
                f"offset {offset} outside source of length {len(self.source)}"
            )
        source = self.source
        start = source.rfind("\n", 0, offset) + 1
        end = source.find("\n", offset)
        if end == -1:
            end = len(source)
        return start, end

    def line_text(self, offset: int) -> str:
        """The full text of the line holding ``offset`` (no newline)."""
        start, end = self.line_bounds(offset)
        return self.source[start:end]


@dataclass(frozen=True)
class Finding:
    """One vulnerability detection reported by a tool.

    ``rule_id`` identifies the triggering rule (PatchitPy rule id, Bandit
    plugin id, Semgrep rule key, CodeQL query id, or a simulated-LLM tag);
    ``cwe_id`` is a canonical ``CWE-###`` string.
    """

    rule_id: str
    cwe_id: str
    message: str
    span: Span
    snippet: str = ""
    severity: Severity = Severity.MEDIUM
    confidence: Confidence = Confidence.MEDIUM
    fixable: bool = False
    # Optional audit trail (repro.observability.provenance.Provenance):
    # which prefilter/prerequisites/guards the match survived and what the
    # patch renders.  Excluded from equality and repr so findings with and
    # without a recorded trail compare as the same detection.
    provenance: Optional[object] = field(default=None, compare=False, repr=False)

    def with_span(self, span: Span) -> "Finding":
        """Copy of the finding anchored at a different span."""
        return Finding(
            rule_id=self.rule_id,
            cwe_id=self.cwe_id,
            message=self.message,
            span=span,
            snippet=self.snippet,
            severity=self.severity,
            confidence=self.confidence,
            fixable=self.fixable,
            provenance=self.provenance,
        )

    def with_provenance(self, provenance: Optional[object]) -> "Finding":
        """Copy of the finding carrying the given provenance record."""
        return Finding(
            rule_id=self.rule_id,
            cwe_id=self.cwe_id,
            message=self.message,
            span=self.span,
            snippet=self.snippet,
            severity=self.severity,
            confidence=self.confidence,
            fixable=self.fixable,
            provenance=provenance,
        )

    def to_dict(self) -> dict:
        """JSON-serializable representation (see :meth:`from_dict`).

        The persistent scan cache stores findings in this form; enum
        fields serialize to their string values, the span to a two-element
        list.  A ``provenance`` key is present only when a record is
        attached, so findings from untraced scans keep their pre-1.2
        serialized shape byte for byte.
        """
        data = {
            "rule_id": self.rule_id,
            "cwe_id": self.cwe_id,
            "message": self.message,
            "span": [self.span.start, self.span.end],
            "snippet": self.snippet,
            "severity": self.severity.value,
            "confidence": self.confidence.value,
            "fixable": self.fixable,
        }
        if self.provenance is not None:
            data["provenance"] = self.provenance.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "Finding":
        """Inverse of :meth:`to_dict` (raises on malformed input)."""
        start, end = data["span"]
        raw_provenance = data.get("provenance")
        provenance = None
        if raw_provenance is not None:
            # Imported lazily: repro.types must stay importable without
            # pulling the observability package in.
            from repro.observability.provenance import Provenance

            provenance = Provenance.from_dict(raw_provenance)
        return cls(
            rule_id=data["rule_id"],
            cwe_id=data["cwe_id"],
            message=data["message"],
            span=Span(int(start), int(end)),
            snippet=data.get("snippet", ""),
            severity=Severity(data.get("severity", Severity.MEDIUM.value)),
            confidence=Confidence(data.get("confidence", Confidence.MEDIUM.value)),
            fixable=bool(data.get("fixable", False)),
            provenance=provenance,
        )


@dataclass(frozen=True)
class Patch:
    """A concrete edit produced for one finding.

    ``replacement`` substitutes the text at ``span``; ``new_imports`` lists
    import statements the patched code additionally needs (inserted at the
    top of the file by the import manager, mirroring the VS Code Position
    API usage described in §II-B of the paper).  ``trigger_key`` is the
    content-hash identity of the finding the patch answers (see
    :func:`repro.core.verify.finding_key`) — stable across the offset
    shifts later patches cause, it is how the verifier matches a patch
    back to its triggering finding.
    """

    rule_id: str
    cwe_id: str
    span: Span
    replacement: str
    new_imports: Tuple[str, ...] = ()
    description: str = ""
    trigger_key: str = ""

    def is_noop(self) -> bool:
        """True when applying the patch would change nothing."""
        return self.span.length == 0 and not self.replacement and not self.new_imports

    def to_dict(self) -> dict:
        """JSON-serializable representation (see :meth:`from_dict`).

        This is the one wire shape for patches: the server payload and
        the plain-JSON exporter both build on it.  ``description`` and
        ``trigger_key`` appear only when set, so minimal patches keep a
        minimal serialized form.
        """
        data: dict = {
            "rule_id": self.rule_id,
            "cwe_id": self.cwe_id,
            "span": [self.span.start, self.span.end],
            "replacement": self.replacement,
            "imports": list(self.new_imports),
        }
        if self.description:
            data["description"] = self.description
        if self.trigger_key:
            data["trigger_key"] = self.trigger_key
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "Patch":
        """Inverse of :meth:`to_dict` (raises on malformed input)."""
        start, end = data["span"]
        return cls(
            rule_id=data["rule_id"],
            cwe_id=data.get("cwe_id", ""),
            span=Span(int(start), int(end)),
            replacement=data["replacement"],
            new_imports=tuple(data.get("imports", ())),
            description=data.get("description", ""),
            trigger_key=data.get("trigger_key", ""),
        )


@dataclass(frozen=True)
class SuggestionComment:
    """A fix *suggestion* delivered as a comment (Semgrep/Bandit style).

    The paper stresses that Bandit and Semgrep only provide remediation
    guidance via comments without modifying the code; this type models that
    weaker output channel.
    """

    rule_id: str
    cwe_id: str
    line: int
    comment: str


@dataclass
class AnalysisReport:
    """The result of running a detection (and optionally patching) tool."""

    tool: str
    source: str
    findings: list = field(default_factory=list)
    patches: list = field(default_factory=list)
    suggestions: list = field(default_factory=list)
    parse_failed: bool = False
    patched_source: Optional[str] = None
    # Per-patch verification verdicts (repro.core.verify.PatchVerdict);
    # empty when patching or verification was disabled.
    verdicts: list = field(default_factory=list)

    @property
    def is_vulnerable(self) -> bool:
        """Sample-level verdict: did the tool flag anything?"""
        return bool(self.findings)

    def cwes(self) -> Tuple[str, ...]:
        """Distinct CWE ids among the findings, sorted."""
        return tuple(sorted({f.cwe_id for f in self.findings}))

    def findings_for(self, cwe_id: str) -> list:
        """Findings carrying the given CWE id."""
        return [f for f in self.findings if f.cwe_id == cwe_id]

    def to_dict(self) -> dict:
        """Canonical JSON shape of a report (see :meth:`from_dict`).

        The single serialization path for analysis results: the SARIF /
        plain-JSON exporters and the server payload all derive their
        patch and verdict sections from this helper instead of building
        dicts ad hoc.  ``patched_source`` appears only when patching ran.
        """
        data: dict = {
            "tool": self.tool,
            "source": self.source,
            "parse_failed": self.parse_failed,
            "findings": [f.to_dict() for f in self.findings],
            "patches": [p.to_dict() for p in self.patches],
            "verdicts": [v.to_dict() for v in self.verdicts],
        }
        if self.suggestions:
            data["suggestions"] = [
                {
                    "rule_id": s.rule_id,
                    "cwe_id": s.cwe_id,
                    "line": s.line,
                    "comment": s.comment,
                }
                for s in self.suggestions
            ]
        if self.patched_source is not None:
            data["patched_source"] = self.patched_source
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "AnalysisReport":
        """Inverse of :meth:`to_dict` (raises on malformed input)."""
        # Imported lazily: repro.types must stay importable without
        # pulling the verifier (and its engine dependencies) in.
        from repro.core.verify import PatchVerdict

        return cls(
            tool=data.get("tool", "patchitpy"),
            source=data.get("source", ""),
            findings=[Finding.from_dict(item) for item in data.get("findings", ())],
            patches=[Patch.from_dict(item) for item in data.get("patches", ())],
            suggestions=[
                SuggestionComment(
                    rule_id=item["rule_id"],
                    cwe_id=item.get("cwe_id", ""),
                    line=int(item["line"]),
                    comment=item.get("comment", ""),
                )
                for item in data.get("suggestions", ())
            ],
            parse_failed=bool(data.get("parse_failed", False)),
            patched_source=data.get("patched_source"),
            verdicts=[PatchVerdict.from_dict(item) for item in data.get("verdicts", ())],
        )


class GeneratorName(enum.Enum):
    """The three AI code generators evaluated in the paper."""

    COPILOT = "copilot"
    CLAUDE = "claude"
    DEEPSEEK = "deepseek"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


class PromptSource(enum.Enum):
    """Origin dataset of an NL prompt (§III-A)."""

    SECURITYEVAL = "securityeval"
    LLMSECEVAL = "llmseceval"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True)
class Prompt:
    """A natural-language prompt used to ask a generator for code."""

    prompt_id: str
    source: PromptSource
    text: str
    cwe_ids: Tuple[str, ...]
    scenario_key: str

    @property
    def token_count(self) -> int:
        """Whitespace token count, the statistic reported in §III-A."""
        return len(self.text.split())


@dataclass(frozen=True)
class CodeSample:
    """A generated code sample plus its ground-truth labels.

    ``true_cwe_ids`` lists the CWEs genuinely present (empty for safe
    samples) — this is the oracle the simulated manual evaluation converges
    to.  ``incomplete`` flags snippet-style outputs that do not parse as a
    full module (the code-generator failure mode the paper says defeats
    AST-based tools).
    """

    sample_id: str
    generator: GeneratorName
    prompt: Prompt
    source: str
    true_cwe_ids: Tuple[str, ...]
    variant_key: str
    incomplete: bool = False

    @property
    def is_vulnerable(self) -> bool:
        return bool(self.true_cwe_ids)


def iter_lines_with_offsets(source: str) -> Iterator[Tuple[int, int, str]]:
    """Yield ``(line_number, start_offset, line_text)`` for each line."""
    offset = 0
    for number, line in enumerate(source.splitlines(keepends=True), start=1):
        yield number, offset, line.rstrip("\n")
        offset += len(line)


def merge_spans(spans: Sequence[Span]) -> Tuple[Span, ...]:
    """Merge overlapping/adjacent spans into a minimal sorted tuple."""
    if not spans:
        return ()
    ordered = sorted(spans, key=lambda s: (s.start, s.end))
    merged = [ordered[0]]
    for span in ordered[1:]:
        last = merged[-1]
        if span.start <= last.end:
            merged[-1] = Span(last.start, max(last.end, span.end))
        else:
            merged.append(span)
    return tuple(merged)
