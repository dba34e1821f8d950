"""Editor document model: positions, ranges, selections, documents.

Positions follow the VS Code convention — zero-based ``line`` and
``character`` — and a :class:`TextDocument` converts between positions and
flat character offsets, which is how the extension maps engine findings
(character spans) onto editor ranges.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import DocumentError
from repro.types import LineIndex


@dataclass(frozen=True, order=True)
class Position:
    """Zero-based (line, character) coordinate."""

    line: int
    character: int

    def __post_init__(self) -> None:
        if self.line < 0 or self.character < 0:
            raise DocumentError(f"negative position: {self}")


@dataclass(frozen=True)
class Range:
    """Half-open range between two positions (``start`` inclusive)."""

    start: Position
    end: Position

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise DocumentError(f"range end before start: {self}")

    @property
    def is_empty(self) -> bool:
        """True when start equals end."""
        return self.start == self.end

    def contains(self, position: Position) -> bool:
        """True when the position lies inside the range."""
        return self.start <= position <= self.end


class Selection(Range):
    """A user selection — a range with an active end (cursor side)."""


class TextDocument:
    """An in-memory editor buffer with position/offset conversion.

    Line arithmetic is delegated to a :class:`~repro.types.LineIndex`
    (lines split on ``"\n"`` only, so a CRLF line keeps its ``"\r"``),
    rebuilt lazily after each edit.
    """

    def __init__(self, text: str = "", uri: str = "untitled:Untitled-1") -> None:
        self._text = text
        self.uri = uri
        self.version = 1
        self._lines = LineIndex(text)

    # ------------------------------------------------------------ content

    def get_text(self, range_: Range = None) -> str:
        """Document text, optionally restricted to a range."""
        if range_ is None:
            return self._text
        return self._text[self.offset_at(range_.start) : self.offset_at(range_.end)]

    @property
    def line_count(self) -> int:
        """Number of lines (a trailing newline adds an empty one)."""
        return len(self._lines)

    def line_text(self, line: int) -> str:
        """Text of one zero-based line, without its newline."""
        self._check_line(line)
        return self._lines.line_text(self._lines.line_start(line + 1))

    # ------------------------------------------------------- conversions

    def offset_at(self, position: Position) -> int:
        """Flat character offset of a position."""
        self._check_line(position.line)
        line_start = self._lines.line_start(position.line + 1)
        line_length = len(self.line_text(position.line))
        if position.character > line_length:
            raise DocumentError(
                f"character {position.character} beyond line {position.line} "
                f"(length {line_length})"
            )
        return line_start + position.character

    def position_at(self, offset: int) -> Position:
        """Position of a flat character offset."""
        if offset < 0 or offset > len(self._text):
            raise DocumentError(f"offset {offset} outside document")
        line = self._lines.line_of(offset)
        return Position(line - 1, offset - self._lines.line_start(line))

    def full_range(self) -> Range:
        """Range covering the whole document."""
        return Range(Position(0, 0), self.position_at(len(self._text)))

    def range_of_lines(self, first_line: int, last_line: int) -> Range:
        """Inclusive line range as a :class:`Range` (selection helper)."""
        self._check_line(first_line)
        self._check_line(last_line)
        if last_line < first_line:
            raise DocumentError("last_line before first_line")
        end_character = len(self.line_text(last_line))
        return Range(Position(first_line, 0), Position(last_line, end_character))

    # ------------------------------------------------------------ editing

    def replace(self, range_: Range, new_text: str) -> None:
        """Low-level replace; the edit API layers on top of this."""
        start = self.offset_at(range_.start)
        end = self.offset_at(range_.end)
        self._text = self._text[:start] + new_text + self._text[end:]
        self._lines = LineIndex(self._text)
        self.version += 1

    # ------------------------------------------------------------ helpers

    def _check_line(self, line: int) -> None:
        if not (0 <= line < len(self._lines)):
            raise DocumentError(
                f"line {line} outside document of {len(self._lines)} lines"
            )
