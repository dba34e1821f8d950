"""Exception taxonomy for the PatchitPy reproduction.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch the whole family with a single ``except`` clause while
still being able to discriminate the failing subsystem.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every library error."""


class RuleError(ReproError):
    """A detection or patching rule is malformed."""


class DuplicateRuleError(RuleError):
    """Two rules were registered under the same identifier."""


class MiningError(ReproError):
    """Rule mining could not derive a pattern from a sample pair."""


class CorpusError(ReproError):
    """The prompt corpus is inconsistent (unknown scenario, bad CWE, ...)."""


class UnknownCWEError(CorpusError):
    """A CWE identifier is not present in the registry."""


class GenerationError(ReproError):
    """A simulated code generator failed to render a prompt."""


class BaselineError(ReproError):
    """A baseline tool failed in an unexpected way."""


class QueryError(BaselineError):
    """A mini-CodeQL query is malformed or references unknown facts."""


class DocumentError(ReproError):
    """An IDE document operation received an invalid position or range."""
