"""Common interface for baseline detection/patching tools.

Every baseline — the three static analyzers and the three simulated LLMs —
implements :class:`DetectionTool`; those that produce patched code also
implement :meth:`patch`.  The evaluation harness only depends on this
interface, so PatchitPy itself is wrapped by an adapter too.
"""

from __future__ import annotations

import abc
from typing import List, Optional

from repro.types import AnalysisReport, CodeSample, Finding


class DetectionTool(abc.ABC):
    """A tool that can judge a code sample as vulnerable or not."""

    #: stable identifier used in tables ("codeql", "bandit", ...)
    name: str = "tool"
    #: whether :meth:`patch` produces modified code (vs suggestions/None)
    can_patch: bool = False

    @abc.abstractmethod
    def analyze(self, sample: CodeSample) -> AnalysisReport:
        """Analyze one sample and return the report."""

    def detect(self, sample: CodeSample) -> List[Finding]:
        """Findings for one sample (see analyze)."""
        return self.analyze(sample).findings

    def is_vulnerable(self, sample: CodeSample) -> bool:
        """Sample-level verdict: did the tool flag anything?"""
        return self.analyze(sample).is_vulnerable

    def patch(self, sample: CodeSample) -> Optional[str]:
        """Patched source, or ``None`` when the tool cannot patch."""
        return None


class PatchitPyTool(DetectionTool):
    """Adapter exposing the PatchitPy engine through the tool interface.

    The default engine is the one that ships, verifier included: it
    reverts none of the corpus's patches, so Table III's patching rates
    come from the verified engine.
    """

    name = "patchitpy"
    can_patch = True

    def __init__(self, engine=None) -> None:
        from repro.core import PatchitPy

        self.engine = engine if engine is not None else PatchitPy()

    def analyze(self, sample: CodeSample) -> AnalysisReport:
        findings = self.engine.detect(sample.source)
        return AnalysisReport(tool=self.name, source=sample.source, findings=findings)

    def patch(self, sample: CodeSample) -> Optional[str]:
        result = self.engine.patch(sample.source)
        return result.patched
