"""The Verifier stage: prove a rendered patch is safe before it ships.

The paper's pipeline (and our reproduction until now) is Finder → Patcher:
detect an insecure pattern, substitute the safe alternative, and hope.
AutoSec structures the same workflow as Finder → Patcher → **Verifier**,
and PatUntrack/AutoPatch both argue that the verification step is where
automated patching earns trust.  This module is that third stage: given
the original source, its findings, and the patched output, it assigns
every applied patch a verdict from a small closed taxonomy:

``verified``
    The triggering finding is gone, no new finding appeared, the patched
    file still has valid syntax, and no inserted import collides with an
    existing binding.
``regressed``
    Re-scanning the patched output shows the triggering finding still
    present, or a finding that did not exist before patching (finding
    identity is a content hash over the matched text, so findings keep
    their identity when patches above them shift their offsets).
``syntax-broken``
    The original compiled (possibly only inside a wrapper context — the
    paper's incomplete-snippet case) but the patched output compiles in
    no context at all.
``import-collision``
    A patch inserts an import whose bound name the original file already
    binds to something else (an assignment, a def/class, an alias), so
    inserting it would silently change what that name refers to.

The engine (:meth:`repro.core.engine.PatchitPy.patch`) drives this from a
bounded re-patch loop: failing patches are *banned* by finding identity
and patching is re-run without them, so an unverifiable patch is reverted
rather than shipped.

This module deliberately imports nothing from ``repro.observability`` and
is never imported by the detect hot path (``matching.py`` /
``candidates.py``) — ``scripts/check_hot_path_isolation.py`` enforces
both directions.
"""

from __future__ import annotations

import hashlib
import re
import warnings
from dataclasses import dataclass
from typing import Callable, Counter as CounterType, Dict, List, Optional, Sequence, Tuple
from collections import Counter

from repro.core.imports import ImportManager, import_bindings
from repro.core.patcher import apply_patches
from repro.types import Finding, Patch

__all__ = [
    "PatchVerdict",
    "PatchVerifier",
    "VERDICT_IMPORT_COLLISION",
    "VERDICT_REGRESSED",
    "VERDICT_SYNTAX_BROKEN",
    "VERDICT_VERIFIED",
    "VERDICT_STATUSES",
    "binding_collisions",
    "finding_key",
    "syntax_context",
]

VERDICT_VERIFIED = "verified"
VERDICT_REGRESSED = "regressed"
VERDICT_SYNTAX_BROKEN = "syntax-broken"
VERDICT_IMPORT_COLLISION = "import-collision"

#: The closed verdict taxonomy, in decreasing severity order.
VERDICT_STATUSES = (
    VERDICT_SYNTAX_BROKEN,
    VERDICT_IMPORT_COLLISION,
    VERDICT_REGRESSED,
    VERDICT_VERIFIED,
)


# --------------------------------------------------------------- identity


def finding_key(source: str, finding: Finding) -> str:
    """Content-hash identity of a finding: stable under offset shifts.

    The identity hashes the rule id together with the matched text at the
    finding's span, *not* the span positions — so a finding keeps its
    identity when a patch applied above it moves it down the file, while
    a same-rule match on different text (e.g. one a patch introduced)
    gets a distinct identity.
    """
    end = min(finding.span.end, len(source))
    start = min(finding.span.start, end)
    matched = source[start:end]
    digest = hashlib.sha256()
    digest.update(finding.rule_id.encode("utf-8"))
    digest.update(b"\x00")
    digest.update(matched.encode("utf-8"))
    return digest.hexdigest()[:16]


# ----------------------------------------------------------------- syntax

#: Wrapper contexts tried, in order, before declaring a syntax failure.
#: Generated snippets frequently are function *bodies* (the paper's
#: incomplete-snippet case, §III-A): ``return``/``await`` at column zero
#: is invalid at module scope but fine inside the right wrapper.
_WRAPPER_CONTEXTS: Tuple[str, ...] = ("module", "function-body", "async-body")


#: The file name compiled text is reported under, and the one warning
#: filter that silences what the compiler says about it.  Compiling user
#: text must neither print its warnings (an invalid escape such as
#: ``"\d"``) nor, under an ``error`` filter, fail because of them.
_FILENAME = "<patch-verify>"
_QUIET_MODULE = re.escape(_FILENAME) + r"\Z"
_QUIET = ("ignore", None, Warning, re.compile(_QUIET_MODULE), 0)


def _compiles(code: str) -> bool:
    # Re-asserted per call, since a later ``simplefilter`` would shadow a
    # filter installed once; it matches only this file name, so no other
    # thread's warnings change, and nothing swaps the process's filters.
    if warnings.filters[:1] != [_QUIET]:
        warnings.filterwarnings("ignore", module=_QUIET_MODULE)
    try:
        compile(code, _FILENAME, "exec")
        return True
    except SyntaxError:
        return False
    except (ValueError, MemoryError, RecursionError, OverflowError):
        # null bytes, pathological nesting: not valid syntax either way
        return False


def _indent(source: str) -> str:
    return "".join(
        "    " + line if line.strip() else line
        for line in source.splitlines(keepends=True)
    )


def _compiles_in(source: str, context: str) -> bool:
    """Whether ``source`` compiles in the wrapper ``context``."""
    if context == "module":
        return _compiles(source)
    body = _indent(source)
    if not body.strip():
        return False  # nothing to wrap; the module context decides
    keyword = "async def" if context == "async-body" else "def"
    return _compiles(f"{keyword} _patchitpy_wrapper():\n{body}\n")


def syntax_context(source: str) -> Optional[str]:
    """The first wrapper context in which ``source`` compiles, else ``None``.

    Tries the text as a full module, then as a function body, then as an
    async function body (so bare ``return``/``yield``/``await`` snippets
    are recognized as valid incomplete code rather than syntax errors).
    """
    for context in _WRAPPER_CONTEXTS:
        if _compiles_in(source, context):
            return context
    return None


# ------------------------------------------------------- import collisions


def _existing_binding(source: str, name: str) -> Optional[str]:
    """How ``source`` already binds ``name``, or ``None`` if it does not.

    Looks for module-text bindings that would clash with a top-of-file
    import of ``name``: plain or annotated assignments, ``def``/``class``
    statements, loop targets, and ``as``-aliases on existing imports.
    """
    n = re.escape(name)
    checks = (
        (rf"^[ \t]*{n}\s*=(?!=)", "assignment"),
        (rf"^[ \t]*{n}\s*:[^=\n]+=(?!=)", "annotated assignment"),
        (rf"^[ \t]*def\s+{n}\s*\(", "function definition"),
        (rf"^[ \t]*class\s+{n}\b", "class definition"),
        (rf"^[ \t]*for\s+{n}\b", "loop target"),
        (rf"^[ \t]*(?:from\s+[\w.]+\s+import\s+[^\n]*|import\s+[^\n]*)\bas\s+{n}\b", "import alias"),
    )
    for pattern, how in checks:
        if re.search(pattern, source, re.MULTILINE):
            return how
    return None


class _Bindings:
    """What ``source`` imports and how it binds each name asked about,
    each derived once however many import batches are checked."""

    def __init__(self, source: str) -> None:
        self.source = source
        self.imports = ImportManager(source)
        self._how: Dict[str, Optional[str]] = {}

    def collisions(self, statements: Sequence[str]) -> Dict[str, str]:
        """:func:`binding_collisions` of ``source`` and ``statements``."""
        collisions: Dict[str, str] = {}
        for statement in statements:
            cleaned = statement.strip()
            if not cleaned or self.imports.has_import(cleaned):
                continue
            try:
                names = import_bindings(cleaned)
            except ValueError:
                continue
            for name in names:
                if name not in self._how:
                    self._how[name] = _existing_binding(self.source, name)
                how = self._how[name]
                if how is not None:
                    collisions.setdefault(name, how)
        return collisions


def binding_collisions(source: str, statements: Sequence[str]) -> Dict[str, str]:
    """Names an import batch would bind that ``source`` binds otherwise.

    Returns ``{name: how_it_is_already_bound}``.  Statements the file
    already imports are skipped — the import manager deduplicates them,
    so nothing new would be inserted and nothing can collide.
    """
    return _Bindings(source).collisions(statements)


# ---------------------------------------------------------------- verdicts


@dataclass
class PatchVerdict:
    """The Verifier's ruling on one applied patch.

    ``span`` is the patch's span in the source it was rendered against;
    ``trigger_key`` is the content-hash identity of the triggering
    finding (the handle the bounded re-patch loop bans on failure);
    ``reverted`` is set by the engine when the patch was withdrawn from
    the shipped output because of this verdict.
    """

    rule_id: str
    cwe_id: str
    span: Tuple[int, int]
    status: str
    detail: str = ""
    trigger_key: str = ""
    reverted: bool = False

    @property
    def ok(self) -> bool:
        """True when the patch passed every verification check."""
        return self.status == VERDICT_VERIFIED

    def to_dict(self) -> dict:
        return {
            "rule_id": self.rule_id,
            "cwe_id": self.cwe_id,
            "span": list(self.span),
            "status": self.status,
            "detail": self.detail,
            "trigger_key": self.trigger_key,
            "reverted": self.reverted,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PatchVerdict":
        start, end = data.get("span", (0, 0))
        return cls(
            rule_id=str(data.get("rule_id", "")),
            cwe_id=str(data.get("cwe_id", "")),
            span=(int(start), int(end)),
            status=str(data.get("status", VERDICT_VERIFIED)),
            detail=str(data.get("detail", "")),
            trigger_key=str(data.get("trigger_key", "")),
            reverted=bool(data.get("reverted", False)),
        )


class PatchVerifier:
    """Re-scan, syntax-check, and import-check a patching outcome.

    ``detect`` is the detection callable used for re-scans — the engine
    passes its own uninstrumented detect so verification sees exactly the
    findings a fresh scan of the patched output would see (subclassed
    engines included).  The engine builds one verifier per ``patch()``
    call, so the original's syntax context and its imports and
    bindings, memoized here, are each derived at most once per call
    however many patches carry imports and however many attempts the
    re-patch loop runs.
    """

    def __init__(self, detect: Callable[[str], Sequence[Finding]]) -> None:
        self._detect = detect
        self._original: Optional[str] = None
        self._original_context: Optional[str] = None
        self._bindings: Optional[_Bindings] = None

    def _context_of_original(self, original: str) -> Optional[str]:
        """:func:`syntax_context` of ``original``, memoized per text."""
        if self._original != original:
            self._original_context = syntax_context(original)
            self._original = original
        return self._original_context

    def _bindings_of_original(self, original: str) -> _Bindings:
        """``original``'s imports and bindings, memoized per text."""
        if self._bindings is None or self._bindings.source != original:
            self._bindings = _Bindings(original)
        return self._bindings

    # ------------------------------------------------------------ checks

    def verify(
        self,
        original: str,
        baseline: Sequence[Finding],
        patched: str,
        applied: Sequence[Patch],
        final_findings: Optional[Sequence[Finding]] = None,
        bases: Optional[Sequence[str]] = None,
    ) -> List[PatchVerdict]:
        """One verdict per applied patch, in application order.

        ``baseline`` is the findings of ``original`` (the identity
        baseline for the gone/new analysis); ``final_findings`` reuses an
        already-computed re-scan of ``patched`` when the caller has one.
        ``bases`` holds, per applied patch, the text its pass rendered it
        against (``original`` for every patch by default); the syntax
        blame applies each patch to its own.
        """
        if final_findings is None:
            final_findings = self._detect(patched)
        before: CounterType[str] = Counter(finding_key(original, f) for f in baseline)
        after: CounterType[str] = Counter(finding_key(patched, f) for f in final_findings)
        introduced = {
            key: count - before.get(key, 0)
            for key, count in after.items()
            if count > before.get(key, 0)
        }
        introduced_text = {
            finding_key(patched, f): patched[f.span.start : f.span.end]
            for f in final_findings
            if finding_key(patched, f) in introduced
        }
        # The patched text usually compiles, which settles it without
        # compiling the original at all.
        syntax_broken = (
            syntax_context(patched) is None
            and self._context_of_original(original) is not None
        )

        verdicts: List[PatchVerdict] = []
        unattributed_introductions = dict(introduced)
        for patch in applied:
            verdicts.append(
                self._judge(
                    original, patch, before, after, introduced_text,
                    unattributed_introductions,
                )
            )

        if syntax_broken:
            self._blame_syntax(
                verdicts, applied, bases if bases is not None else [original] * len(applied)
            )
        if unattributed_introductions:
            # A finding appeared that no individual patch's replacement
            # explains (e.g. it matches across a splice boundary): no
            # patch can be proven innocent, so none may ship.
            rules = ", ".join(sorted(
                {f.rule_id for f in final_findings
                 if finding_key(patched, f) in unattributed_introductions}
            ))
            for verdict in verdicts:
                if verdict.status == VERDICT_VERIFIED:
                    verdict.status = VERDICT_REGRESSED
                    verdict.detail = f"patched output has unattributable new finding(s): {rules}"
        return verdicts

    def _judge(
        self,
        original: str,
        patch: Patch,
        before: CounterType[str],
        after: CounterType[str],
        introduced_text: Dict[str, str],
        unattributed: Dict[str, int],
    ) -> PatchVerdict:
        verdict = PatchVerdict(
            rule_id=patch.rule_id,
            cwe_id=patch.cwe_id,
            span=(patch.span.start, patch.span.end),
            status=VERDICT_VERIFIED,
            trigger_key=patch.trigger_key,
        )
        collisions: Dict[str, str] = {}
        if patch.new_imports:
            collisions = self._bindings_of_original(original).collisions(
                patch.new_imports
            )
        if collisions:
            names = ", ".join(
                f"{name} ({how})" for name, how in sorted(collisions.items())
            )
            verdict.status = VERDICT_IMPORT_COLLISION
            verdict.detail = f"inserted import would shadow existing binding: {names}"
            return verdict
        key = patch.trigger_key
        if key and after.get(key, 0) > 0 and after[key] >= before.get(key, 0):
            verdict.status = VERDICT_REGRESSED
            verdict.detail = "triggering finding still present after patching"
            return verdict
        for intro_key, text in introduced_text.items():
            if intro_key in unattributed and text and text in patch.replacement:
                unattributed.pop(intro_key, None)
                verdict.status = VERDICT_REGRESSED
                verdict.detail = f"replacement introduced a new finding: `{text.strip()[:80]}`"
                return verdict
        return verdict

    def _blame_syntax(
        self,
        verdicts: List[PatchVerdict],
        applied: Sequence[Patch],
        bases: Sequence[str],
    ) -> None:
        """Attribute a whole-file syntax failure to concrete patches.

        A patch is the culprit when applying it alone, with its imports,
        to the text its pass rendered it against breaks that text: the
        result compiles in none of the wrapper contexts the text compiles
        in.  When no patch fails alone the breakage is an interaction, so
        every patch is held responsible — the safe default, since none
        can be proven innocent.  This runs only when the output broke.
        """
        contexts: Dict[str, List[str]] = {}
        culprits = []
        for index, (patch, base) in enumerate(zip(applied, bases)):
            if base not in contexts:
                contexts[base] = [c for c in _WRAPPER_CONTEXTS if _compiles_in(base, c)]
            alone = apply_patches(base, [patch]).source
            if contexts[base] and not any(
                _compiles_in(alone, c) for c in contexts[base]
            ):
                culprits.append(index)
        targets = culprits if culprits else range(len(verdicts))
        detail = (
            "patch alone breaks the text it was rendered against"
            if culprits
            else "patched output compiles in no wrapper context"
        )
        for index in targets:
            verdicts[index].status = VERDICT_SYNTAX_BROKEN
            verdicts[index].detail = detail
