"""Seeded inputs: AI-style snippets and a generated git repository.

Everything here is a pure function of the seed, so two runs with the
same seed send byte-identical traffic and commit byte-identical pushes.
"""

from __future__ import annotations

import os
import random
import subprocess
from pathlib import Path
from typing import Dict, List

from repro.generators.base import generate_all_models


def distinct_snippets(seed: int, count: int) -> List[str]:
    """``count`` distinct generated snippets.

    One seed of the simulated generators yields 609 samples (about 600
    distinct); further corpora come from sub-seeds drawn from ``seed``.
    """
    rng = random.Random(seed)
    seen = set()
    out: List[str] = []
    while len(out) < count:
        corpus = generate_all_models(rng.randrange(1 << 30))
        for samples in corpus.values():
            for sample in samples:
                if sample.source not in seen:
                    seen.add(sample.source)
                    out.append(sample.source)
    rng.shuffle(out)
    return out[:count]


#: Repository shape: files, the share with an embedded snippet, and per
#: push the files edited and the share of edits that add a snippet.
REPO_FILES = 2000
EMBEDDED_SHARE = 0.15
EDITS_PER_PUSH = 5
SNIPPET_EDIT_SHARE = 0.4

_TOPICS = ("orders", "billing", "inventory", "metrics", "session", "layout",
           "routing", "catalog", "shipping", "ledger", "profile", "audit")


def helper_function(rng: random.Random, topic: str, index: int) -> str:
    """One clean helper function (no pattern any rule looks for)."""
    k = rng.randrange(2, 97)
    kind = rng.randrange(3)
    if kind == 0:
        return (
            f"def {topic}_total_{index}(values):\n"
            f"    total = 0\n"
            f"    for value in values:\n"
            f"        total += value * {k}\n"
            f"    return total\n"
        )
    if kind == 1:
        return (
            f"def {topic}_label_{index}(position, width={k}):\n"
            f"    text = \"{topic}-\" + str(position)\n"
            f"    return text.ljust(width, \".\")\n"
        )
    return (
        f"def {topic}_window_{index}(items, size={k % 9 + 1}):\n"
        f"    chunks = []\n"
        f"    for start in range(0, len(items), size):\n"
        f"        chunks.append(items[start:start + size])\n"
        f"    return chunks\n"
    )


def helper_module(rng: random.Random) -> str:
    topic = rng.choice(_TOPICS)
    parts = [f'"""Helpers for {topic}."""\n']
    for index in range(rng.randrange(2, 6)):
        parts.append(helper_function(rng, topic, index))
    return "\n\n".join(parts)


def embed(base: str, snippet: str) -> str:
    """A module with a generated snippet pasted below its helpers."""
    return base.rstrip("\n") + "\n\n\n" + snippet.rstrip("\n") + "\n"


def git(root: Path, *args: str) -> str:
    env = dict(os.environ, GIT_AUTHOR_DATE="2025-01-01T00:00:00",
               GIT_COMMITTER_DATE="2025-01-01T00:00:00")
    return subprocess.run(
        ["git", *args], cwd=root, env=env, check=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    ).stdout


class GeneratedRepo:
    """A git repository of helper modules, some with embedded snippets.

    ``files`` maps each relative path to its current content, which is
    what the oracle re-derives expected findings from after every push.
    """

    def __init__(self, root: Path, seed: int) -> None:
        self.root = root
        self.rng = random.Random(seed)
        n_embedded = int(REPO_FILES * EMBEDDED_SHARE)
        # Enough fresh snippets for the embedded files and every push.
        self._snippets = distinct_snippets(seed, n_embedded + 400)
        self.files: Dict[str, str] = {}
        per_package = 50
        for i in range(REPO_FILES):
            rel = f"pkg_{i // per_package:02d}/mod_{i % per_package:03d}.py"
            self.files[rel] = helper_module(self.rng)
        for rel in self.rng.sample(sorted(self.files), n_embedded):
            self.files[rel] = embed(self.files[rel], self._snippets.pop())
        root.mkdir(parents=True)
        for rel, text in self.files.items():
            path = root / rel
            path.parent.mkdir(exist_ok=True)
            path.write_text(text)
        (root / ".gitignore").write_text(".patchitpy-cache/\n")
        git(root, "init", "-q")
        git(root, "config", "user.email", "bench@example.invalid")
        git(root, "config", "user.name", "bench")
        git(root, "add", "-A")
        git(root, "commit", "-q", "-m", "initial tree")

    def push(self) -> Dict[str, str]:
        """Commit edits to a few files; returns their previous content."""
        before: Dict[str, str] = {}
        for rel in self.rng.sample(sorted(self.files), EDITS_PER_PUSH):
            before[rel] = self.files[rel]
            if self.rng.random() < SNIPPET_EDIT_SHARE:
                new = embed(self.files[rel], self._snippets.pop())
            else:
                new = self.files[rel].rstrip("\n") + "\n\n\n" + helper_function(
                    self.rng, "edit", self.rng.randrange(10_000)
                )
            self.files[rel] = new
            (self.root / rel).write_text(new)
        git(self.root, "commit", "-q", "-a", "-m", "push")
        return before
