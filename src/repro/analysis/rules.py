"""Lint rule protocol, registry, and shared AST helpers.

Rules register exactly like solver backends in
:mod:`repro.core.design`: a class decorator instantiates the rule and
keys it by its lowercase ``name``.  Two kinds exist:

* :class:`Rule` — a per-file AST rule.  It declares the node types it
  wants (``node_types``) and the engine dispatches them during its
  single walk of each file; the rule's ``scope`` is the per-path
  default (overridable via :class:`LintConfig` in the engine).
* :class:`ProjectRule` — a repo-level rule that runs once per lint
  invocation (the stage-version lockfile check), independent of which
  files were passed.

Findings are suppressed inline with

    # repro: allow[rule-id] -- reason

on the flagged line or on a standalone comment line directly above it;
the reason is mandatory (the engine flags reason-less suppressions).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from fnmatch import fnmatch
from functools import cached_property
from pathlib import Path
from typing import Iterator


@dataclass(frozen=True)
class Finding:
    """One lint finding.

    Attributes:
        rule: the reporting rule's registry name.
        path: file the finding is anchored to (repo-relative when
            possible).
        line: 1-based line number.
        col: 0-based column.
        message: what is wrong and what to do about it.
        suppressed: whether an inline ``repro: allow`` covers it.
        suppress_reason: the suppression's stated reason, if any.
    """

    rule: str
    path: str
    line: int
    col: int
    message: str
    suppressed: bool = False
    suppress_reason: str | None = None

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"

    def to_dict(self) -> dict:
        out = {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }
        if self.suppressed:
            out["suppressed"] = True
            out["suppress_reason"] = self.suppress_reason
        return out


@dataclass(frozen=True)
class RuleScope:
    """Per-path applicability of a rule.

    Patterns are ``fnmatch`` globs over the file's repo-relative posix
    path (note ``fnmatch``'s ``*`` crosses ``/``, so ``src/repro/*``
    covers the whole subtree).  A file is in scope when it matches any
    include pattern and no exclude pattern.
    """

    include: tuple[str, ...] = ("*",)
    exclude: tuple[str, ...] = ()

    def matches(self, rel_posix: str) -> bool:
        if not any(fnmatch(rel_posix, pat) for pat in self.include):
            return False
        return not any(fnmatch(rel_posix, pat) for pat in self.exclude)


class FileContext:
    """Everything a file rule may need about the file being walked."""

    def __init__(self, path: Path, rel: str, source: str, tree: ast.Module):
        self.path = path
        self.rel = rel
        self.source = source
        self.tree = tree
        #: Live ancestor stack (outermost first) maintained by the
        #: engine's walk; valid only during ``visit`` dispatch.
        self.stack: list[ast.AST] = []
        #: Scratch space for rules that cache per-file analysis.
        self.cache: dict = {}

    @cached_property
    def aliases(self) -> dict[str, str]:
        """Imported local name -> absolute dotted target.

        ``import numpy as np`` maps ``np -> numpy``; ``from datetime
        import datetime`` maps ``datetime -> datetime.datetime``.
        Function-local imports are included (the codebase lazy-imports
        heavily); relative imports are skipped — the determinism rules
        only care about stdlib/numpy call sites.
        """
        aliases: dict[str, str] = {}
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for a in node.names:
                    if a.asname:
                        aliases.setdefault(a.asname, a.name)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                if node.module is None:
                    continue
                for a in node.names:
                    if a.name == "*":
                        continue
                    aliases.setdefault(
                        a.asname or a.name, f"{node.module}.{a.name}"
                    )
        return aliases

    def dotted(self, node: ast.AST) -> str | None:
        """The absolute dotted name a Name/Attribute expression denotes.

        Resolves the leading name through the import alias map, so
        ``np.random.default_rng`` reads ``numpy.random.default_rng``.
        None when the expression is not a plain dotted chain.
        """
        parts: list[str] = []
        current = node
        while isinstance(current, ast.Attribute):
            parts.append(current.attr)
            current = current.value
        if not isinstance(current, ast.Name):
            return None
        parts.append(self.aliases.get(current.id, current.id))
        parts.reverse()
        return ".".join(parts)

    def enclosing_function(
        self,
    ) -> ast.FunctionDef | ast.AsyncFunctionDef | None:
        for node in reversed(self.stack):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return node
        return None


@dataclass
class ProjectContext:
    """What a project-level rule sees: repo layout + the lock location."""

    repo_root: Path
    package_root: Path
    lock_path: Path
    _index: "object" = field(default=None, repr=False)

    @property
    def index(self):
        from .callgraph import ProjectIndex

        if self._index is None:
            self._index = ProjectIndex(self.package_root)
        return self._index


class Rule:
    """One per-file AST rule (subclass and register)."""

    #: Registry key; lowercase kebab-case.
    name: str = ""
    #: One-line summary shown by ``repro lint --list-rules``.
    description: str = ""
    #: Default per-path applicability.
    scope: RuleScope = RuleScope()
    #: Node classes the engine should dispatch to ``visit``.
    node_types: tuple[type, ...] = ()

    def visit(
        self, node: ast.AST, ctx: FileContext
    ) -> Iterator[Finding]:  # pragma: no cover - interface
        return iter(())


class ProjectRule:
    """One repo-level rule, run once per lint invocation."""

    name: str = ""
    description: str = ""

    def check(
        self, ctx: ProjectContext
    ) -> list[Finding]:  # pragma: no cover - interface
        return []


_RULES: dict[str, Rule | ProjectRule] = {}


def register_rule(rule_cls):
    """Class decorator: instantiate and register a rule by its name."""
    instance = rule_cls()
    name = instance.name
    if not name or name != name.lower():
        raise ValueError(f"rule name {name!r} must be a lowercase key")
    _RULES[name] = instance
    return rule_cls


def rule_names() -> list[str]:
    """Registered rule names, sorted."""
    return sorted(_RULES)


def get_rule(name: str) -> Rule | ProjectRule:
    """The registered rule for ``name`` (KeyError with choices otherwise)."""
    try:
        return _RULES[name]
    except KeyError:
        raise KeyError(
            f"unknown rule {name!r}; registered: {', '.join(rule_names())}"
        ) from None


def all_rules() -> list[Rule | ProjectRule]:
    return [_RULES[name] for name in rule_names()]
