"""Kernel bans: dense Floyd-Warshall is the graph kernel's monopoly.

One graph kernel (``src/repro/graph/``) serves every distance query in
the repo (ROADMAP PR 4); its density heuristics, delta rules, and
version tag are only trustworthy if no other code path reaches scipy's
dense Floyd-Warshall behind its back.  Historically a substring grep in
``tests/test_graph_kernel.py`` enforced this; this rule is the AST
reimplementation — it flags *code* (imports, references, ``method="FW"``
call arguments, and string constants that smuggle the name through
``getattr``) and ignores prose in comments and docstrings.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .rules import FileContext, Finding, Rule, RuleScope, register_rule

_BANNED_NAME = "floyd_warshall"  # repro: allow[dense-fw-ban] -- the ban rule must name its target


@register_rule
class DenseFwBanRule(Rule):
    name = "dense-fw-ban"
    description = (
        "dense Floyd-Warshall reference outside src/repro/graph/ "
        "(route distance queries through the graph kernel)"
    )
    scope = RuleScope(include=("*",), exclude=("src/repro/graph/*",))
    node_types = (
        ast.Name,
        ast.Attribute,
        ast.ImportFrom,
        ast.Call,
        ast.Constant,
    )

    def _finding(self, node: ast.AST, ctx: FileContext, what: str) -> Finding:
        return Finding(
            rule=self.name,
            path=ctx.rel,
            line=node.lineno,
            col=node.col_offset,
            message=(
                f"{what}: dense Floyd-Warshall is banned outside "
                "src/repro/graph/ — use GraphKernel (the "
                "kernel picks dense FW itself when the graph warrants "
                "it, under KERNEL_VERSION)"
            ),
        )

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterator[Finding]:
        if isinstance(node, ast.Name):
            # Resolve through import aliases so `from ... import
            # floyd_warshall as fw; fw(m)` is caught at the call site
            # too — stronger than the substring grep this replaces.
            resolved = ctx.aliases.get(node.id, node.id)
            if resolved == _BANNED_NAME or resolved.endswith(
                "." + _BANNED_NAME
            ):
                yield self._finding(node, ctx, f"reference to {_BANNED_NAME}")
        elif isinstance(node, ast.Attribute):
            if node.attr == _BANNED_NAME:
                yield self._finding(
                    node, ctx, f"attribute access .{_BANNED_NAME}"
                )
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name == _BANNED_NAME:
                    yield self._finding(
                        node, ctx, f"import of {_BANNED_NAME}"
                    )
        elif isinstance(node, ast.Call):
            for kw in node.keywords:
                if (
                    kw.arg == "method"
                    and isinstance(kw.value, ast.Constant)
                    and kw.value.value == "FW"
                ):
                    yield self._finding(node, ctx, 'method="FW" call')
        elif isinstance(node, ast.Constant):
            # Closes the getattr(csgraph, "floyd_warshall") hole the
            # old grep caught by accident; docstrings/comments are not
            # Constant nodes mentioning exactly this string.
            if node.value == _BANNED_NAME:
                yield self._finding(
                    node, ctx, f'string constant "{_BANNED_NAME}"'
                )
