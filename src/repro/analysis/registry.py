"""Rule base classes and the process-wide rule registry.

A rule is a class with a stable ``code`` (``RPR###``), a short ``name``
and a one-line ``summary``; registering it (the :func:`register`
decorator) makes ``repro lint`` run it.  Two kinds exist:

* :class:`ModuleRule` — sees one parsed module at a time.  Most rules
  live here.
* :class:`ProjectRule` — runs once after every module is parsed, for
  cross-file invariants (e.g. "every registered metric name is used
  somewhere").

Adding a rule is: subclass, pick the next free code, register, add a
triggering and a non-triggering fixture to ``tests/test_analysis_rules``
(the test suite fails on any registered rule without both), and document
the invariant in DESIGN.md.
"""

from __future__ import annotations

import abc
import ast
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Type, Union

from repro.analysis.diagnostics import Diagnostic
from repro.errors import AnalysisError


@dataclass
class ModuleContext:
    """Everything a rule may inspect about one module."""

    #: Path as reported in diagnostics (repo-relative when possible).
    path: str
    #: Dotted module name (``repro.core.search``) or ``None`` when the
    #: file is not importable from a package root (scripts, fixtures).
    module: Optional[str]
    tree: ast.Module
    source: str

    def in_package(self, package: str) -> bool:
        """True when this module is ``package`` or inside it."""
        if self.module is None:
            return False
        return self.module == package or \
            self.module.startswith(package + ".")

    def diagnostic(self, rule: "BaseRule", node: ast.AST,
                   message: str) -> Diagnostic:
        return Diagnostic(
            path=self.path,
            line=getattr(node, "lineno", 1),
            column=getattr(node, "col_offset", 0) + 1,
            code=rule.code,
            message=message,
        )


class BaseRule(abc.ABC):
    """Shared identity of module- and project-level rules."""

    #: Stable diagnostic code (``RPR###``); never renumbered.
    code: str = ""
    #: Short kebab-case name used in docs and ``repro lint --rules``.
    name: str = ""
    #: One-line description of the invariant the rule protects.
    summary: str = ""


class ModuleRule(BaseRule):
    """A rule that inspects one module at a time."""

    @abc.abstractmethod
    def check_module(self, ctx: ModuleContext) -> Iterator[Diagnostic]:
        """Yield diagnostics for ``ctx``."""


class ProjectRule(BaseRule):
    """A rule that inspects the whole set of parsed modules at once."""

    @abc.abstractmethod
    def check_project(self, modules: Sequence[ModuleContext]
                      ) -> Iterator[Diagnostic]:
        """Yield diagnostics across ``modules``."""


AnyRule = Union[ModuleRule, ProjectRule]

_RULES: Dict[str, Type[AnyRule]] = {}


def register(rule_class: Type[AnyRule]) -> Type[AnyRule]:
    """Class decorator adding a rule to the registry.

    Rejects duplicate or malformed codes loudly: a silently shadowed
    rule is exactly the failure mode this package exists to prevent.
    """
    code = rule_class.code
    if not code.startswith("RPR") or not code[3:].isdigit():
        raise AnalysisError(
            f"rule code must look like 'RPR123', got {code!r}")
    existing = _RULES.get(code)
    if existing is not None and existing is not rule_class:
        raise AnalysisError(
            f"duplicate rule code {code}: {existing.__name__} vs "
            f"{rule_class.__name__}")
    _RULES[code] = rule_class
    return rule_class


def all_rules() -> List[Type[AnyRule]]:
    """Registered rule classes, sorted by code."""
    # Importing the built-in rules here (not at module import) avoids a
    # registry<->rules import cycle while keeping discovery automatic.
    import repro.analysis.rules  # noqa: F401
    return [_RULES[code] for code in sorted(_RULES)]


def rule_for_code(code: str) -> Type[AnyRule]:
    import repro.analysis.rules  # noqa: F401
    try:
        return _RULES[code]
    except KeyError:
        raise AnalysisError(f"unknown rule code {code!r}") from None
