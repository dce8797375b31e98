"""Repo-specific static analysis: the ``repro lint`` rule suite.

PR 1 fixed a family of I/O-accounting bugs and added the observability
layer; this package is what keeps them fixed.  Each ``RPR###`` rule
encodes one invariant (storage layering, metric-name hygiene, pin
discipline, monotonic timing, DoV float comparison, typing ratchet) as
an AST check, and ``repro lint`` fails the build when any is violated.
See DESIGN.md ("Static analysis") for the rule catalogue and how to add
a rule; README ("Linting") for CLI usage and pragma syntax.
"""

from repro.analysis.baseline import (apply_baseline, load_baseline,
                                     save_baseline)
from repro.analysis.diagnostics import Diagnostic
from repro.analysis.driver import (DRIVER_CODE, LintResult,
                                   iter_python_files, lint_paths,
                                   module_name_for)
from repro.analysis.pragmas import PragmaIndex, collect_pragmas
from repro.analysis.registry import (ModuleContext, ModuleRule,
                                     ProjectRule, all_rules,
                                     register, rule_for_code)

__all__ = [
    "DRIVER_CODE",
    "Diagnostic",
    "LintResult",
    "ModuleContext",
    "ModuleRule",
    "PragmaIndex",
    "ProjectRule",
    "all_rules",
    "apply_baseline",
    "collect_pragmas",
    "iter_python_files",
    "lint_paths",
    "load_baseline",
    "module_name_for",
    "register",
    "rule_for_code",
    "save_baseline",
]
