"""Pluggable lint-rule registry, mirroring :mod:`repro.features.registry`.

Every rule is a stateless class deriving :class:`Rule` and decorated with
:func:`register_rule`; it walks the shared
:class:`~repro.lint.context.LintContext` and yields
:class:`~repro.lint.findings.Finding` records.  New rules plug in without
touching any call site:

    >>> @register_rule
    ... class SuspiciousSleep(Rule):
    ...     rule_id = "o4-suspicious-sleep"
    ...     o_class = "O4"
    ...     severity = "low"
    ...     description = "Sleep() stalling inside macro code"
    ...     def scan(self, ctx):
    ...         ...

The built-in O1–O4 and anti-analysis rules register themselves when
:mod:`repro.lint.rules` is imported (which :mod:`repro.lint` does).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from typing import TYPE_CHECKING

from repro.lint.context import LintContext
from repro.lint.findings import O_CLASSES, SEVERITIES, Finding, sort_findings
from repro.vba.analyzer import MacroAnalysis, analyze

if TYPE_CHECKING:  # pragma: no cover
    from repro.sa.records import StringRecovery


class Rule:
    """Base class: one registered static-analysis rule.

    Subclasses set the class attributes and implement :meth:`scan`.
    Rules are stateless singletons — ``scan`` must not mutate ``self``.
    """

    rule_id: str = ""
    o_class: str = ""
    severity: str = "medium"
    description: str = ""

    def scan(self, ctx: LintContext) -> Iterable[Finding]:
        raise NotImplementedError

    def finding(
        self,
        ctx: LintContext,
        position: int,
        message: str,
        *,
        severity: str | None = None,
        evidence: str | None = None,
    ) -> Finding:
        """Build a finding anchored at the token at ``position`` with this
        rule's metadata; its span is the token's 1-based ``[start, end)``
        columns."""
        column = ctx.columns[position]
        return Finding(
            rule_id=self.rule_id,
            o_class=self.o_class,
            severity=severity or self.severity,
            line=ctx.lines[position],
            span=(column, column + len(ctx.texts[position])),
            message=message,
            evidence=ctx.evidence(position) if evidence is None else evidence,
        )


_REGISTRY: dict[str, Rule] = {}


def register_rule(cls: type[Rule]) -> type[Rule]:
    """Class decorator: validate and register one rule singleton."""
    if not cls.rule_id:
        raise ValueError(f"{cls.__name__} must set a non-empty rule_id")
    if cls.o_class not in O_CLASSES:
        raise ValueError(
            f"rule {cls.rule_id!r} has unknown o_class {cls.o_class!r}"
        )
    if cls.severity not in SEVERITIES:
        raise ValueError(
            f"rule {cls.rule_id!r} has unknown severity {cls.severity!r}"
        )
    if cls.rule_id in _REGISTRY:
        raise ValueError(f"rule {cls.rule_id!r} already registered")
    _REGISTRY[cls.rule_id] = cls()
    return cls


def get_rule(rule_id: str) -> Rule:
    try:
        return _REGISTRY[rule_id]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY)) or "(none)"
        raise KeyError(f"unknown rule {rule_id!r}; registered: {known}") from None


def all_rules() -> tuple[Rule, ...]:
    """Every registered rule, in deterministic (rule-id) order."""
    return tuple(_REGISTRY[rule_id] for rule_id in sorted(_REGISTRY))


def rule_ids() -> tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


def rules_for_class(o_class: str) -> tuple[Rule, ...]:
    """All registered rules evidencing one obfuscation class."""
    return tuple(rule for rule in all_rules() if rule.o_class == o_class)


def _resolve(rules: Sequence[str | Rule] | None) -> tuple[Rule, ...]:
    if rules is None:
        return all_rules()
    return tuple(
        rule if isinstance(rule, Rule) else get_rule(rule) for rule in rules
    )


def lint_analysis(
    analysis: MacroAnalysis,
    rules: Sequence[str | Rule] | None = None,
    *,
    recovery: "StringRecovery | None" = None,
) -> list[Finding]:
    """Run the selected rules (default: all) over one macro analysis.

    ``recovery`` carries the statically recovered strings from a
    ``repro.sa`` pass; without it the ``SA`` rules have nothing to scan
    and stay silent.
    """
    ctx = LintContext(analysis, recovery=recovery)
    findings: list[Finding] = []
    for rule in _resolve(rules):
        findings.extend(rule.scan(ctx))
    return sort_findings(findings)


def lint_source(
    source: str, rules: Sequence[str | Rule] | None = None
) -> list[Finding]:
    """Analyze one bare VBA source and run the selected rules over it."""
    return lint_analysis(analyze(source), rules)


def iter_rules() -> Iterator[Rule]:  # pragma: no cover - convenience alias
    yield from all_rules()
