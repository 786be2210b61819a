"""Tests for the rule registry and lint entry points."""

import pytest

from repro.lint import (
    Rule,
    all_rules,
    get_rule,
    lint_source,
    register_rule,
    rule_ids,
    rules_for_class,
)
from repro.lint.registry import _REGISTRY


class TestRegistry:
    def test_builtin_rules_registered(self):
        ids = rule_ids()
        assert "o1-gibberish-identifier" in ids
        assert "o2-literal-concat" in ids
        assert "o3-chr-chain" in ids
        assert "o4-dead-procedure" in ids
        assert "aa-flow-evasion" in ids

    def test_all_rules_sorted_and_singleton(self):
        rules = all_rules()
        assert [r.rule_id for r in rules] == sorted(r.rule_id for r in rules)
        assert all_rules()[0] is rules[0]

    def test_every_class_has_rules(self):
        for o_class in ("O1", "O2", "O3", "O4", "AA"):
            assert rules_for_class(o_class), f"no rules for {o_class}"
            assert all(r.o_class == o_class for r in rules_for_class(o_class))

    def test_get_rule_unknown_raises_with_listing(self):
        with pytest.raises(KeyError, match="o1-gibberish-identifier"):
            get_rule("no-such-rule")

    def test_register_rejects_duplicate_id(self):
        with pytest.raises(ValueError, match="already registered"):

            @register_rule
            class Duplicate(Rule):
                rule_id = "o1-gibberish-identifier"
                o_class = "O1"
                description = "dup"

    def test_register_rejects_bad_class(self):
        with pytest.raises(ValueError, match="unknown o_class"):

            @register_rule
            class BadClass(Rule):
                rule_id = "zz-bad"
                o_class = "O9"
                description = "bad"

    def test_register_and_run_custom_rule(self):
        @register_rule
        class ShellLiteral(Rule):
            rule_id = "zz-test-shell"
            o_class = "O4"
            severity = "info"
            description = "test rule"

            def scan(self, ctx):
                for position, text in enumerate(ctx.texts):
                    if text.lower() == "shell":
                        yield self.finding(ctx, position, "shell call")

        try:
            findings = lint_source("Sub A()\n    Shell cmd\nEnd Sub\n",
                                   rules=("zz-test-shell",))
            assert [f.rule_id for f in findings] == ["zz-test-shell"]
            assert findings[0].line == 2
        finally:
            _REGISTRY.pop("zz-test-shell", None)


class TestLintSource:
    def test_findings_are_sorted(self):
        source = (
            'Private Sub junk()\n    x = x\nEnd Sub\n'
            's = "po" & "we" & "rs"\n'
        )
        findings = lint_source(source)
        keys = [(f.line, f.span[0], f.rule_id) for f in findings]
        assert keys == sorted(keys)

    def test_rule_subset_by_id(self):
        source = 's = "po" & "we" & "rs"\n'
        assert lint_source(source, rules=("o3-chr-chain",)) == []
        assert lint_source(source, rules=("o2-literal-concat",))

    def test_empty_source_is_clean(self):
        assert lint_source("") == []
