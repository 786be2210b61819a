"""O1 — random-identifier obfuscation rules.

O1 obfuscators rename every declared identifier to machine-generated
noise (``ueiwjfdjkfdsv``, ``bakoteruna``, ``x7k2p9q4w``).  Human VBA code
carries the opposite signals: dictionary fragments, CamelCase/Hungarian
casing, short loop variables.  Two rules key on that difference — a
per-name gibberish test and a module-level naming-profile test.
"""

from __future__ import annotations

import re

from repro.lint.context import LintContext
from repro.lint.registry import Rule, register_rule

_VOWELS = frozenset("aeiou")
_DIGIT_GROUPS = re.compile(r"[0-9]+")


def looks_machine_generated(name: str) -> bool:
    """Heuristic: is this identifier machine noise rather than a human name?

    Only caseless (no interior capitals, no underscores) names of six or
    more characters qualify — casing and word separators are strong human
    signals, and short names (``i``, ``cnt``, ``tmp``) are idiomatic VBA.
    """
    if len(name) < 6:
        return False
    if any(ch.isupper() for ch in name) or "_" in name:
        return False
    # Letter-digit soup: ``x7k2p9q4w`` — several digit islands in one name.
    if len(_DIGIT_GROUPS.findall(name)) >= 2:
        return True
    letters = [ch for ch in name if ch.isalpha()]
    if len(letters) < 6:
        return False
    vowel_ratio = sum(ch in _VOWELS for ch in letters) / len(letters)
    run = longest = 0
    for ch in letters:
        run = run + 1 if ch not in _VOWELS else 0
        longest = max(longest, run)
    # Uniform letter soup: long consonant pileups or near-vowel-free names.
    if longest >= 4:
        return True
    if vowel_ratio <= 0.2:
        return True
    # Consonant-vowel generators: near-perfect alternation sustained over
    # 8+ letters, which English compounds essentially never do lowercase.
    if len(letters) >= 8 and 0.3 <= vowel_ratio <= 0.6:
        flips = sum(
            (a in _VOWELS) != (b in _VOWELS)
            for a, b in zip(letters, letters[1:])
        )
        if flips / (len(letters) - 1) >= 0.8:
            return True
    return False


@register_rule
class GibberishIdentifier(Rule):
    """A declared identifier that reads as machine-generated noise."""

    rule_id = "o1-gibberish-identifier"
    o_class = "O1"
    severity = "medium"
    description = (
        "declared identifier looks randomly generated "
        "(consonant soup, digit islands, or synthetic syllables)"
    )

    def scan(self, ctx: LintContext):
        for name in ctx.analysis.declared_identifiers:
            if not looks_machine_generated(name):
                continue
            token = ctx.first_identifier(name.lower())
            if token is None:
                continue
            yield self.finding(
                ctx,
                token,
                f"identifier {name!r} looks machine-generated",
            )


@register_rule
class NamingProfile(Rule):
    """Every declared name in the module is caseless machine-style.

    Real macros virtually always declare at least one CamelCase procedure
    or Hungarian-prefixed variable; a module whose *entire* declaration
    set is long caseless names has been bulk-renamed.
    """

    rule_id = "o1-naming-profile"
    o_class = "O1"
    severity = "low"
    description = "all declared identifiers share a caseless machine-naming profile"

    def scan(self, ctx: LintContext):
        declared = ctx.analysis.declared_identifiers
        if len(declared) < 2:
            return
        if not all(len(name) >= 6 and name == name.lower() for name in declared):
            return
        token = ctx.first_identifier(declared[0].lower())
        if token is None:
            return
        yield self.finding(
            ctx,
            token,
            f"all {len(declared)} declared identifiers are long caseless "
            "names — bulk-renaming profile",
        )
