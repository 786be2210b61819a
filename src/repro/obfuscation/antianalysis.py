"""Anti-analysis techniques from §VI.B of the paper.

These tricks are *not* counted as O1–O4 obfuscation, but the paper observes
they "tend to be found together in obfuscated VBA macros", so the corpus
generator mixes them into obfuscated samples:

1. **Hiding string data** — move a string literal out of the macro body into
   a document storage location (document variable / control caption) and read
   it back at runtime (Fig. 8(a)).  The moved values are recorded in
   ``context.document_variables`` so the synthetic document container can
   carry them.
2. **Inserting broken code** — append syntactically broken statements after
   an ``Exit Sub``, never reached at runtime but fatal to naive parsers
   (Fig. 8(b)).
3. **Changing the flow** — wrap the payload in an environment check
   (sandbox-evasion style conditional).
"""

from __future__ import annotations

import re

from repro.obfuscation.base import ObfuscationContext
from repro.vba.lexer import lex
from repro.vba.tokens import TokenKind, string_value

_SUB_BODY_PATTERN = re.compile(
    r"(Sub\s+\w+\s*\([^)]*\)\s*\n)(.*?)(End Sub)", re.DOTALL | re.IGNORECASE
)

#: Document storage expressions a macro can read hidden strings from,
#: mirroring Fig. 8(a) and the [MS-OFORMS] locations the paper lists.
#: ``{name}`` is a fresh random name; ``{index}`` a unique control index, so
#: every hidden string gets its own storage slot.
_STORAGE_TEMPLATES = (
    'ActiveDocument.Variables("{name}").Value()',
    "UserForm1.Label{index}.Caption",
    "UserForm1.TextBox{index}.ControlTipText",
    'ActiveWorkbook.CustomDocumentProperties("{name}").Value',
)


class StringHider:
    """Hide selected string literals in document storage (Fig. 8(a)).

    Each hidden string is recorded in ``context.document_variables`` keyed by
    the exact storage *expression* the macro reads at runtime, so both the
    document container builder and the interpreter's ``host_values`` can
    resolve it.
    """

    category = "anti"

    def __init__(self, hide_probability: float = 0.4, min_length: int = 6) -> None:
        self._probability = hide_probability
        self._min_length = min_length

    def apply(self, source: str, context: ObfuscationContext) -> str:
        table = lex(source)
        string = TokenKind.STRING
        parts: list[str] = []
        control_index = 1
        for kind, text in zip(table.kinds, table.texts):
            eligible = (
                kind is string
                and len(string_value(text)) >= self._min_length
                and context.rng.random() < self._probability
            )
            if eligible:
                name = context.fresh_camel_name()
                template = context.rng.choice(_STORAGE_TEMPLATES)
                expression = template.format(name=name, index=control_index)
                control_index += 1
                context.document_variables[expression] = string_value(text)
                parts.append(expression)
            else:
                parts.append(text)
        return "".join(parts)


class BrokenCodeInserter:
    """Append unreachable, syntactically broken code after ``Exit Sub``.

    Mirrors Fig. 8(b): the instruction pointer leaves the procedure before
    the broken statements (``Colu.mns(...)``) are reached, but a code parser
    that tries to resolve the dangling objects fails.
    """

    category = "anti"

    _BROKEN_SNIPPETS = (
        "    Rows.Select\n"
        "    'Broken code here\n"
        "    Selection.RowHeight = 15\n"
        '    Colu.mns("A:A").Delete\n'
        "    Next brk\n"
        '    Colu.mns("A").ColumnWidth = 25\n',
        "    Sel.ection.Interior.ColorIndex = 6\n"
        "    Loop\n"
        '    Wor.ksheets("Data").Activate\n'
        "    Ran.ge(Cells(1, 1), Cells(9, 9)).Merge\n",
        "    App.lication.ScreenUpdating = Fal.se\n"
        "    Wend\n"
        "    Act.iveSheet.PageSetup.Orientation = 2\n",
    )

    def apply(self, source: str, context: ObfuscationContext) -> str:
        snippet = context.rng.choice(self._BROKEN_SNIPPETS)

        def inject(match: re.Match) -> str:
            header, body, footer = match.groups()
            return f"{header}{body}    Exit Sub\n{snippet}{footer}"

        return _SUB_BODY_PATTERN.sub(inject, source, count=1)


class FlowChanger:
    """Wrap procedure bodies in a sandbox-evasion conditional (§VI.B.3)."""

    category = "anti"

    _GUARDS = (
        "If RecentFiles.Count > 2 Then",
        'If Environ("USERNAME") <> "sandbox" Then',
        "If Application.Windows.Count > 0 Then",
        "If Now() > #1/1/2015# Then",
    )

    def apply(self, source: str, context: ObfuscationContext) -> str:
        guard = context.rng.choice(self._GUARDS)

        def wrap(match: re.Match) -> str:
            header, body, footer = match.groups()
            indented = "".join(
                "    " + line + "\n" if line.strip() else "\n"
                for line in body.splitlines()
            )
            return f"{header}    {guard}\n{indented}    End If\n{footer}"

        return _SUB_BODY_PATTERN.sub(wrap, source, count=1)
