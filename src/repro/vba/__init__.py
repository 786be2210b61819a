"""VBA language substrate: lexer, structural analyzer, built-in catalogs."""

from repro.vba.analyzer import CallSite, MacroAnalysis, analyze
from repro.vba.lexer import TokenTable, lex, significant_tokens, tokenize
from repro.vba.tokens import Token, TokenKind, VBA_KEYWORDS
from repro.vba.writer import CodeWriter, chunk_string, quote_vba_string

__all__ = [
    "CallSite",
    "CodeWriter",
    "MacroAnalysis",
    "Token",
    "TokenKind",
    "TokenTable",
    "VBA_KEYWORDS",
    "analyze",
    "chunk_string",
    "lex",
    "quote_vba_string",
    "significant_tokens",
    "tokenize",
]
