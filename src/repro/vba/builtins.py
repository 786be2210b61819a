"""Values, coercions and built-in functions of the executable VBA subset.

Shared by the one AST walker (:class:`repro.sa.interpreter.AbstractInterpreter`)
and its concrete face (:class:`repro.vba.interpreter.Interpreter`): the
coercions define what a VBA value means as a number, an integer, a
condition and a string, and every built-in is a plain function of
concrete arguments that raises :class:`VBARuntimeError` when VBA would.
"""

from __future__ import annotations

import math


class VBARuntimeError(Exception):
    """Raised when execution leaves the supported subset or errors out."""

    def __init__(self, message: str, line: int = 0) -> None:
        super().__init__(f"line {line}: {message}" if line else message)
        self.line = line


# ----------------------------------------------------------------------
# Coercions


def _truthy(value: object, line: int = 0) -> bool:
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, float)):
        return value != 0
    if value is None:
        return False
    raise VBARuntimeError(f"cannot use {value!r} as a condition", line)


def _as_number(value: object, line: int) -> int | float:
    if isinstance(value, bool):
        return -1 if value else 0  # VBA True is -1
    if value is None:
        return 0  # uninitialized variables are Empty, numerically 0
    if isinstance(value, (int, float)):
        return value
    if isinstance(value, str):
        try:
            return float(value) if "." in value else int(value)
        except ValueError:
            raise VBARuntimeError(
                f"type mismatch: {value!r} is not numeric", line
            ) from None
    raise VBARuntimeError(f"type mismatch: {value!r}", line)


def _as_int(value: object, line: int) -> int:
    number = _as_number(value, line)
    if isinstance(number, float):
        return _banker_round(number)
    return number


def _banker_round(value: float) -> int:
    """VBA CLng/CInt use banker's rounding, which is Python's ``round``."""
    return int(round(value))


def _to_vba_string(value: object) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "True" if value else "False"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    if value is None:
        return ""
    return str(value)


def _compare(op: str, left: object, right: object, line: int) -> bool:
    if isinstance(left, str) != isinstance(right, str):
        # Mixed comparison: coerce to numbers where possible.
        left = _as_number(left, line)
        right = _as_number(right, line)
    if op == "=":
        return left == right
    if op == "<>":
        return left != right
    if op == "<":
        return left < right
    if op == ">":
        return left > right
    if op == "<=":
        return left <= right
    return left >= right


# ----------------------------------------------------------------------
# Built-in functions


def _require(args: list, count: int, name: str, line: int) -> None:
    if len(args) < count:
        raise VBARuntimeError(f"{name} needs {count} argument(s)", line)


def _bi_chr(args, line):
    _require(args, 1, "Chr", line)
    code = _as_int(args[0], line)
    if not 0 <= code < 0x110000:
        raise VBARuntimeError(f"Chr out of range: {code}", line)
    return chr(code)


def _bi_asc(args, line):
    _require(args, 1, "Asc", line)
    text = _to_vba_string(args[0])
    if not text:
        raise VBARuntimeError("Asc of empty string", line)
    return ord(text[0])


def _bi_len(args, line):
    _require(args, 1, "Len", line)
    value = args[0]
    if isinstance(value, list):
        return len(value)
    return len(_to_vba_string(value))


def _bi_mid(args, line):
    _require(args, 2, "Mid", line)
    text = _to_vba_string(args[0])
    start = _as_int(args[1], line)
    if start < 1:
        raise VBARuntimeError("Mid start must be >= 1", line)
    if len(args) >= 3:
        length = _as_int(args[2], line)
        return text[start - 1 : start - 1 + length]
    return text[start - 1 :]


def _bi_left(args, line):
    _require(args, 2, "Left", line)
    return _to_vba_string(args[0])[: _as_int(args[1], line)]


def _bi_right(args, line):
    _require(args, 2, "Right", line)
    count = _as_int(args[1], line)
    text = _to_vba_string(args[0])
    return text[-count:] if count else ""


def _bi_replace(args, line):
    _require(args, 3, "Replace", line)
    return _to_vba_string(args[0]).replace(
        _to_vba_string(args[1]), _to_vba_string(args[2])
    )


def _bi_instr(args, line):
    # InStr([start, ]haystack, needle)
    _require(args, 2, "InStr", line)
    if isinstance(args[0], (int, float)) and len(args) >= 3:
        start = _as_int(args[0], line)
        haystack = _to_vba_string(args[1])
        needle = _to_vba_string(args[2])
    else:
        start = 1
        haystack = _to_vba_string(args[0])
        needle = _to_vba_string(args[1])
    if start < 1:
        raise VBARuntimeError("InStr start must be >= 1", line)
    position = haystack.find(needle, start - 1)
    return position + 1


def _bi_instrrev(args, line):
    _require(args, 2, "InStrRev", line)
    haystack = _to_vba_string(args[0])
    needle = _to_vba_string(args[1])
    return haystack.rfind(needle) + 1


def _bi_lcase(args, line):
    _require(args, 1, "LCase", line)
    return _to_vba_string(args[0]).lower()


def _bi_ucase(args, line):
    _require(args, 1, "UCase", line)
    return _to_vba_string(args[0]).upper()


def _bi_trim(args, line):
    _require(args, 1, "Trim", line)
    return _to_vba_string(args[0]).strip(" ")


def _bi_ltrim(args, line):
    _require(args, 1, "LTrim", line)
    return _to_vba_string(args[0]).lstrip(" ")


def _bi_rtrim(args, line):
    _require(args, 1, "RTrim", line)
    return _to_vba_string(args[0]).rstrip(" ")


def _bi_space(args, line):
    _require(args, 1, "Space", line)
    return " " * _as_int(args[0], line)


def _bi_string(args, line):
    _require(args, 2, "String", line)
    count = _as_int(args[0], line)
    char = _to_vba_string(args[1])[:1]
    return char * count


def _bi_strreverse(args, line):
    _require(args, 1, "StrReverse", line)
    return _to_vba_string(args[0])[::-1]


def _bi_split(args, line):
    _require(args, 1, "Split", line)
    delimiter = _to_vba_string(args[1]) if len(args) >= 2 else " "
    return _to_vba_string(args[0]).split(delimiter)


def _bi_join(args, line):
    _require(args, 1, "Join", line)
    if not isinstance(args[0], list):
        raise VBARuntimeError("Join needs an array", line)
    delimiter = _to_vba_string(args[1]) if len(args) >= 2 else " "
    return delimiter.join(_to_vba_string(item) for item in args[0])


def _bi_array(args, line):
    return list(args)


def _bi_ubound(args, line):
    _require(args, 1, "UBound", line)
    if not isinstance(args[0], list):
        raise VBARuntimeError("UBound needs an array", line)
    return len(args[0]) - 1


def _bi_lbound(args, line):
    _require(args, 1, "LBound", line)
    if not isinstance(args[0], list):
        raise VBARuntimeError("LBound needs an array", line)
    return 0


def _bi_cstr(args, line):
    _require(args, 1, "CStr", line)
    return _to_vba_string(args[0])


def _bi_clng(args, line):
    _require(args, 1, "CLng", line)
    value = args[0]
    if isinstance(value, str):
        return _string_to_number(value, line, integral=True)
    return _as_int(value, line)


def _bi_cint(args, line):
    return _bi_clng(args, line)


def _bi_cbool(args, line):
    _require(args, 1, "CBool", line)
    return _truthy(args[0], line)


def _bi_cdbl(args, line):
    _require(args, 1, "CDbl", line)
    value = args[0]
    if isinstance(value, str):
        return float(_string_to_number(value, line, integral=False))
    return float(_as_number(value, line))


def _bi_val(args, line):
    _require(args, 1, "Val", line)
    text = _to_vba_string(args[0]).strip()
    if text.lower().startswith("&h"):
        digits = ""
        for ch in text[2:]:
            if ch in "0123456789abcdefABCDEF":
                digits += ch
            else:
                break
        return int(digits, 16) if digits else 0
    # Val reads the longest numeric prefix, 0 if none.
    best = 0.0
    matched = False
    for end in range(len(text), 0, -1):
        try:
            best = float(text[:end])
            matched = True
            break
        except ValueError:
            continue
    if not matched:
        return 0
    return int(best) if best.is_integer() else best


def _string_to_number(text: str, line: int, integral: bool) -> int | float:
    stripped = text.strip()
    try:
        if stripped.lower().startswith("&h"):
            return int(stripped[2:], 16)
        value = float(stripped)
    except ValueError:
        raise VBARuntimeError(f"type mismatch: {text!r}", line) from None
    return _banker_round(value) if integral else value


def _bi_hex(args, line):
    _require(args, 1, "Hex", line)
    return format(_as_int(args[0], line), "X")


def _bi_oct(args, line):
    _require(args, 1, "Oct", line)
    return format(_as_int(args[0], line), "o")


def _bi_abs(args, line):
    _require(args, 1, "Abs", line)
    return abs(_as_number(args[0], line))


def _bi_sqr(args, line):
    _require(args, 1, "Sqr", line)
    value = _as_number(args[0], line)
    if value < 0:
        raise VBARuntimeError("Sqr of negative number", line)
    return value**0.5


def _bi_round(args, line):
    _require(args, 1, "Round", line)
    digits = _as_int(args[1], line) if len(args) >= 2 else 0
    return round(_as_number(args[0], line), digits)


def _bi_int(args, line):
    _require(args, 1, "Int", line)
    return math.floor(_as_number(args[0], line))


def _bi_fix(args, line):
    _require(args, 1, "Fix", line)
    return int(_as_number(args[0], line))


def _bi_sgn(args, line):
    _require(args, 1, "Sgn", line)
    value = _as_number(args[0], line)
    return (value > 0) - (value < 0)


def _bi_isnumeric(args, line):
    _require(args, 1, "IsNumeric", line)
    value = args[0]
    if isinstance(value, (int, float, bool)):
        return True
    if isinstance(value, str):
        try:
            float(value)
            return True
        except ValueError:
            return False
    return False


def _bi_strcomp(args, line):
    _require(args, 2, "StrComp", line)
    left, right = _to_vba_string(args[0]), _to_vba_string(args[1])
    if len(args) >= 3 and _as_int(args[2], line) == 1:
        left, right = left.lower(), right.lower()
    return (left > right) - (left < right)


def _bi_strconv(args, line):
    _require(args, 2, "StrConv", line)
    text = _to_vba_string(args[0])
    mode = _as_int(args[1], line)
    if mode == 1:
        return text.upper()
    if mode == 2:
        return text.lower()
    if mode == 3:
        return text.title()
    return text


_BUILTINS = {
    "chr": _bi_chr, "chr$": _bi_chr, "chrw": _bi_chr,
    "asc": _bi_asc, "ascw": _bi_asc,
    "len": _bi_len,
    "mid": _bi_mid, "mid$": _bi_mid,
    "left": _bi_left, "left$": _bi_left,
    "right": _bi_right, "right$": _bi_right,
    "replace": _bi_replace,
    "instr": _bi_instr,
    "instrrev": _bi_instrrev,
    "lcase": _bi_lcase, "lcase$": _bi_lcase,
    "ucase": _bi_ucase, "ucase$": _bi_ucase,
    "trim": _bi_trim, "ltrim": _bi_ltrim, "rtrim": _bi_rtrim,
    "space": _bi_space,
    "string": _bi_string, "string$": _bi_string,
    "strreverse": _bi_strreverse,
    "split": _bi_split, "join": _bi_join,
    "array": _bi_array, "ubound": _bi_ubound, "lbound": _bi_lbound,
    "cstr": _bi_cstr, "clng": _bi_clng, "cint": _bi_cint, "cdbl": _bi_cdbl,
    "cbyte": _bi_clng, "cbool": _bi_cbool,
    "val": _bi_val, "hex": _bi_hex, "oct": _bi_oct,
    "abs": _bi_abs, "sqr": _bi_sqr, "round": _bi_round,
    "int": _bi_int, "fix": _bi_fix, "sgn": _bi_sgn,
    "isnumeric": _bi_isnumeric,
    "strcomp": _bi_strcomp, "strconv": _bi_strconv,
}
