"""The abstract value domain for :mod:`repro.sa`.

A flat constant-propagation lattice: every value is either a *concrete*
VBA value (``str``, ``int``, ``float``, ``bool``, ``None``, or a Python
``list`` standing in for a 1-D array whose elements are themselves
abstract values) or :data:`TOP` — "any value".  There is no bottom
element: unreachable code is simply not executed.

``join`` is the lattice join: equal concrete values stay concrete,
anything else widens to ⊤.  Because the lattice has height 2, chaotic
iteration over loop bodies converges after at most one widening per
variable, which is what keeps the analyzer's loop handling cheap.
"""

from __future__ import annotations


class _Top:
    """The ⊤ element: a value the analyzer cannot pin down statically."""

    __slots__ = ()
    _instance: "_Top | None" = None

    def __new__(cls) -> "_Top":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "⊤"

    def __bool__(self) -> bool:  # pragma: no cover - misuse guard
        raise TypeError("⊤ has no truth value; use is_top() and branch joins")


#: The single ⊤ instance.  Compare with ``is``.
TOP = _Top()


def is_top(value: object) -> bool:
    return value is TOP


def is_concrete(value: object) -> bool:
    """True when ``value`` contains no ⊤ anywhere (arrays included)."""
    if value is TOP:
        return False
    if isinstance(value, list):
        return all(is_concrete(item) for item in value)
    return True


def join(left: object, right: object) -> object:
    """Lattice join of two abstract values."""
    if left is right:
        return left  # keeps a shared array the same object on both sides
    if left is TOP or right is TOP:
        return TOP
    if isinstance(left, list) and isinstance(right, list):
        if len(left) != len(right):
            return TOP
        return [join(a, b) for a, b in zip(left, right)]
    if isinstance(left, list) or isinstance(right, list):
        return TOP
    # bool is an int subclass; require identical types so True != -1 stays
    # distinguishable the way VBA's Variant keeps them distinguishable.
    if type(left) is not type(right):
        if isinstance(left, (int, float)) and isinstance(right, (int, float)) and not (
            isinstance(left, bool) or isinstance(right, bool)
        ):
            return left if left == right else TOP
        return TOP
    return left if left == right else TOP


def join_envs(
    target: dict[str, object], other: dict[str, object]
) -> dict[str, object]:
    """Join two variable environments in place (into ``target``).

    A name bound in only one environment may or may not have been
    assigned, so it widens to ⊤.
    """
    if target.keys() == other.keys():
        for key, value in other.items():
            if target[key] is not value:
                target[key] = join(target[key], value)
        return target
    for key in set(target) | set(other):
        if key in target and key in other:
            target[key] = join(target[key], other[key])
        else:
            target[key] = TOP
    return target
