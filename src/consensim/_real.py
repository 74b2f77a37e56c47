"""What the constructors accept as a real number: any ``numbers.Real``
(Python and numpy ints and floats, fractions) except bools. ``float()``
alone would also take the string '0.5' and the bool True."""

from __future__ import annotations

import numbers


def is_real_type(cls: type) -> bool:
    return cls is float or (issubclass(cls, numbers.Real) and not issubclass(cls, bool))


def real(value, what: str) -> float:
    """``value`` as a float; anything but a real number raises a TypeError
    naming ``what``, and one too large for a float a ValueError naming it.
    A plain float passes through untouched."""
    if type(value) is not float:
        if not is_real_type(type(value)):
            raise TypeError(f"{what} must be a real number, got {shown(value)}")
        try:
            value = float(value)
        except OverflowError:
            raise ValueError(f"{what} is too large for a float") from None
    return value


def shown(value) -> str:
    """``repr(value)`` for an error message, or a placeholder where Python
    refuses to format an integer of more than 4300 digits in it."""
    try:
        return repr(value)
    except ValueError:
        return f"<{type(value).__name__} too long to show>"
