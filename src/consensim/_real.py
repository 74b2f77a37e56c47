"""What the constructors accept as a real number: any ``numbers.Real``
(Python and numpy ints and floats, fractions) except bools. ``float()``
alone would also take the string '0.5' and the bool True."""

from __future__ import annotations

import numbers


def is_real_type(cls: type) -> bool:
    return cls is float or (issubclass(cls, numbers.Real) and not issubclass(cls, bool))


def real(value, what: str) -> float:
    """``value`` as a float; anything but a real number raises a TypeError
    naming ``what``. A plain float passes through untouched."""
    if type(value) is not float:
        if not is_real_type(type(value)):
            raise TypeError(f"{what} must be a real number, got {value!r}")
        value = float(value)
    return value
