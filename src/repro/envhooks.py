"""``REPRO_*`` environment hooks: the harness knobs, ``REPRO_REPETITIONS``
and the Provenance Manager's ``REPRO_CAPTURE_TRANSPORT`` all read through
:func:`env_value`, so an operator can retarget a campaign without code."""

from __future__ import annotations

import os
from typing import Callable, TypeVar

__all__ = ["env_value"]

T = TypeVar("T")


def env_value(var: str, parse: Callable[[str], T], default: T) -> T:
    """``parse($var)``, or ``default`` when ``var`` is unset or empty; a
    value ``parse`` rejects raises :class:`ValueError` naming ``var``."""
    raw = os.environ.get(var)
    if not raw:
        return default
    try:
        return parse(raw)
    except ValueError as exc:
        raise ValueError(f"{var}={raw!r}: {exc}") from None
