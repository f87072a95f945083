"""Named subgroups of S4, the universe for every verification run.

All presets act on 4 points so that 4-point configurations are uniform
across groups.  "Z2" and "Z2d" are the two embeddings of the cyclic
group of order 2 (a transposition and a double transposition); "V" is
the normal Klein four-group and "V'" the non-normal one.
"""

from __future__ import annotations

import reprlib
from functools import lru_cache

from .permgroup import PermGroup, generate_group, parse_permutation

__all__ = ["PRESETS", "PRESET_ORDER", "resolve_group"]


# One representative per conjugacy class of subgroups of S4, order ascending.
PRESETS = {
    "trivial": (),
    "Z2": ("(12)",),
    "Z2d": ("(12)(34)",),
    "Z3": ("(123)",),
    "Z4": ("(1234)",),
    "V": ("(12)(34)", "(13)(24)"),
    "V'": ("(12)", "(34)"),
    "S3": ("(123)", "(12)"),
    "D8": ("(1234)", "(13)"),
    "A4": ("(123)", "(12)(34)"),
    "S4": ("(12)", "(1234)"),
}

ALIASES = {
    "A3": "Z3",
    "Z2xZ2": "V",
    "K4": "V",
    "Vprime": "V'",
}

PRESET_ORDER = tuple(PRESETS)


@lru_cache(maxsize=None)
def resolve_group(name: str) -> PermGroup:
    key = ALIASES.get(name, name)
    if key not in PRESETS:
        known = ", ".join(sorted(list(PRESETS) + list(ALIASES)))
        raise KeyError(f"unknown group preset {reprlib.repr(name)}; known presets: {known}")
    return generate_group(map(parse_permutation, PRESETS[key]))

