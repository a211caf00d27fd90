"""Graph-automatic presentations: the core classes, the builders of the
roster groups, and the combinators that make presentations from others.

The builders and combinators are imported on first use of one of their
names (PEP 562), so a command that only loads a presentation does not
import them."""

import importlib

from .core import (
    FiniteExtensionData,
    FiniteGroupTable,
    GraphAutomaticPresentation,
    GroupWord,
    Nilpotent2Spec,
)

_LAZY = {
    "builders": (
        "abelian_decode",
        "abelian_encode",
        "bs1n",
        "bs_decode",
        "bs_encode",
        "decode_vector",
        "encode_vector",
        "fa_abelian_multiplication",
        "fg_abelian",
        "free_group",
        "free_word",
        "gamma_free",
        "heisenberg",
        "nilpotent2",
        "semidirect_zn_z",
        "ut",
        "ut_m",
        "wreath_decode",
        "wreath_encode",
        "wreath_finite_by_z",
        "zn",
    ),
    "combinators": (
        "direct_product",
        "extend_generator",
        "finite_extension",
        "free_product",
        "restrict_to_regular_subgroup",
        "semidirect",
    ),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value

