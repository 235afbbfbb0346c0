"""Coalition blameworthiness over finite one-shot games.

Formulas combine two modalities: N (true at every play of the game) and
B{...} (the formula is true here and the coalition had a joint action
that would have kept it false everywhere).  The package parses and
prints formulas, model-checks them on games, extracts blame witnesses,
verifies Hilbert-style derivations in the matching axiom system, and
fuzz-tests the axioms' soundness on random games.

A name is public when it is in its module's ``__all__``; the package
imports that module the first time the name is asked for (PEP 562).
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# Dependency order: looking a name up imports its module and the ones
# before it, never a module that depends on it.
_MODULES = ("formula", "parser", "game", "checker", "proofs", "generate")


def _public() -> list[str]:
    return [*_MODULES, *(n for m in _MODULES for n in _import_module(f".{m}", __name__).__all__)]


def __getattr__(name: str):
    if name == "__all__":
        value = _public()
    elif name in _MODULES:
        value = _import_module(f".{name}", __name__)
    else:
        for m in _MODULES:
            module = _import_module(f".{m}", __name__)
            if name in module.__all__:
                value = getattr(module, name)
                break
        else:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_public()})
