"""No nested function in the package refers to itself.

A nested function whose own name is among its free variables reads itself
from a closure cell, and that cell keeps it alive: a cycle that reference
counting never frees.  This checks every function in the source, where
``test_refcount`` sees only what the calls it makes leave behind.
"""

from inspect import CO_OPTIMIZED
from pathlib import Path
from types import CodeType

import blamelogic

SOURCES = sorted(Path(blamelogic.__file__).parent.glob("*.py"))


def self_referring(code: CodeType, qualname: str):
    """The qualified names of the functions within ``code`` that name themselves freely.

    Built by hand, as ``co_qualname`` exists only from Python 3.11."""
    inner = ".<locals>." if code.co_flags & CO_OPTIMIZED else "."  # a function, not a class body
    for const in code.co_consts:
        if isinstance(const, CodeType):
            name = qualname + inner + const.co_name
            if const.co_name in const.co_freevars:
                yield name
            yield from self_referring(const, name)


def test_no_nested_function_refers_to_itself():
    assert {path.stem for path in SOURCES} >= {"checker", "formula", "generate", "proofs"}
    offenders = [
        name
        for path in SOURCES
        for name in self_referring(compile(path.read_text(), str(path), "exec"), path.stem)
    ]
    assert not offenders, f"nested functions that refer to themselves: {offenders}"
