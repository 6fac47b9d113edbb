"""Derive once: a value computed from an immutable object is computed
the first time it is asked for and kept on the object.

The consensus and transaction value types (a validator set, a block
header, a queued packet operation, a host transaction) are built once
and never assigned to again, yet their digests and serialisations are
asked for by every layer that handles them — a Tendermint chain commits
to its validator set in every header although the set only changes when
stake moves.  :func:`derive_once` is the one way such a method is
cached (docs/PERFORMANCE.md, "Derive once").  It is
``functools.cached_property`` for a method that stays a method: every
caller keeps writing ``valset.canonical_hash()``.
"""

from __future__ import annotations

from functools import wraps
from typing import Callable, TypeVar

T = TypeVar("T")


def derive_once(method: Callable[..., T]) -> Callable[..., T]:
    """Cache a zero-argument method's result on its instance.

    Sound only where nothing the method reads can change after
    construction: a frozen dataclass whose fields are themselves
    immutable (tuples, bytes, ints), or a class no code assigns to.  The
    value is stored in the instance ``__dict__`` under ``_<method name>``
    — written directly, so a frozen dataclass takes it, and the class
    must not use ``__slots__`` — where dataclass equality, hashing,
    ``repr`` and ``dataclasses.replace`` never look: a copy made through
    the constructor starts cold and derives from its own fields.  The
    cached value does ride ``copy`` and pickle (so a checkpoint restores
    warm), which is safe for the same reason the cache is.  Every caller
    is handed the same object: return a value none of them mutates.
    """
    slot = "_" + method.__name__

    @wraps(method)
    def cached(self) -> T:
        try:
            return self.__dict__[slot]
        except KeyError:
            value = self.__dict__[slot] = method(self)
            return value

    return cached
