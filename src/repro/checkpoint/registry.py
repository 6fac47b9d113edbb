"""Registry of schedulable actors: the checkpointability rule.

A snapshot can only re-bind what it can name, so every continuation in
the event queue must be one of:

* a **bound method** of a registered actor class (the normal case —
  ``cranker._poll``, ``chain._produce_block``, …);
* a **module-level function** of a registered module, which pickle
  saves by its qualified name;
* a ``functools.partial`` of either, judged by its ``.func`` (its
  arguments are plain data, which the codec checks as it pickles them);
* a **builtin method of a plain container** (``fired.append``).

A closure or a lambda is refused wherever it was defined: it has no
name to be found by at restore time.  The refusal comes at snapshot
time, with an error naming the callback, instead of as a checkpoint
that cannot be restored; a closure held anywhere else in the world
fails the codec's pickling with its qualified name.

All ``repro.*`` modules are registered by default, so every in-tree
actor is checkpointable out of the box.  Embedders add their own actor
classes with :func:`register_actor` (or whole namespaces with
:func:`register_namespace`).
"""

from __future__ import annotations

import functools
import sys
import types
from typing import Any, Callable, Iterable

from repro.checkpoint.codec import CheckpointError

#: Module-name prefixes whose functions and classes are checkpoint-safe.
_NAMESPACES: set[str] = {"repro"}

#: Explicitly registered actor classes (beyond the namespace rule).
_ACTOR_CLASSES: set[type] = set()


def register_namespace(prefix: str) -> None:
    """Mark every module under ``prefix`` as checkpoint-safe."""
    _NAMESPACES.add(prefix.rstrip("."))


def register_actor(cls: type) -> type:
    """Register an actor class whose bound methods may be scheduled.

    Usable as a decorator; returns ``cls`` unchanged.
    """
    _ACTOR_CLASSES.add(cls)
    return cls


def _module_registered(module_name: str) -> bool:
    if not module_name:
        return False
    if module_name == "builtins":
        return True
    head = module_name.split(".", 1)[0]
    return head in _NAMESPACES or module_name in _NAMESPACES


def _is_module_level(function: types.FunctionType) -> bool:
    """True when pickle's save-by-name would find ``function`` again."""
    module = sys.modules.get(function.__module__ or "")
    obj: Any = module
    for part in function.__qualname__.split("."):
        obj = getattr(obj, part, None)
    return obj is function


def _owner_of(callback: Callable[..., Any]):
    """(kind, detail) classification of a scheduled callback."""
    while isinstance(callback, functools.partial):
        callback = callback.func
    if isinstance(callback, types.MethodType):
        owner = type(callback.__self__)
        if owner in _ACTOR_CLASSES or _module_registered(owner.__module__):
            return "ok", None
        return "unregistered-actor", (
            f"bound method {callback.__func__.__qualname__} of unregistered "
            f"actor class {owner.__module__}.{owner.__qualname__}"
        )
    if isinstance(callback, types.BuiltinMethodType):
        return "ok", None  # e.g. list.append of a plain container
    if isinstance(callback, types.FunctionType):
        if not _is_module_level(callback):
            return "closure", (
                f"closure {callback.__qualname__} (module "
                f"{callback.__module__!r}) has no name to restore by: "
                "schedule a bound method or a partial instead"
            )
        if _module_registered(callback.__module__ or ""):
            return "ok", None
        return "unregistered-module", (
            f"function {callback.__qualname__} defined in unregistered "
            f"module {callback.__module__!r}"
        )
    if callable(callback):
        owner = type(callback)
        if owner in _ACTOR_CLASSES or _module_registered(owner.__module__):
            return "ok", None
        return "unregistered-callable", (
            f"callable of unregistered type {owner.__module__}.{owner.__qualname__}"
        )
    return "not-callable", f"{callback!r} is not callable"


def validate_event_queue(sim) -> None:
    """Check every live scheduled callback against the registry.

    Raises :class:`CheckpointError` listing each violation; a clean pass
    means the queue's continuations can be re-bound at restore time.
    """
    problems = validation_errors(
        handle.callback for _, handle in sim.iter_pending()
    )
    if problems:
        details = "\n  - ".join(problems)
        raise CheckpointError(
            "event queue holds callbacks outside the checkpoint registry "
            "(schedule methods of registered actors, or register your "
            "module/class — docs/CHECKPOINT.md):\n  - " + details
        )


def validation_errors(callbacks: Iterable[Callable[..., Any]]) -> list[str]:
    """The registry violations among ``callbacks`` (deduplicated)."""
    problems: list[str] = []
    seen: set[str] = set()
    for callback in callbacks:
        status, detail = _owner_of(callback)
        if status != "ok" and detail not in seen:
            seen.add(detail)
            problems.append(detail)
    return problems
