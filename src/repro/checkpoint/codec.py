"""The world codec: serialize a live simulation object graph.

Almost everything in a deployment is plain Python data that the stdlib
pickle handles by itself (dataclasses, dicts, ``random.Random`` state,
trie nodes, bound methods of picklable actors).  What pickle refuses
are the *continuations*: the event queue and the actors' work queues
hold lambdas and nested closures (``after_update``, ``step2_try``, …)
whose captured frames carry the in-flight protocol state.

:class:`WorldPickler` closes that gap.  A closure is reduced to its
code object (via :mod:`marshal`), the module whose globals it runs in,
its defaults and its closure cells; cells recurse through the same
pickler, so a cell capturing the relayer serializes as a *reference* to
the one relayer instance in the graph — shared structure and cycles
through containers survive exactly as pickle normally guarantees.

Two restrictions follow from using :mod:`marshal` for code objects, and
both are recorded in the checkpoint manifest and enforced at load time:

* a checkpoint is only loadable under the same ``major.minor`` Python
  version that wrote it;
* functions are rebound against the *current* module source at load
  time only when they are module-level; closure code travels in the
  checkpoint itself.

``docs/CHECKPOINT.md`` documents the callback rules actors must follow
to stay checkpointable; :mod:`repro.checkpoint.registry` enforces them
at snapshot time with errors that name the offending callback.
"""

from __future__ import annotations

import importlib
import io
import marshal
import pickle
import sys
import threading
import types
from typing import Any, Callable, Optional

from repro.errors import ReproError

#: Bumped whenever the reduction scheme changes, or the fields of a
#: pickled class change so that an older payload would restore into an
#: object the current code misreads (docs/CHECKPOINT.md, versioning
#: rules).  2: ``host.accounts.Account`` carries ``size`` and no blob.
#: 3: a ``GuestEnd``'s waiters wait on a guest height, not a host slot,
#: and its staged acks carry the height of the block that commits them.
#: 4: a ``GuestEnd`` has no staged acks; its waiters hold acks too.
#: 5: a ``Relayer`` keeps no missed events and a ``CounterpartyEnd`` no
#: completion frontier; a down relayer's waiters are the restart's.
#: 6: a ``SealableTrie`` holds an edit token and its branch and extension
#: nodes the token of their owner; a ``TxReceipt`` carries its events.
#: 7: proof steps, branch evidence and witness slots carry packed raw
#: digests, and queued batch ops carry proofs into a checkpoint; a
#: ``BranchNode`` caches raw child digests.
#: 8: an ``IbcHost`` indexes its packet writes by height (``writes``,
#: ``written``, ``standing``, ``_deadlines``; ``written_acks`` is gone)
#: and holds ``write_height`` / ``clock`` hooks; a ``GuestEnd`` lost
#: ``outstanding``, a ``CounterpartyEnd`` its send cursor ``_seen``, a
#: ``GuestContract`` ``_pending_packets`` / ``_packets_by_height``.
CODEC_VERSION = 8

#: ``major.minor`` of the interpreter — marshal'd code objects are not
#: portable across interpreter feature releases.
PYTHON_TAG = f"{sys.version_info.major}.{sys.version_info.minor}"


class CheckpointError(ReproError):
    """A world could not be serialized, or a checkpoint failed audit."""


# ----------------------------------------------------------------------
# Rebuild helpers (must stay module-level: they are pickled by name)
# ----------------------------------------------------------------------


def _module_globals(module_name: str) -> dict:
    module = sys.modules.get(module_name)
    if module is None:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            # A closure defined in a dead module (e.g. a deleted test
            # file) still runs off its own code and cells; give it an
            # empty globals dict with __builtins__ wired.
            return {"__builtins__": __builtins__, "__name__": module_name}
    return module.__dict__


def _make_function(code_bytes: bytes, module_name: str,
                   qualname: str) -> types.FunctionType:
    """Skeleton function: code + globals + *empty* cells.

    Captured values (and defaults) arrive later through
    :func:`_apply_function_state`, after the skeleton is in the
    unpickler's memo — that ordering is what lets a recursive closure
    (one whose cell contains the function itself, like the guest API's
    ``pump``) round-trip instead of recursing forever.
    """
    code = marshal.loads(code_bytes)
    closure = tuple(types.CellType() for _ in code.co_freevars) or None
    function = types.FunctionType(
        code, _module_globals(module_name), code.co_name, None, closure,
    )
    function.__qualname__ = qualname
    return function


def _apply_function_state(function: types.FunctionType, state: dict) -> None:
    function.__defaults__ = state["defaults"]
    if state["kwdefaults"]:
        function.__kwdefaults__ = dict(state["kwdefaults"])
    # Copy captured values into the skeleton's own cells.  Cell *values*
    # stay shared through the pickle memo (two closures over one dict
    # still see one dict); the cell objects themselves are fresh — see
    # docs/CHECKPOINT.md for the no-shared-``nonlocal`` rule this
    # implies for actors.
    for skeleton_cell, saved_cell in zip(function.__closure__ or (),
                                         state["cells"] or ()):
        try:
            skeleton_cell.cell_contents = saved_cell.cell_contents
        except ValueError:
            pass  # genuinely empty cell (never assigned) stays empty


def _make_empty_cell() -> types.CellType:
    return types.CellType()


def _fill_cell(cell: types.CellType, contents: tuple) -> None:
    # ``contents`` is () for an empty cell, (value,) otherwise —
    # wrapping distinguishes "empty" from "contains None".
    if contents:
        cell.cell_contents = contents[0]


def _rebuild_code(code_bytes: bytes) -> types.CodeType:
    return marshal.loads(code_bytes)


def _is_module_level(function: types.FunctionType) -> bool:
    """True when pickle's save-by-reference would round-trip ``function``."""
    qualname = getattr(function, "__qualname__", "")
    if "<locals>" in qualname or function.__name__ == "<lambda>":
        return False
    module = sys.modules.get(getattr(function, "__module__", None) or "")
    if module is None:
        return False
    obj: Any = module
    for part in qualname.split("."):
        obj = getattr(obj, part, None)
        if obj is None:
            return False
    return obj is function


class WorldPickler(pickle.Pickler):
    """Pickler that additionally serializes closures, cells and code."""

    def reducer_override(self, obj):  # noqa: C901 - type dispatch
        # Functions and cells use the two-phase skeleton/state reduce:
        # the skeleton is memoized before its captured values are
        # saved, so cyclic capture graphs (``pump`` holding a cell that
        # holds ``pump``) terminate through the pickle memo.
        if isinstance(obj, types.FunctionType) and not _is_module_level(obj):
            return (
                _make_function,
                (
                    marshal.dumps(obj.__code__),
                    obj.__module__ or "builtins",
                    obj.__qualname__,
                ),
                {
                    "defaults": obj.__defaults__,
                    "kwdefaults": obj.__kwdefaults__,
                    "cells": obj.__closure__,
                },
                None,
                None,
                _apply_function_state,
            )
        if isinstance(obj, types.CellType):
            try:
                contents = (obj.cell_contents,)
            except ValueError:
                contents = ()
            return (_make_empty_cell, (), contents, None, None, _fill_cell)
        if isinstance(obj, types.CodeType):
            return (_rebuild_code, (marshal.dumps(obj),))
        return NotImplemented


# ----------------------------------------------------------------------
# Deep-stack execution
# ----------------------------------------------------------------------
#
# Continuation-passing actors (the relayer's ``after_update`` chain, the
# guest API's ``pump`` loop) link closures through their cells: under a
# congested light-client backlog the live graph contains chains of
# closures tens of thousands of links long.  Pickle serializes depth-
# first, so the *serialization* depth equals the chain length even
# though the graph's diameter is tiny.  Rather than force every actor
# into an artificial iterative style, the codec runs dump/load on a
# dedicated thread with a large C stack and a recursion limit to match.

_DEEP_STACK_BYTES = 512 * 1024 * 1024
_DEEP_RECURSION_LIMIT = 1_000_000


def _call_with_deep_stack(fn: Callable[[], Any]) -> Any:
    """Run ``fn`` on a big-stack thread, re-raising its exception here."""
    outcome: dict[str, Any] = {}

    def runner() -> None:
        previous_limit = sys.getrecursionlimit()
        sys.setrecursionlimit(_DEEP_RECURSION_LIMIT)
        try:
            outcome["value"] = fn()
        except BaseException as exc:  # noqa: BLE001 - transported to caller
            outcome["error"] = exc
        finally:
            sys.setrecursionlimit(previous_limit)

    previous_size = threading.stack_size(_DEEP_STACK_BYTES)
    try:
        thread = threading.Thread(target=runner, name="checkpoint-codec")
        thread.start()
    finally:
        threading.stack_size(previous_size)
    thread.join()
    if "error" in outcome:
        raise outcome["error"]
    return outcome["value"]


def dumps_world(root: Any) -> bytes:
    """Serialize ``root`` (any object graph) with closure support."""
    buffer = io.BytesIO()

    def dump() -> None:
        WorldPickler(buffer, protocol=pickle.HIGHEST_PROTOCOL).dump(root)

    try:
        _call_with_deep_stack(dump)
    except (pickle.PicklingError, TypeError, ValueError, AttributeError) as exc:
        raise CheckpointError(
            f"world is not checkpointable: {exc} — see docs/CHECKPOINT.md "
            "for the callback rules actors must follow"
        ) from exc
    return buffer.getvalue()


def loads_world(payload: bytes, python_tag: Optional[str] = None) -> Any:
    """Reconstruct a graph written by :func:`dumps_world`.

    ``python_tag`` (from the manifest) guards the marshal'd code against
    interpreter drift.
    """
    if python_tag is not None and python_tag != PYTHON_TAG:
        raise CheckpointError(
            f"checkpoint was written under Python {python_tag}; this "
            f"interpreter is {PYTHON_TAG} (marshal'd closure code is not "
            "portable across feature releases)"
        )
    try:
        return _call_with_deep_stack(lambda: pickle.loads(payload))
    except Exception as exc:  # noqa: BLE001 - surface as a checkpoint error
        raise CheckpointError(f"corrupt or incompatible checkpoint payload: {exc}") from exc
