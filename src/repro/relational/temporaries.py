"""One table of temporaries shared by every program run against one store.

The paper's SQLGen-R emits each query as a script of ``R_e <- e2s(e)``
assignments, and over one DTD the same closures recur from query to query
under different temporary names.  A :class:`SharedTemporaries` table keys
each temporary by its *canonical expression*: the assignment's expression
with every temporary it reads renamed to that temporary's own entry
(:func:`~repro.relational.algebra.rename_scans`).  Equal keys denote the
same relation, so every program that computes a temporary the same way
shares one entry.

The table itself holds keys and counts.  Each engine subclasses
:class:`SharedEntry` for what it keeps per entry: the columnar store the
entry's materialized rows (:class:`repro.relational.columnar.TemporaryEntry`),
the SQLite backend the name of a temp table it creates once
(:mod:`repro.backends.sqlite`).

An entry counts the live programs that use it.  When a program is
garbage-collected (a plan cache evicted it), a weakref callback releases
its entries, and an entry no live program uses leaves the table, so the
table never holds more than the live programs' own temporaries.
"""

from __future__ import annotations

import collections
import contextlib
import threading
import weakref
from typing import Callable, Deque, Dict, Generic, Hashable, Iterator, Tuple, TypeVar

from repro.relational.algebra import Program, RAExpr, rename_scans

__all__ = ["SharedEntry", "SharedTemporaries"]


class SharedEntry:
    """One temporary in a :class:`SharedTemporaries` table.

    ``key`` is the temporary's canonical expression and ``users`` the
    number of live programs whose view holds the entry.  An entry whose
    ``users`` falls to 0 has left the table for good: a later program that
    computes the same key gets a new entry.  Entries compare and hash by
    identity, so a canonical key can name the temporaries it reads by their
    entries.
    """

    __slots__ = ("key", "users")

    def __init__(self, key: RAExpr) -> None:
        self.key = key
        self.users = 0

    def __str__(self) -> str:
        # How keys that read this entry print: its own key, braced.
        return f"{{{self.key}}}"


E = TypeVar("E", bound=SharedEntry)


class SharedTemporaries(Generic[E]):
    """The shared temporary table of one store.

    Parameters
    ----------
    is_base:
        Whether a name is a base relation of the store.  A temporary that
        shadows one is renamed to a fresh placeholder in the keys that read
        it, so those keys are never shared.
    new_entry:
        Builds the entry for a canonical key the table does not hold yet.
    """

    def __init__(
        self, is_base: Callable[[str], bool], new_entry: Callable[[RAExpr], E]
    ) -> None:
        self._is_base = is_base
        self._new_entry = new_entry
        # The table and each live program's view of it.  ``_lock`` guards
        # both; a program's weakref callback only queues its release on
        # ``_released`` and applies it if the lock is free, because the
        # callback can run inside ``view`` on the thread that holds the lock
        # (see ``_drain``).
        self._entries: Dict[RAExpr, E] = {}
        self._views: Dict[int, Tuple[weakref.ref, Dict[str, E]]] = {}
        self._lock = threading.Lock()
        self._released: Deque[Tuple[int, weakref.ref, Tuple[E, ...]]] = (
            collections.deque()
        )

    def view(self, program: Program) -> Dict[str, E]:
        """``program``'s temporaries: name → shared entry, in assignment order.

        On a program's first call the table canonicalizes it once: each
        assignment's expression, with every temporary it reads renamed to
        that temporary's entry, is looked up, and equal keys share one
        entry.  A temporary that shadows a base relation or is read before
        its assignment is renamed to a fresh placeholder instead.  The
        first assignment of a name is the one that counts.  Later calls
        with the same program return the same view.
        """
        program_id = id(program)
        record = self._views.get(program_id)
        if record is not None and record[0]() is program:
            return record[1]
        with self._locked():
            record = self._views.get(program_id)
            if record is not None and record[0]() is program:
                view = record[1]
            else:
                view = self._canonicalize(program)
                entries = tuple(set(view.values()))
                for entry in entries:
                    entry.users += 1
                table = weakref.ref(self)

                def release(ref: weakref.ref) -> None:
                    owner = table()
                    if owner is not None:
                        owner._released.append((program_id, ref, entries))
                        owner._drain()

                self._views[program_id] = (weakref.ref(program, release), view)
        return view

    def entries(self) -> Tuple[E, ...]:
        """A snapshot of the entries in the table."""
        with self._locked():
            entries = tuple(self._entries.values())
        return entries

    def clear(self) -> None:
        """Drop every entry and every program's view.

        Dropping the views drops their weakrefs, so the callbacks of the
        programs they served never fire against the new table.
        """
        with self._locked():
            self._entries.clear()
            self._views.clear()

    def _canonicalize(self, program: Program) -> Dict[str, E]:
        """Map each temporary of ``program`` to its entry (lock held)."""
        renames: Dict[str, Hashable] = {name: object() for name in program.temporaries()}
        view: Dict[str, E] = {}
        for assignment in program.assignments:
            name = assignment.target
            if name in view:
                continue  # the first assignment of a name is the one that runs
            key = rename_scans(assignment.expression, renames)
            entry = self._entries.get(key)
            if entry is None:
                entry = self._entries[key] = self._new_entry(key)
            view[name] = entry
            if not self._is_base(name):
                renames[name] = entry
        return view

    @contextlib.contextmanager
    def _locked(self) -> Iterator[None]:
        """Hold the table lock, then apply the releases queued meanwhile."""
        try:
            with self._lock:
                yield
        finally:
            self._drain()

    def _drain(self) -> None:
        """Apply queued releases, unless another frame holds the lock.

        Every frame that takes the lock goes through :meth:`_locked`, which
        drains after letting go, so a release queued meanwhile is never
        stranded.
        """
        released = self._released
        while released and self._lock.acquire(blocking=False):
            try:
                while released:
                    program_id, ref, entries = released.popleft()
                    record = self._views.get(program_id)
                    if record is not None and record[0] is ref:
                        del self._views[program_id]
                    for entry in entries:
                        entry.users -= 1
                        if not entry.users and self._entries.get(entry.key) is entry:
                            del self._entries[entry.key]
            finally:
                self._lock.release()
