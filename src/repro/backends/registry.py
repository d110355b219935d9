"""Every registered backend class, loaded: :data:`repro.backends.BACKENDS`.

Importing this module loads every engine.  Code that runs one backend asks
:func:`repro.backends.backend_class` for it instead, which loads only that
one.
"""

from __future__ import annotations

from typing import Dict, Type

from repro.backends import backend_class, backend_names
from repro.backends.base import Backend

__all__ = ["BACKENDS"]

#: Registered backend classes, keyed by the name used in CLI flags.
BACKENDS: Dict[str, Type[Backend]] = {name: backend_class(name) for name in backend_names()}
