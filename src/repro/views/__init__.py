"""Query answering over (virtual) GAV XML views of XML data (Sect. 3.4)."""

from repro._support import lazy_exports

__all__ = ["GAVView", "extract_view", "answer_on_view"]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.views.gav": ("GAVView", "extract_view", "answer_on_view"),
    },
)
