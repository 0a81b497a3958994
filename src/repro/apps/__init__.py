"""Simulated Office-like applications.

Three feature-rich productivity applications analogous to the paper's case
studies (Microsoft Word, Excel and PowerPoint):

* :mod:`repro.apps.word` — a document editor over :mod:`repro.apps.document`;
* :mod:`repro.apps.excel` — a spreadsheet over :mod:`repro.apps.workbook`;
* :mod:`repro.apps.powerpoint` — a slide editor over
  :mod:`repro.apps.presentation`.

Each application exposes thousands of controls through a ribbon, nested
modal dialogs, context-dependent tabs and drop-down galleries, and maintains
*real, checkable state* (the document/workbook/presentation models) so the
benchmark can verify task completion on final state rather than on action
traces.
"""

from repro.apps.base import Application
from repro.apps.document import Document, Paragraph, TextFormat
from repro.apps.excel import ExcelApp
from repro.apps.powerpoint import PowerPointApp
from repro.apps.presentation import Presentation, Shape, Slide
from repro.apps.word import WordApp
from repro.apps.workbook import Cell, Workbook, Worksheet

__all__ = [
    "Application",
    "Cell",
    "Document",
    "ExcelApp",
    "Paragraph",
    "PowerPointApp",
    "Presentation",
    "Shape",
    "Slide",
    "TextFormat",
    "Workbook",
    "WordApp",
    "Worksheet",
]

#: Factory registry used by the benchmark runner to build each application
#: (once per runner; trials restore it).  Hand-written apps only; generated
#: apps resolve through :func:`app_factory`.
APP_FACTORIES = {
    "word": WordApp,
    "excel": ExcelApp,
    "powerpoint": PowerPointApp,
}


def app_factory(name: str):
    """Resolve an application name to a zero-arg factory.

    Hand-written apps come from :data:`APP_FACTORIES`; ``synthetic:<token>``
    names resolve to a generated-app factory (the token *is* the build
    recipe, so any process can reconstruct the same app from the name
    alone).  Raises :class:`KeyError` for unknown names.
    """
    factory = APP_FACTORIES.get(name)
    if factory is not None:
        return factory
    if name.startswith("synthetic:"):
        # Imported lazily: synthetic pulls in the GUI/ribbon stack, which
        # not every APP_FACTORIES consumer needs.
        from repro.apps.synthetic import synthetic_app_factory

        try:
            return synthetic_app_factory(name)
        except ValueError as error:
            raise KeyError(f"unknown application {name!r}: {error}") from error
    raise KeyError(f"unknown application {name!r}")
