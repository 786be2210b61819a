"""olevba-equivalent macro extractor.

Sniffs a document's container format and extracts every VBA module's source
without "opening" the document — the property the paper relies on for safe
static preprocessing (Section IV.B):

* **OOXML** (``.docm``/``.xlsm``): unzip, locate ``*/vbaProject.bin``, parse
  it as a compound file, read the ``VBA`` storage.
* **Legacy CFB** (``.doc``/``.xls``): the VBA project lives under the
  ``Macros`` storage (Word) or ``_VBA_PROJECT_CUR`` (Excel); a bare
  ``vbaProject.bin`` has it at the root.

Also recovers hidden document variables (the §VI.B carrier) when present.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ole import docvars, ooxml
from repro.ole.cfb import MAGIC as CFB_MAGIC
from repro.ole.cfb import CFBError, CompoundFileReader
from repro.ole.vba_project import (
    VBAModule,
    VBAProjectError,
    extract_modules_from_streams,
)

#: Storage prefixes where a VBA project may live inside a compound file.
VBA_ROOT_CANDIDATES = ("Macros", "_VBA_PROJECT_CUR", "")


class ExtractionError(ValueError):
    """Raised when a document has no extractable VBA project."""


@dataclass(slots=True)
class ExtractionResult:
    """Everything extracted from one document file."""

    container: str  # "ooxml" | "cfb"
    modules: list[VBAModule] = field(default_factory=list)
    document_variables: dict[str, str] = field(default_factory=dict)

    @property
    def sources(self) -> list[str]:
        return [module.source for module in self.modules]

    @property
    def has_macros(self) -> bool:
        return bool(self.modules)


def sniff_format(data: bytes) -> str:
    """Return "ooxml", "cfb", or "unknown"."""
    if ooxml.is_zip(data):
        return "ooxml"
    if data[:8] == CFB_MAGIC:
        return "cfb"
    return "unknown"


def extract_macros(data: bytes) -> ExtractionResult:
    """Extract VBA modules and hidden variables from document bytes."""
    kind = sniff_format(data)
    if kind == "ooxml":
        return _extract_from_ooxml(data)
    if kind == "cfb":
        return _extract_from_cfb(data)
    raise ExtractionError("unrecognized container format")


def _extract_from_ooxml(data: bytes) -> ExtractionResult:
    # One archive open serves both part reads; the VBA project is parsed
    # before the variables part is read, so the first error wins as before.
    try:
        with ooxml.open_package(data) as archive:
            inner = _extract_from_cfb(ooxml.vba_part(archive))
            raw_docvars = ooxml.named_part(archive, ooxml.DOCVARS_PART)
    except ooxml.OOXMLError as error:
        raise ExtractionError(str(error)) from error
    result = ExtractionResult(container="ooxml", modules=inner.modules)
    if raw_docvars is not None:
        result.document_variables = docvars.decode_docvars(raw_docvars)
    return result


def _extract_from_cfb(data: bytes) -> ExtractionResult:
    try:
        reader = CompoundFileReader(data)
    except CFBError as error:
        raise ExtractionError(f"bad compound file: {error}") from error
    streams = reader.list_streams()
    lowered = {stream.lower() for stream in streams}

    vba_prefix = None
    for candidate in VBA_ROOT_CANDIDATES:
        prefix = f"{candidate}/VBA" if candidate else "VBA"
        if f"{prefix.lower()}/dir" in lowered:
            vba_prefix = prefix
            break
    if vba_prefix is None:
        raise ExtractionError("document contains no VBA project")

    try:
        modules = extract_modules_from_streams(
            reader.read_stream, streams, vba_prefix
        )
    except VBAProjectError as error:
        raise ExtractionError(str(error)) from error

    result = ExtractionResult(container="cfb", modules=modules)
    if reader.exists("ReproDocVars"):
        result.document_variables = docvars.decode_docvars(
            reader.read_stream("ReproDocVars")
        )
    return result


def extract_macros_from_file(path) -> ExtractionResult:
    """Convenience wrapper reading a document from disk."""
    with open(path, "rb") as handle:
        return extract_macros(handle.read())
