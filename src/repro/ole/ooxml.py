"""OOXML (.docm / .xlsm) containers: zip packages carrying vbaProject.bin.

Office Open XML macro-enabled documents are zip archives; the VBA project is
the binary part ``word/vbaProject.bin`` (Word) or ``xl/vbaProject.bin``
(Excel), itself a compound file.  This module builds minimal-but-valid
packages ([Content_Types].xml, relationships, a document part, the VBA part)
and locates the VBA part when reading.

Hidden document variables (the §VI.B anti-analysis carrier) are stored in a
dedicated part ``docProps/reproDocVars.xml``; see
:mod:`repro.ole.docvars` for the encoding.
"""

from __future__ import annotations

import io
import zipfile
import zlib

#: Exceptions the zip layer raises while reading member data from hostile
#: archives: CRC/structure errors, deflate garbage, truncated streams,
#: unsupported compression methods, encrypted members.
_ZIP_READ_ERRORS = (
    zipfile.BadZipFile,
    zipfile.LargeZipFile,
    zlib.error,
    EOFError,
    NotImplementedError,
    RuntimeError,
)

#: Fixed archive timestamp so identical content yields identical bytes.
_FIXED_ZIP_DATE = (2016, 1, 1, 0, 0, 0)


def _writestr(archive: zipfile.ZipFile, name: str, data, compress_type=None) -> None:
    info = zipfile.ZipInfo(name, date_time=_FIXED_ZIP_DATE)
    info.compress_type = (
        compress_type if compress_type is not None else zipfile.ZIP_DEFLATED
    )
    archive.writestr(info, data)

VBA_CONTENT_TYPE = "application/vnd.ms-office.vbaProject"
DOCVARS_PART = "docProps/reproDocVars.xml"

_CONTENT_TYPES_TEMPLATE = """<?xml version="1.0" encoding="UTF-8" standalone="yes"?>
<Types xmlns="http://schemas.openxmlformats.org/package/2006/content-types">
  <Default Extension="rels" ContentType="application/vnd.openxmlformats-package.relationships+xml"/>
  <Default Extension="xml" ContentType="application/xml"/>
  <Default Extension="bin" ContentType="{vba_content_type}"/>
  <Override PartName="/{main_part}" ContentType="{main_content_type}"/>
</Types>
"""

_ROOT_RELS_TEMPLATE = """<?xml version="1.0" encoding="UTF-8" standalone="yes"?>
<Relationships xmlns="http://schemas.openxmlformats.org/package/2006/relationships">
  <Relationship Id="rId1" Type="http://schemas.openxmlformats.org/officeDocument/2006/relationships/officeDocument" Target="{main_part}"/>
</Relationships>
"""

_PART_RELS_TEMPLATE = """<?xml version="1.0" encoding="UTF-8" standalone="yes"?>
<Relationships xmlns="http://schemas.openxmlformats.org/package/2006/relationships">
  <Relationship Id="rId1" Type="http://schemas.microsoft.com/office/2006/relationships/vbaProject" Target="vbaProject.bin"/>
</Relationships>
"""

_WORD_DOCUMENT_XML = """<?xml version="1.0" encoding="UTF-8" standalone="yes"?>
<w:document xmlns:w="http://schemas.openxmlformats.org/wordprocessingml/2006/main">
  <w:body><w:p><w:r><w:t>{body_text}</w:t></w:r></w:p></w:body>
</w:document>
"""

_XL_WORKBOOK_XML = """<?xml version="1.0" encoding="UTF-8" standalone="yes"?>
<workbook xmlns="http://schemas.openxmlformats.org/spreadsheetml/2006/main">
  <sheets><sheet name="{sheet_name}" sheetId="1" r:id="rId2"
    xmlns:r="http://schemas.openxmlformats.org/officeDocument/2006/relationships"/></sheets>
</workbook>
"""


class OOXMLError(ValueError):
    """Raised on malformed OOXML packages."""


def _open_archive(data: bytes) -> zipfile.ZipFile:
    """Open package bytes, normalizing zip-layer failures to OOXMLError.

    ``is_zip`` only sniffs the magic — truncated or garbage archives (e.g. a
    bare ``PK\\x07\\x08`` data-descriptor prefix) still raise ``BadZipFile``
    inside ``zipfile``, which must not leak to callers handling
    attacker-controlled bytes.
    """
    try:
        return zipfile.ZipFile(io.BytesIO(data))
    except (zipfile.BadZipFile, zipfile.LargeZipFile) as error:
        raise OOXMLError(f"malformed zip package: {error}") from error


def _build_package(
    main_dir: str,
    main_part_name: str,
    main_content_type: str,
    main_xml: str,
    vba_project: bytes,
    extra_parts: dict[str, bytes] | None,
    padding: int,
) -> bytes:
    main_part = f"{main_dir}/{main_part_name}"
    buffer = io.BytesIO()
    with zipfile.ZipFile(buffer, "w", zipfile.ZIP_DEFLATED) as archive:
        _writestr(
            archive,
            "[Content_Types].xml",
            _CONTENT_TYPES_TEMPLATE.format(
                vba_content_type=VBA_CONTENT_TYPE,
                main_part=main_part,
                main_content_type=main_content_type,
            ),
        )
        _writestr(
            archive, "_rels/.rels", _ROOT_RELS_TEMPLATE.format(main_part=main_part)
        )
        _writestr(
            archive, f"{main_dir}/_rels/{main_part_name}.rels", _PART_RELS_TEMPLATE
        )
        _writestr(archive, main_part, main_xml)
        _writestr(archive, f"{main_dir}/vbaProject.bin", vba_project)
        for name, data in (extra_parts or {}).items():
            _writestr(archive, name, data)
        if padding > 0:
            # Benign documents in the paper's corpus average ~1.1 MB thanks
            # to embedded media; a stored (uncompressed) filler part
            # reproduces that size signal.
            _writestr(
                archive,
                "media/filler.bin",
                b"\x00" * padding,
                compress_type=zipfile.ZIP_STORED,
            )
    return buffer.getvalue()


def build_docm(
    vba_project: bytes,
    body_text: str = "",
    extra_parts: dict[str, bytes] | None = None,
    padding: int = 0,
) -> bytes:
    """Build a macro-enabled Word package around a vbaProject.bin blob."""
    return _build_package(
        "word",
        "document.xml",
        "application/vnd.ms-word.document.macroEnabled.main+xml",
        _WORD_DOCUMENT_XML.format(body_text=_xml_escape(body_text)),
        vba_project,
        extra_parts,
        padding,
    )


def build_xlsm(
    vba_project: bytes,
    sheet_name: str = "Sheet1",
    extra_parts: dict[str, bytes] | None = None,
    padding: int = 0,
) -> bytes:
    """Build a macro-enabled Excel package around a vbaProject.bin blob."""
    return _build_package(
        "xl",
        "workbook.xml",
        "application/vnd.ms-excel.sheet.macroEnabled.main+xml",
        _XL_WORKBOOK_XML.format(sheet_name=_xml_escape(sheet_name)),
        vba_project,
        extra_parts,
        padding,
    )


def _xml_escape(text: str) -> str:
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    )


def is_zip(data: bytes) -> bool:
    return data[:4] in (b"PK\x03\x04", b"PK\x05\x06", b"PK\x07\x08")


def open_package(data: bytes) -> zipfile.ZipFile:
    """Open an OOXML package once, for any number of part reads."""
    if not is_zip(data):
        raise OOXMLError("not a zip package")
    return _open_archive(data)


def vba_part(archive: zipfile.ZipFile) -> bytes:
    """The vbaProject.bin part of an open package."""
    candidates = [
        name for name in archive.namelist() if name.lower().endswith("vbaproject.bin")
    ]
    if not candidates:
        raise OOXMLError("package has no vbaProject.bin part")
    try:
        return archive.read(candidates[0])
    except _ZIP_READ_ERRORS as error:
        raise OOXMLError(f"unreadable vbaProject.bin part: {error}") from error


def named_part(archive: zipfile.ZipFile, part_name: str) -> bytes | None:
    """One named part of an open package, or None when absent."""
    try:
        return archive.read(part_name)
    except KeyError:
        return None
    except _ZIP_READ_ERRORS as error:
        raise OOXMLError(f"unreadable part {part_name!r}: {error}") from error


def read_vba_part(data: bytes) -> bytes:
    """Locate and return the vbaProject.bin part of an OOXML package."""
    with open_package(data) as archive:
        return vba_part(archive)


def list_parts(data: bytes) -> list[str]:
    with _open_archive(data) as archive:
        return archive.namelist()
