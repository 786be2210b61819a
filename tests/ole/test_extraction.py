"""End-to-end tests: build documents, then extract macros back (olevba path)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ole.cfb import CompoundFileWriter
from repro.ole.docvars import DocVarsError, decode_docvars, encode_docvars
from repro.ole.extractor import (
    ExtractionError,
    extract_macros,
    sniff_format,
)
from repro.ole.ooxml import DOCVARS_PART, build_docm, build_xlsm, list_parts, read_vba_part
from repro.ole.vba_project import (
    VBAModule,
    VBAProjectError,
    build_vba_storage_streams,
    parse_dir_stream,
)

MACRO_A = (
    "Sub Document_Open()\n"
    '    MsgBox "hello from module A"\n'
    "End Sub\n"
)
MACRO_B = (
    "Function Helper(x As Long) As Long\n"
    "    Helper = x * 2\n"
    "End Function\n"
)


def build_vba_bin(modules: list[VBAModule]) -> bytes:
    writer = CompoundFileWriter()
    for path, data in build_vba_storage_streams(modules).items():
        writer.add_stream(path, data)
    return writer.tobytes()


def build_legacy_doc(modules: list[VBAModule], docvars: dict | None = None) -> bytes:
    """A legacy .doc: VBA under the Macros storage + WordDocument stream."""
    writer = CompoundFileWriter()
    writer.add_stream("WordDocument", b"\xec\xa5\xc1\x00" + b"\x00" * 256)
    for path, data in build_vba_storage_streams(modules).items():
        writer.add_stream(f"Macros/{path}", data)
    if docvars:
        writer.add_stream("ReproDocVars", encode_docvars(docvars))
    return writer.tobytes()


def build_legacy_xls(modules: list[VBAModule]) -> bytes:
    """A legacy .xls: VBA under _VBA_PROJECT_CUR + Workbook stream."""
    writer = CompoundFileWriter()
    writer.add_stream("Workbook", b"\x09\x08" + b"\x00" * 256)
    for path, data in build_vba_storage_streams(modules).items():
        writer.add_stream(f"_VBA_PROJECT_CUR/{path}", data)
    return writer.tobytes()


class TestVBAProjectStreams:
    def test_dir_stream_round_trip(self):
        modules = [
            VBAModule("ThisDocument", MACRO_A, "document"),
            VBAModule("Module1", MACRO_B),
        ]
        streams = build_vba_storage_streams(modules)
        name, refs = parse_dir_stream(streams["VBA/dir"])
        assert name == "VBAProject"
        assert [r.name for r in refs] == ["ThisDocument", "Module1"]
        assert refs[0].module_type == "document"
        assert refs[1].module_type == "procedural"
        assert all(r.offset == 0 for r in refs)

    def test_requires_at_least_one_module(self):
        with pytest.raises(VBAProjectError):
            build_vba_storage_streams([])

    def test_duplicate_module_names_rejected(self):
        with pytest.raises(VBAProjectError):
            build_vba_storage_streams(
                [VBAModule("M", MACRO_A), VBAModule("m", MACRO_B)]
            )

    def test_project_stream_is_text(self):
        streams = build_vba_storage_streams([VBAModule("Module1", MACRO_B)])
        text = streams["PROJECT"].decode("cp1252")
        assert "Module=Module1" in text
        assert 'Name="VBAProject"' in text


class TestLegacyDocExtraction:
    def test_doc_round_trip(self):
        modules = [VBAModule("ThisDocument", MACRO_A, "document")]
        blob = build_legacy_doc(modules)
        assert sniff_format(blob) == "cfb"
        result = extract_macros(blob)
        assert result.container == "cfb"
        assert len(result.modules) == 1
        assert result.modules[0].source == MACRO_A

    def test_xls_round_trip(self):
        modules = [VBAModule("Module1", MACRO_B)]
        result = extract_macros(build_legacy_xls(modules))
        assert result.modules[0].source == MACRO_B

    def test_bare_vba_project_bin(self):
        blob = build_vba_bin([VBAModule("Module1", MACRO_B)])
        result = extract_macros(blob)
        assert result.modules[0].source == MACRO_B

    def test_multiple_modules_preserved_in_order(self):
        modules = [
            VBAModule("ThisDocument", MACRO_A, "document"),
            VBAModule("Module1", MACRO_B),
            VBAModule("Module2", "Sub Z()\nEnd Sub\n"),
        ]
        result = extract_macros(build_legacy_doc(modules))
        assert [m.name for m in result.modules] == [
            "ThisDocument", "Module1", "Module2",
        ]

    def test_document_variables_recovered(self):
        hidden = {'ActiveDocument.Variables("k").Value()': "http://evil/x.exe"}
        blob = build_legacy_doc([VBAModule("M", MACRO_A)], docvars=hidden)
        result = extract_macros(blob)
        assert result.document_variables == hidden

    def test_cfb_without_vba_project(self):
        writer = CompoundFileWriter()
        writer.add_stream("WordDocument", b"\x00" * 64)
        with pytest.raises(ExtractionError):
            extract_macros(writer.tobytes())


class TestOOXMLExtraction:
    def test_docm_round_trip(self):
        vba = build_vba_bin([VBAModule("ThisDocument", MACRO_A, "document")])
        blob = build_docm(vba, body_text="Invoice attached")
        assert sniff_format(blob) == "ooxml"
        result = extract_macros(blob)
        assert result.container == "ooxml"
        assert result.modules[0].source == MACRO_A

    def test_xlsm_round_trip(self):
        vba = build_vba_bin([VBAModule("Module1", MACRO_B)])
        result = extract_macros(build_xlsm(vba))
        assert result.modules[0].source == MACRO_B

    def test_package_structure(self):
        vba = build_vba_bin([VBAModule("Module1", MACRO_B)])
        parts = list_parts(build_docm(vba))
        assert "[Content_Types].xml" in parts
        assert "_rels/.rels" in parts
        assert "word/document.xml" in parts
        assert "word/vbaProject.bin" in parts

    def test_read_vba_part_matches_input(self):
        vba = build_vba_bin([VBAModule("Module1", MACRO_B)])
        assert read_vba_part(build_docm(vba)) == vba

    def test_padding_inflates_file(self):
        vba = build_vba_bin([VBAModule("Module1", MACRO_B)])
        small = build_docm(vba)
        large = build_docm(vba, padding=500_000)
        assert len(large) > len(small) + 400_000

    def test_zip_without_vba_part(self):
        import io
        import zipfile

        buffer = io.BytesIO()
        with zipfile.ZipFile(buffer, "w") as archive:
            archive.writestr("hello.txt", "hi")
        with pytest.raises(ExtractionError):
            extract_macros(buffer.getvalue())

    def test_each_package_is_opened_once(self, monkeypatch):
        import zipfile

        from repro.ole import ooxml

        opened = []

        class CountingZipFile(zipfile.ZipFile):
            def __init__(self, *args, **kwargs):
                opened.append(args[0])
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(ooxml.zipfile, "ZipFile", CountingZipFile)
        vba = build_vba_bin([VBAModule("Module1", MACRO_A)])
        variables = {"UserForm1.Label1.Caption": "calc.exe"}
        documents = [
            build_docm(vba),
            build_xlsm(vba),
            build_docm(vba, extra_parts={DOCVARS_PART: encode_docvars(variables)}),
        ]
        opened.clear()
        results = [extract_macros(blob) for blob in documents]
        assert len(opened) == len(documents)
        assert [r.modules[0].source for r in results] == [MACRO_A] * 3
        assert results[2].document_variables == variables


class TestSniffing:
    def test_unknown_format(self):
        assert sniff_format(b"plain text") == "unknown"
        with pytest.raises(ExtractionError):
            extract_macros(b"plain text")


class TestDocVars:
    def test_round_trip(self):
        variables = {
            'ActiveDocument.Variables("a").Value()': "calc.exe",
            "UserForm1.Label1.Caption": 'cmd /c "echo hi"',
        }
        assert decode_docvars(encode_docvars(variables)) == variables

    def test_empty(self):
        assert decode_docvars(encode_docvars({})) == {}

    def test_malformed_header(self):
        with pytest.raises(DocVarsError):
            decode_docvars(b"not docvars at all")

    @given(
        st.dictionaries(
            st.text(min_size=1, max_size=60),
            st.text(max_size=120),
            max_size=10,
        )
    )
    def test_round_trip_arbitrary(self, variables):
        assert decode_docvars(encode_docvars(variables)) == variables


class TestPropertyBased:
    @settings(max_examples=20, deadline=None)
    @given(
        st.lists(
            st.text(
                alphabet=st.characters(min_codepoint=32, max_codepoint=126),
                max_size=300,
            ),
            min_size=1,
            max_size=5,
        )
    )
    def test_any_module_sources_round_trip(self, sources):
        modules = [
            VBAModule(f"Module{i}", source) for i, source in enumerate(sources)
        ]
        result = extract_macros(build_legacy_doc(modules))
        assert [m.source for m in result.modules] == sources
