"""Golden digest over the container bytes the corpus builder writes.

One SHA-256 pins the ``data`` of every document of a fixed-seed,
paper-shaped corpus, plus one ``.docm`` and one ``.doc`` built directly by
``build_document_bytes``.  Every VBA module stream in them goes through the
MS-OVBA compressor, so a compressor that emits different bytes (even
valid, round-tripping ones) changes the digest.  The perfbench inputs and
the Table V corpus are built by this same code.  The pinned value was
computed before the codec was rewritten for speed; a digest change means
the documents changed, so never re-pin it to make a speed change pass.

The OOXML parts are deflated by ``zipfile`` (zlib), so the pinned bytes
hold for a given zlib's deflate output.
"""

from __future__ import annotations

import hashlib

from repro.corpus.builder import CorpusBuilder, paper_profile
from repro.corpus.documents import build_document_bytes

GOLDEN_SHA256 = "eaceb4d584b1d47a438103451bc3df98c3e1250160dc87761a590a89d5b29956"

MACRO = (
    "Sub Document_Open()\n"
    '    Dim s As String: s = "abc" & Chr(100) & "abc" & "abcabcabc"\n'
    "    MsgBox s\n"
    "End Sub\n"
)


def container_digest() -> str:
    digest = hashlib.sha256()
    corpus = CorpusBuilder(paper_profile().scaled(0.02), seed=1).build()
    blobs = [document.data for document in corpus.documents]
    blobs.append(build_document_bytes([MACRO], "docm"))
    blobs.append(build_document_bytes([MACRO, MACRO * 40], "doc"))
    for blob in blobs:
        digest.update(len(blob).to_bytes(8, "little"))
        digest.update(blob)
    return digest.hexdigest()


def test_container_bytes_match_the_pinned_digest():
    assert container_digest() == GOLDEN_SHA256
