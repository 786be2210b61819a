"""VirusTotal-style aggregate scanning and the paper's labeling rule.

Section IV.A: a sample is labeled *malicious* when more than 25 of ~60
vendors flag it, *benign* when at most 2 do, and everything in between goes
to manual inspection by security researchers.  :class:`VirusTotalSim`
reproduces the aggregation; :func:`label_documents` reproduces the labeling
pipeline (with ground truth standing in for the human analysts).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.avsim.signatures import Signature
from repro.avsim.vendor import AVVendor, build_vendor_fleet

MALICIOUS_THRESHOLD = 25  # strictly more than this many detections
BENIGN_THRESHOLD = 2  # at most this many detections


class Verdict(enum.Enum):
    MALICIOUS = "malicious"
    BENIGN = "benign"
    MANUAL_INSPECTION = "manual"


@dataclass(slots=True)
class ScanReport:
    """Aggregate result for one document."""

    detections: int
    total_vendors: int
    flagged_by: list[str] = field(default_factory=list)

    @property
    def verdict(self) -> Verdict:
        if self.detections > MALICIOUS_THRESHOLD:
            return Verdict.MALICIOUS
        if self.detections <= BENIGN_THRESHOLD:
            return Verdict.BENIGN
        return Verdict.MANUAL_INSPECTION


class VirusTotalSim:
    """Scan macro text sets against the whole vendor fleet.

    Besides signature/heuristic scanning, vendors share threat-intel hash
    feeds: hashes registered via :meth:`blacklist_macro` are recognized by a
    deterministic ~70% subset of the fleet — modeling how a campaign macro
    reused across many documents (Section IV.B) becomes universally known
    once any one sample is analyzed.
    """

    def __init__(self, vendors: list[AVVendor] | None = None) -> None:
        self.vendors = vendors if vendors is not None else build_vendor_fleet()
        if not self.vendors:
            raise ValueError("need at least one vendor")
        self._hash_feed: set[str] = set()
        # Every distinct signature object in the fleet, matched once per
        # text; each vendor scores from its subset as ``AVVendor.scan`` does.
        slots: dict[int, int] = {}
        self._signatures: list[Signature] = []
        self._plans: list[tuple[tuple[int, ...], tuple[tuple[int, int], ...]]] = []
        for vendor in self.vendors:
            triggers, weighted = [], []
            for signature in vendor.signatures:
                slot = slots.get(id(signature))
                if slot is None:
                    slot = slots[id(signature)] = len(self._signatures)
                    self._signatures.append(signature)
                if signature.name.startswith("trigger."):
                    triggers.append(slot)
                else:
                    weighted.append((slot, signature.weight))
            self._plans.append((tuple(triggers), tuple(weighted)))

    @staticmethod
    def macro_hash(macro_text: str) -> str:
        import hashlib

        return hashlib.sha256(macro_text.encode("utf-8", "replace")).hexdigest()

    def blacklist_macro(self, macro_text: str) -> None:
        """Add a macro's hash to the shared threat-intel feed."""
        self._hash_feed.add(self.macro_hash(macro_text))

    def _vendor_subscribes(self, vendor: AVVendor, digest: str) -> bool:
        """Deterministic per-(vendor, hash) feed membership, ≈70% uptake."""
        import hashlib

        mix = hashlib.sha256((vendor.name + digest).encode()).digest()
        return mix[0] < 179  # 179/256 ≈ 0.7

    @staticmethod
    def _flags(plan, vendor: AVVendor, hits: list[bool]) -> bool:
        """``vendor.scan`` of a text whose signature matches are ``hits``."""
        triggers, weighted = plan
        score = sum(weight for slot, weight in weighted if hits[slot])
        if score > 0 and any(hits[slot] for slot in triggers):
            score += vendor.heuristic_autoexec_bonus
        return score >= vendor.threshold

    def scan(self, macro_texts: list[str]) -> ScanReport:
        digests = [self.macro_hash(text) for text in macro_texts]
        blacklisted = [d for d in digests if d in self._hash_feed]
        matches = [
            [signature.pattern.search(text) is not None for signature in self._signatures]
            for text in macro_texts
        ]
        flagged = []
        for vendor, plan in zip(self.vendors, self._plans):
            hit = any(self._flags(plan, vendor, hits) for hits in matches) or any(
                self._vendor_subscribes(vendor, digest) for digest in blacklisted
            )
            if hit:
                flagged.append(vendor.name)
        return ScanReport(
            detections=len(flagged),
            total_vendors=len(self.vendors),
            flagged_by=flagged,
        )


@dataclass(slots=True)
class LabelingOutcome:
    """How the 25/2 thresholds sorted a document set."""

    labeled_malicious: int = 0
    labeled_benign: int = 0
    sent_to_manual: int = 0
    #: Documents whose threshold label disagreed with ground truth.
    mislabeled: int = 0


def label_documents(
    documents,
    scanner: VirusTotalSim | None = None,
) -> LabelingOutcome:
    """Run the paper's labeling pipeline over synthetic documents.

    Ground truth (``document.is_malicious``) plays the role of the three
    security researchers who manually inspected the in-between band.
    """
    scanner = scanner or VirusTotalSim()
    outcome = LabelingOutcome()
    for document in documents:
        report = scanner.scan(document.macro_sources)
        verdict = report.verdict
        if verdict is Verdict.MANUAL_INSPECTION:
            outcome.sent_to_manual += 1
            verdict = (
                Verdict.MALICIOUS if document.is_malicious else Verdict.BENIGN
            )
        if verdict is Verdict.MALICIOUS:
            outcome.labeled_malicious += 1
            if not document.is_malicious:
                outcome.mislabeled += 1
        else:
            outcome.labeled_benign += 1
            if document.is_malicious:
                outcome.mislabeled += 1
    return outcome
