"""Feature-matrix assembly over macro collections.

Thin wrappers over the feature-set registry (:mod:`repro.features.registry`):
each macro is analyzed exactly once and summarized into an
:class:`~repro.vba.analyzer.AnalysisSummary`; every requested set then
vectorizes whole chunks at a time through its column-batch kernel (or the
per-row fallback) via :meth:`~repro.features.registry.FeatureSet.extract_matrix`.
Chunking keeps memory at ``O(chunk)`` analyses (only summaries, when every
set has a batch kernel) while preserving exact row values — the kernels
are row-deterministic, so chunk boundaries never change a single bit of
the output.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from repro.features.registry import get_feature_set
from repro.vba.analyzer import analyze

#: The paper's built-in pair; the registry may hold more.
FEATURE_SETS = ("V", "J")

#: analyses held at once during matrix assembly (memory bound, not a
#: semantic boundary — results are chunk-size invariant).
_CHUNK_SIZE = 64


def feature_names(feature_set: str) -> tuple[str, ...]:
    return get_feature_set(feature_set).names


def extract_matrices(
    sources: Iterable[str], feature_sets: Sequence[str]
) -> dict[str, np.ndarray]:
    """Build one (n_samples × n_features) matrix per requested feature set.

    Each macro is analyzed exactly once; all requested sets share the
    analysis chunk and vectorize it through their batch kernels.
    """
    sets = [get_feature_set(name) for name in feature_sets]
    blocks: dict[str, list[np.ndarray]] = {fs.name: [] for fs in sets}
    chunk: list = []

    vectorized = any(fs.batch_extractor is not None for fs in sets)
    # When every set has a batch kernel the chunk keeps only the small
    # summaries, so each analysis (token table and all) is freed at once.
    summaries_only = all(fs.batch_extractor is not None for fs in sets)

    def flush() -> None:
        if not chunk:
            return
        if summaries_only:
            summaries = chunk
        elif vectorized:
            summaries = [analysis.ensure_summary() for analysis in chunk]
        for fs in sets:
            blocks[fs.name].append(
                fs.extract_matrix(
                    summaries if fs.batch_extractor is not None else chunk
                )
            )
        chunk.clear()

    for source in sources:
        analysis = analyze(source)
        chunk.append(analysis.ensure_summary() if summaries_only else analysis)
        if len(chunk) >= _CHUNK_SIZE:
            flush()
    flush()
    return {
        fs.name: np.vstack(blocks[fs.name])
        if blocks[fs.name]
        else np.empty((0, fs.width))
        for fs in sets
    }


def extract_features(sources: Iterable[str], feature_set: str = "V") -> np.ndarray:
    """Build the (n_samples × n_features) matrix for one feature set."""
    return extract_matrices(sources, (feature_set,))[feature_set]


def extract_both(sources: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """Extract V and J matrices sharing one analysis pass per macro."""
    matrices = extract_matrices(sources, ("V", "J"))
    return matrices["V"], matrices["J"]
