"""The paper's Table V as a regression anchor.

One fixed-seed, paper-shaped corpus (121 distinct macros, 18% obfuscated)
goes through the whole Section V evaluation: dataset, V and J feature
matrices, and 10-fold cross-validation of all five classifiers.  One
SHA-256 pins every cell: accuracy, precision, recall, F₂, AUC, and the
bytes of the pooled scores and predictions.  A change anywhere under the
evaluation (corpus, features, a classifier, the folds) that moves one
score by one bit changes the digest; a digest change means the science
moved, so never re-pin it to make a speed change pass.

The pooled scores come out of floating-point training (Adam, SMO, matrix
products), so the pinned bits hold for a given numpy build; the claims
checked before the digest are what the paper's conclusions rest on.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.corpus.builder import CorpusBuilder, paper_profile
from repro.pipeline.classifiers import CLASSIFIER_ORDER
from repro.pipeline.dataset import DatasetBuilder
from repro.pipeline.experiment import ExperimentRunner

GOLDEN_SHA256 = "edd334cc1c17541ee0762d607b1d509567860d818055d3d4346c98a2caf91646"
CORPUS_SCALE = 0.03
CORPUS_SEED = 2018


@pytest.fixture(scope="module")
def table5():
    corpus = CorpusBuilder(paper_profile().scaled(CORPUS_SCALE), seed=CORPUS_SEED).build()
    dataset = DatasetBuilder().build(corpus.documents, corpus.truth)
    return ExperimentRunner().run(dataset)


def table5_digest(result) -> str:
    digest = hashlib.sha256()
    for feature_set in ("V", "J"):
        for name in CLASSIFIER_ORDER:
            cell = result.cell(feature_set, name)
            digest.update(
                f"{feature_set}-{name}:{cell.accuracy!r},{cell.precision!r},"
                f"{cell.recall!r},{cell.f2!r},{cell.auc!r}".encode()
            )
            digest.update(cell.cv.pooled_scores.tobytes())
            digest.update(cell.cv.pooled_pred.tobytes())
    return digest.hexdigest()


def test_paper_claims_hold(table5):
    f2 = {key: cell.f2 for key, cell in table5.cells.items()}
    # V beats J: for the best classifier of each set and for every one.
    assert table5.best_by_f2("V").f2 > table5.best_by_f2("J").f2
    for name in CLASSIFIER_ORDER:
        assert f2[("V", name)] >= f2[("J", name)], name
    assert table5.best_by_f2("J").classifier == "RF"
    for feature_set in ("V", "J"):
        weakest = min(CLASSIFIER_ORDER, key=lambda name: f2[(feature_set, name)])
        assert weakest == "BNB", feature_set
    assert min(table5.cell("V", name).auc for name in CLASSIFIER_ORDER) > 0.9


def test_table5_matches_the_pinned_digest(table5):
    assert table5_digest(table5) == GOLDEN_SHA256
