"""The ready-to-use detector: one featurization path, and pickling.

The training set is the one ``repro scan`` and ``repro serve`` train on at
start-up (150 benign modules and 75 obfuscated malicious macros, seed 42).
"""

from __future__ import annotations

import pickle
import random

import numpy as np
import pytest

from repro import ObfuscationDetector
from repro.corpus.benign import generate_benign_module
from repro.corpus.malicious import generate_malicious_macro
from repro.features.matrix import extract_matrices
from repro.features.vfeatures import extract_v_features
from repro.obfuscation.pipeline import default_pipeline


@pytest.fixture(scope="module")
def training():
    rng = random.Random(42)
    sources, labels = [], []
    for _ in range(150):
        sources.append(generate_benign_module(rng, target_length=rng.randint(200, 8000)))
        labels.append(0)
    pipeline = default_pipeline()
    for index in range(75):
        plain = generate_malicious_macro(rng, rng.choice(("word", "excel")))
        sources.append(pipeline.run(plain, seed=index).source)
        labels.append(1)
    return sources, labels


@pytest.fixture(scope="module")
def detector(training):
    return ObfuscationDetector("MLP").fit(*training)


def test_batch_features_equal_per_source_features(training, detector):
    sources, _ = training
    per_source = np.vstack([extract_v_features(source) for source in sources])
    assert extract_matrices(sources, ("V",))["V"].tobytes() == per_source.tobytes()
    expected = detector._preprocessor.transform(per_source)
    assert detector._features(sources).tobytes() == expected.tobytes()


def test_pickled_detector_scores_the_same_bytes(training, detector):
    sources, _ = training
    clone = pickle.loads(pickle.dumps(detector))
    for batch in (sources, sources[:1]):
        assert clone.predict_proba(batch).tobytes() == detector.predict_proba(batch).tobytes()
    assert clone._model.loss_curve_ == detector._model.loss_curve_
