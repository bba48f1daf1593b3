"""Tests for repro.core.detection.fusion (noisy-OR combination)."""

import pytest

from repro.core.detection.fusion import DEFAULT_WEIGHTS, FusionDetector
from repro.core.detection.verdict import Verdict


def verdict(subject, detector, score, is_bot=None):
    if is_bot is None:
        is_bot = score >= 0.5
    return Verdict(
        subject_id=subject, detector=detector, score=score, is_bot=is_bot
    )


class TestFusionDetector:
    def test_single_confident_detector_convicts(self):
        fusion = FusionDetector()
        fused = fusion.fuse(
            [[verdict("S1", "fingerprint-rules", 1.0)]]
        )
        assert len(fused) == 1
        assert fused[0].is_bot
        assert fused[0].score == pytest.approx(0.95)

    def test_weak_signals_accumulate(self):
        fusion = FusionDetector()
        fused = fusion.fuse(
            [
                [verdict("S1", "navigation-graph", 0.6, is_bot=False)],
                [verdict("S1", "kmeans-behaviour", 0.6, is_bot=False)],
                [verdict("S1", "logistic-behaviour", 0.6, is_bot=False)],
            ]
        )
        # 1 - (1-.36)(1-.30)(1-.42) = 0.74
        assert fused[0].score > 0.5
        assert fused[0].is_bot

    def test_clean_subject_stays_clean(self):
        fusion = FusionDetector()
        fused = fusion.fuse(
            [
                [verdict("S1", "volume-threshold", 0.0)],
                [verdict("S1", "fingerprint-rules", 0.0)],
            ]
        )
        assert fused[0].score == 0.0
        assert not fused[0].is_bot

    def test_reasons_name_contributing_detectors(self):
        fusion = FusionDetector()
        fused = fusion.fuse(
            [
                [verdict("S1", "volume-threshold", 0.9)],
                [verdict("S1", "navigation-graph", 0.8)],
                [verdict("S1", "kmeans-behaviour", 0.1, is_bot=False)],
            ]
        )
        assert fused[0].reasons == ("volume-threshold", "navigation-graph")

    def test_subjects_kept_separate(self):
        fusion = FusionDetector()
        fused = fusion.fuse(
            [
                [
                    verdict("S1", "volume-threshold", 1.0),
                    verdict("S2", "volume-threshold", 0.0),
                ]
            ]
        )
        by_subject = {v.subject_id: v for v in fused}
        assert by_subject["S1"].is_bot
        assert not by_subject["S2"].is_bot

    def test_unknown_detector_uses_default_weight(self):
        fusion = FusionDetector(default_weight=0.2)
        fused = fusion.fuse([[verdict("S1", "new-detector", 1.0)]])
        assert fused[0].score == pytest.approx(0.2)
        assert not fused[0].is_bot

    def test_custom_weights(self):
        fusion = FusionDetector(weights={"x": 1.0})
        fused = fusion.fuse([[verdict("S1", "x", 0.7)]])
        assert fused[0].score == pytest.approx(0.7)

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            FusionDetector(weights={"x": 1.5})
        with pytest.raises(ValueError):
            FusionDetector(threshold=0.0)

    @pytest.mark.parametrize("default_weight", [1.5, -0.1])
    def test_default_weight_validation(self, default_weight):
        """Regression: an out-of-range ``default_weight`` used to be
        accepted, and with 1.5 two confident verdicts from unlisted
        detectors fused to 0.75 while one alone fused to 1.0."""
        with pytest.raises(ValueError, match="default_weight"):
            FusionDetector(default_weight=default_weight)

    def test_output_sorted_by_subject(self):
        fusion = FusionDetector()
        fused = fusion.fuse(
            [
                [
                    verdict("S3", "volume-threshold", 0.1, is_bot=False),
                    verdict("S1", "volume-threshold", 0.1, is_bot=False),
                    verdict("S2", "volume-threshold", 0.1, is_bot=False),
                ]
            ]
        )
        assert [v.subject_id for v in fused] == ["S1", "S2", "S3"]

    def test_default_weights_cover_library_detectors(self):
        for name in (
            "fingerprint-rules",
            "volume-threshold",
            "mouse-biometrics",
            "navigation-graph",
        ):
            assert name in DEFAULT_WEIGHTS
