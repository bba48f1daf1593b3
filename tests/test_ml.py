"""Tests for repro.ml: datasets, model ladder, RPML io, detector."""

import numpy as np
import pytest

from repro.common import ClientRef, LEGIT, SCRAPER
from repro.core.detection.features import FEATURE_NAMES
from repro.core.detection.session_index import SessionIndex
from repro.ml import (
    Dataset,
    FeatureStore,
    FeatureStoreAdapter,
    LearnedSessionDetector,
    LogisticHead,
    MLPHead,
    SequenceEncoder,
    Standardiser,
    TrainConfig,
    build_dataset,
    encode_sequence,
    load_model,
    save_model,
    train_model,
    weights_digest,
)
from repro.ml.data import MAX_SEQUENCE_LENGTH, PAD_TOKEN, VOCAB_SIZE, entry_token
from repro.ml.io import ModelFormatError
from repro.ml.train import calibrate_threshold
from repro.stream import SessionDetectorAdapter, StreamPipeline
from repro.web.logs import LogEntry, Session, sessionize
from repro.web.logs import WebLog
from repro.web.request import FLIGHT_DETAILS, HOLD, SEARCH


def make_client(ip="1.1.1.1", fingerprint="fp", actor=LEGIT):
    return ClientRef(
        ip_address=ip,
        ip_country="US",
        ip_residential=True,
        fingerprint_id=fingerprint,
        user_agent="UA",
        actor_class=actor,
    )


def make_session(
    session_id,
    request_count,
    spacing=10.0,
    actor=LEGIT,
    paths=(SEARCH,),
    status=200,
    start=0.0,
):
    client = make_client(actor=actor)
    entries = [
        LogEntry(
            time=start + i * spacing,
            method="GET",
            path=paths[i % len(paths)],
            status=status,
            client=client,
        )
        for i in range(request_count)
    ]
    return Session(
        session_id=session_id,
        ip_address=client.ip_address,
        fingerprint_id=client.fingerprint_id,
        entries=entries,
    )


def separable_sessions(humans=16, bots=16):
    """Human browse cadence vs scripted hold-loop cadence."""
    sessions = [
        make_session(
            f"H{i}",
            request_count=4 + i % 3,
            spacing=35.0 + i,
            paths=(SEARCH, FLIGHT_DETAILS),
        )
        for i in range(humans)
    ] + [
        make_session(
            f"B{i}",
            request_count=24,
            spacing=2.0,
            actor=SCRAPER,
            paths=(SEARCH, FLIGHT_DETAILS, HOLD),
            start=1000.0 * i,
        )
        for i in range(bots)
    ]
    labels = [False] * humans + [True] * bots
    return sessions, labels


def separable_dataset(humans=16, bots=16):
    sessions, labels = separable_sessions(humans, bots)
    return build_dataset(sessions, labels=labels)


# -- sequence encoding -------------------------------------------------------


class TestEncoding:
    def test_tokens_and_gaps(self):
        session = make_session(
            "S1", 3, spacing=10.0, paths=(SEARCH, HOLD)
        )
        tokens, gaps = encode_sequence(session)
        assert tokens.shape == (MAX_SEQUENCE_LENGTH,)
        assert tokens[0] == entry_token(SEARCH, 200)
        assert tokens[1] == entry_token(HOLD, 200)
        assert (tokens[3:] == PAD_TOKEN).all()
        assert gaps[0] == 0.0
        assert gaps[1] == pytest.approx(np.log1p(10.0))
        assert (gaps[3:] == 0.0).all()

    def test_unknown_path_and_error_status(self):
        token = entry_token("/no-such-endpoint", 404)
        assert 0 <= token < VOCAB_SIZE
        assert token % 2 == 1  # error bucket

    def test_long_session_truncates(self):
        session = make_session("S1", MAX_SEQUENCE_LENGTH + 40)
        tokens, _ = encode_sequence(session)
        assert (tokens != PAD_TOKEN).all()

    def test_build_dataset_alignment(self):
        dataset = separable_dataset(humans=3, bots=2)
        assert len(dataset) == 5
        assert dataset.features.shape == (5, len(FEATURE_NAMES))
        assert dataset.labelled
        assert dataset.labels.tolist() == [0, 0, 0, 1, 1]
        sub = dataset.subset([4, 0])
        assert sub.session_ids == ["B1", "H0"]
        assert sub.labels.tolist() == [1, 0]

    def test_label_count_mismatch_rejected(self):
        sessions, _ = separable_sessions(2, 0)
        with pytest.raises(ValueError):
            build_dataset(sessions, labels=[True])


# -- model ladder ------------------------------------------------------------


class TestLadder:
    @pytest.mark.parametrize(
        "model",
        [
            LogisticHead(),
            MLPHead(epochs=200),
            SequenceEncoder(d_model=8, epochs=40),
        ],
        ids=["logistic", "mlp", "encoder"],
    )
    def test_learns_separable_data(self, model):
        dataset = separable_dataset()
        report = model.fit(dataset, np.random.default_rng(0))
        assert report.training_accuracy == 1.0
        probabilities = model.predict_proba(dataset)
        assert probabilities[:16].max() < 0.5
        assert probabilities[16:].min() > 0.5

    def test_unlabelled_dataset_rejected(self):
        sessions, _ = separable_sessions(4, 4)
        dataset = build_dataset(sessions)  # no labels
        with pytest.raises(ValueError):
            MLPHead().fit(dataset, np.random.default_rng(0))

    def test_single_class_rejected(self):
        sessions, _ = separable_sessions(4, 0)
        dataset = build_dataset(sessions, labels=[False] * 4)
        with pytest.raises(ValueError):
            LogisticHead().fit(dataset, np.random.default_rng(0))

    def test_unfitted_predict_raises(self):
        with pytest.raises(RuntimeError):
            SequenceEncoder().predict_proba(separable_dataset(1, 1))


class TestEncoderGradients:
    def test_analytic_gradients_match_finite_differences(self):
        """The encoder's hand-written backprop is exact: every
        parameter tensor's analytic gradient matches central finite
        differences on a padded mixed batch."""
        rng = np.random.default_rng(42)
        encoder = SequenceEncoder(d_model=6, l2=1e-3)
        encoder.init_params(rng)
        n = 5
        tokens = rng.integers(
            0, VOCAB_SIZE, size=(n, MAX_SEQUENCE_LENGTH)
        ).astype(np.int16)
        for row in range(n):
            tokens[row, int(rng.integers(2, MAX_SEQUENCE_LENGTH)):] = (
                PAD_TOKEN
            )
        gaps = np.abs(rng.normal(0.0, 1.0, size=tokens.shape))
        gaps[tokens == PAD_TOKEN] = 0.0
        labels = np.array([0.0, 1.0, 1.0, 0.0, 1.0])
        weights = np.array([1.0, 0.5, 1.5, 1.0, 1.0])

        _, grads = encoder.loss_and_grads(tokens, gaps, labels, weights)
        eps = 1e-6
        for name, array in encoder.params.items():
            flat = array.reshape(-1)
            for index in rng.choice(
                flat.size, size=min(4, flat.size), replace=False
            ):
                original = flat[index]
                flat[index] = original + eps
                loss_plus, _ = encoder.loss_and_grads(
                    tokens, gaps, labels, weights
                )
                flat[index] = original - eps
                loss_minus, _ = encoder.loss_and_grads(
                    tokens, gaps, labels, weights
                )
                flat[index] = original
                numeric = (loss_plus - loss_minus) / (2 * eps)
                analytic = grads[name].reshape(-1)[index]
                assert analytic == pytest.approx(
                    numeric, rel=1e-4, abs=1e-8
                ), name


# -- RPML round trip ---------------------------------------------------------


class TestModelIO:
    @pytest.mark.parametrize(
        "model",
        [
            LogisticHead(epochs=50),
            MLPHead(epochs=50),
            SequenceEncoder(d_model=8, epochs=10),
        ],
        ids=["logistic", "mlp", "encoder"],
    )
    def test_save_load_round_trips_exactly(self, model, tmp_path):
        dataset = separable_dataset(humans=8, bots=8)
        model.fit(dataset, np.random.default_rng(3))
        model.threshold = 0.625
        path = tmp_path / "model.rpml"
        save_model(path, model, meta={"note": "test"})
        loaded, meta = load_model(path)
        assert meta == {"note": "test"}
        assert type(loaded) is type(model)
        assert loaded.threshold == model.threshold
        _, original_arrays = model.get_state()
        _, loaded_arrays = loaded.get_state()
        assert set(original_arrays) == set(loaded_arrays)
        for name, array in original_arrays.items():
            assert np.array_equal(loaded_arrays[name], array), name
        assert np.array_equal(
            loaded.predict_proba(dataset), model.predict_proba(dataset)
        )
        assert weights_digest(loaded) == weights_digest(model)

    def test_rejects_garbage_and_wrong_version(self, tmp_path):
        path = tmp_path / "bad.rpml"
        path.write_bytes(b"not a model")
        with pytest.raises(ModelFormatError):
            load_model(path)
        path.write_bytes(b"RPML\xff\xff\x00\x00\x00\x00")
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_unfitted_model_cannot_be_saved(self, tmp_path):
        with pytest.raises(RuntimeError):
            save_model(tmp_path / "m.rpml", MLPHead())


# -- threshold calibration ---------------------------------------------------


class TestCalibration:
    def test_threshold_meets_target_fpr(self):
        rng = np.random.default_rng(0)
        probabilities = np.concatenate(
            [rng.uniform(0.0, 0.6, 200), rng.uniform(0.7, 1.0, 50)]
        )
        labels = np.concatenate([np.zeros(200), np.ones(50)])
        for target in (0.005, 0.02, 0.1):
            threshold = calibrate_threshold(
                probabilities, labels, target
            )
            legit = probabilities[labels < 0.5]
            fpr = float((legit >= threshold).mean())
            assert fpr <= target

    def test_zero_allowed_goes_above_max_legit(self):
        probabilities = np.array([0.1, 0.4, 0.9])
        labels = np.array([0.0, 0.0, 1.0])
        threshold = calibrate_threshold(probabilities, labels, 0.01)
        assert threshold > 0.4

    def test_no_legit_rows_defaults(self):
        assert calibrate_threshold(
            np.array([0.9]), np.array([1.0]), 0.01
        ) == 0.5


# -- feature store -----------------------------------------------------------


class TestFeatureStore:
    def test_round_trips_through_npz(self, tmp_path):
        sessions, _ = separable_sessions(5, 3)
        store = FeatureStore()
        store.extend(sessions)
        path = tmp_path / "store.npz"
        store.save(path)
        loaded = FeatureStore.load(path)
        original = store.to_dataset()
        restored = loaded.to_dataset()
        assert restored.session_ids == original.session_ids
        assert restored.actor_classes == original.actor_classes
        assert np.array_equal(restored.features, original.features)
        assert np.array_equal(restored.tokens, original.tokens)
        assert np.array_equal(restored.gaps, original.gaps)
        assert np.array_equal(restored.labels, original.labels)

    def test_without_truth_is_unlabelled(self):
        sessions, _ = separable_sessions(2, 2)
        store = FeatureStore()
        store.extend(sessions, with_truth=False)
        dataset = store.to_dataset()
        assert np.isnan(dataset.labels).all()
        assert not dataset.labelled

    def test_empty_store_dataset(self):
        dataset = FeatureStore().to_dataset()
        assert len(dataset) == 0
        assert dataset.features.shape == (0, len(FEATURE_NAMES))

    def test_adapter_matches_batch_sessionization(self):
        """Sessions captured by the stream adapter are exactly the
        batch ``sessionize`` output, feature for feature."""
        log = WebLog()
        client_a = make_client(ip="1.1.1.1", fingerprint="fpA")
        client_b = make_client(
            ip="2.2.2.2", fingerprint="fpB", actor=SCRAPER
        )
        time = 0.0
        for burst in range(3):
            for step in range(4):
                log.append(LogEntry(
                    time=time,
                    method="GET",
                    path=SEARCH,
                    status=200,
                    client=client_a if burst % 2 == 0 else client_b,
                ))
                time += 60.0
            time += 3 * 3600.0  # idle gap closes the session
        adapter = FeatureStoreAdapter()
        pipeline = StreamPipeline(adapters=[adapter])
        for entry in log.entries():
            pipeline.process(entry)
        pipeline.finish()
        batch = build_dataset(sessionize(log), with_truth=True)
        streamed = adapter.store.to_dataset()
        assert sorted(streamed.session_ids) == sorted(batch.session_ids)
        order = [
            streamed.session_ids.index(sid)
            for sid in batch.session_ids
        ]
        assert np.array_equal(streamed.features[order], batch.features)
        assert np.array_equal(streamed.tokens[order], batch.tokens)
        assert np.array_equal(streamed.labels[order], batch.labels)


# -- learned detector --------------------------------------------------------


@pytest.fixture(scope="module")
def trained_mlp():
    sessions, labels = separable_sessions()
    dataset = build_dataset(sessions, labels=labels)
    model = train_model(
        dataset, TrainConfig(model="mlp", master_seed=11)
    ).model
    # Pin the decision threshold away from every score: single-row and
    # batch matmuls differ in the last ulp, so a threshold calibrated
    # to sit exactly one ulp above a training score would flip flags.
    model.threshold = 0.5
    return model


def assert_verdicts_close(actual, expected):
    assert len(actual) == len(expected)
    for got, want in zip(actual, expected):
        assert got.subject_id == want.subject_id
        assert got.detector == want.detector
        assert got.is_bot == want.is_bot
        assert got.score == pytest.approx(want.score, rel=1e-9)


def mixed_log():
    """Four human-paced browsers and four hold-looping bots, one
    client identity (so one session) each."""
    log = WebLog()
    clients = [
        make_client(ip=f"10.0.0.{i}", fingerprint=f"fp{i}")
        for i in range(4)
    ] + [
        make_client(
            ip=f"10.0.1.{i}",
            fingerprint=f"bot{i}",
            actor=SCRAPER,
        )
        for i in range(4)
    ]
    entries = []
    for rank, client in enumerate(clients):
        bot = client.actor_class == SCRAPER
        count = 20 if bot else 5
        spacing = 2.0 if bot else 40.0
        for step in range(count):
            entries.append(LogEntry(
                time=rank * 7.0 + step * spacing,
                method="GET",
                path=(SEARCH, FLIGHT_DETAILS, HOLD)[step % 3]
                if bot
                else (SEARCH, FLIGHT_DETAILS)[step % 2],
                status=200,
                client=client,
            ))
    for entry in sorted(entries, key=lambda e: e.time):
        log.append(entry)
    return log


class TestLearnedDetector:
    def test_requires_fitted_model(self):
        with pytest.raises(ValueError):
            LearnedSessionDetector(MLPHead())

    def test_judge_matches_judge_all(self, trained_mlp):
        """Scoring one session at a time (the streaming path) matches
        batch scoring of the whole index to float round-off — the
        standardiser and weights are frozen at train time."""
        index = SessionIndex.from_log(mixed_log())
        detector = LearnedSessionDetector(trained_mlp)
        batch = detector.judge_index(index)
        single = [detector.judge(session) for session in index.sessions()]
        assert_verdicts_close(single, batch)
        assert all(v.detector == "learned-sequence" for v in batch)
        assert [v.is_bot for v in batch] == list(index.is_attacker)

    def test_stream_adapter_equivalence(self, trained_mlp):
        """The learned arm behind SessionDetectorAdapter emits the
        same verdict set as the batch pipeline on the same log."""
        log = mixed_log()
        detector = LearnedSessionDetector(trained_mlp)
        pipeline = StreamPipeline(
            adapters=[SessionDetectorAdapter(detector)]
        )
        for entry in log.entries():
            pipeline.process(entry)
        report = pipeline.finish()
        batch = detector.judge_index(SessionIndex.from_log(log))
        streamed = sorted(
            report.session_verdicts, key=lambda v: v.subject_id
        )
        assert_verdicts_close(
            streamed, sorted(batch, key=lambda v: v.subject_id)
        )
