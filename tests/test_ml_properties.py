"""Property tests: training determinism and model round-trips.

``repro train`` promises bit-reproducibility: the same
``(master_seed, config)`` pair on the same dataset yields bit-identical
weights and predictions, whether models are trained serially or on
worker processes.  These properties are what make the pinned
``weights_digest`` in benchmark artifacts meaningful.
"""

import hashlib
from concurrent.futures import ProcessPoolExecutor

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.ml.io import load_model, save_model
from repro.ml.train import (
    TrainConfig,
    config_hash,
    dataset_digest,
    train_model,
    weights_digest,
)
from tests.test_ml import separable_dataset

SEEDS = st.integers(min_value=0, max_value=2**31 - 1)


def train_digests(model_name, master_seed):
    """Train on the canonical small dataset; return comparison digests.

    Module-level so ProcessPoolExecutor can pickle it; rebuilds the
    dataset from scratch so worker processes share no state with the
    parent beyond the arguments.
    """
    dataset = separable_dataset(humans=10, bots=10)
    config = TrainConfig(
        model=model_name, master_seed=master_seed, epochs=40
    )
    result = train_model(dataset, config)
    predictions = result.model.predict_proba(dataset)
    return (
        weights_digest(result.model),
        hashlib.sha256(predictions.tobytes()).hexdigest(),
        result.meta["config_hash"],
        result.meta["dataset_digest"],
    )


class TestTrainingDeterminism:
    @settings(max_examples=8, deadline=None)
    @given(master_seed=SEEDS)
    def test_same_seed_same_weights_and_predictions(self, master_seed):
        assert train_digests("logistic", master_seed) == train_digests(
            "logistic", master_seed
        )

    @settings(max_examples=4, deadline=None)
    @given(master_seed=SEEDS)
    def test_mlp_rng_initialisation_is_seed_derived(self, master_seed):
        first = train_digests("mlp", master_seed)
        second = train_digests("mlp", master_seed)
        assert first == second

    def test_encoder_is_deterministic(self):
        assert train_digests("encoder", 7) == train_digests("encoder", 7)

    def test_process_pool_matches_serial(self):
        """Worker-process training yields the exact serial digests —
        no hidden global RNG or hash-seed dependence."""
        jobs = [("logistic", 3), ("mlp", 5), ("mlp", 3)]
        serial = [train_digests(*job) for job in jobs]
        with ProcessPoolExecutor(max_workers=2) as pool:
            pooled = list(pool.map(train_digests, *zip(*jobs)))
        assert pooled == serial

    def test_config_hash_separates_configs(self):
        base = TrainConfig(model="mlp", master_seed=1)
        assert config_hash(base) == config_hash(
            TrainConfig(model="mlp", master_seed=1)
        )
        assert config_hash(base) != config_hash(
            TrainConfig(model="mlp", master_seed=2)
        )
        assert config_hash(base) != config_hash(
            TrainConfig(model="logistic", master_seed=1)
        )

    def test_dataset_digest_tracks_contents(self):
        small = separable_dataset(4, 4)
        assert dataset_digest(small) == dataset_digest(
            separable_dataset(4, 4)
        )
        assert dataset_digest(small) != dataset_digest(
            separable_dataset(4, 5)
        )


class TestRoundTripProperty:
    @settings(max_examples=10, deadline=None)
    @given(
        model_name=st.sampled_from(["logistic", "mlp"]),
        master_seed=SEEDS,
        threshold=st.floats(
            min_value=1e-6,
            max_value=1.0 - 1e-6,
            allow_nan=False,
            exclude_max=True,
        ),
    )
    def test_save_load_preserves_digest_exactly(
        self, tmp_path_factory, model_name, master_seed, threshold
    ):
        dataset = separable_dataset(humans=6, bots=6)
        result = train_model(
            dataset,
            TrainConfig(
                model=model_name, master_seed=master_seed, epochs=30
            ),
        )
        model = result.model
        model.threshold = threshold
        path = tmp_path_factory.mktemp("models") / "model.rpml"
        save_model(path, model, meta=result.meta)
        loaded, meta = load_model(path)
        assert weights_digest(loaded) == weights_digest(model)
        assert loaded.threshold == threshold
        assert meta == result.meta
        assert np.array_equal(
            loaded.predict_proba(dataset), model.predict_proba(dataset)
        )
