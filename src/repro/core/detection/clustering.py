"""Unsupervised session clustering (k-means from scratch).

The unsupervised branch of behaviour-based detection the paper cites
(Rovetta et al.: "Bot recognition in a web store: an approach based on
unsupervised learning"): cluster session feature vectors, then label a
whole cluster as bot when its centroid is behaviourally extreme
(volume/rate far above the population median).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from ...ml.standardize import Standardiser
from .features import FEATURE_NAMES
from .verdict import Verdict


def kmeans(
    data: np.ndarray,
    k: int,
    rng: np.random.Generator,
    max_iterations: int = 100,
) -> Tuple[np.ndarray, np.ndarray]:
    """Lloyd's algorithm with k-means++ seeding.

    Returns ``(labels, centroids)``.  Deterministic given the generator.
    """
    n_samples = data.shape[0]
    if k < 1 or k > n_samples:
        raise ValueError(f"k must be in [1, {n_samples}]: {k}")

    # k-means++ seeding.
    centroids = np.empty((k, data.shape[1]))
    first = int(rng.integers(n_samples))
    centroids[0] = data[first]
    for index in range(1, k):
        distances = np.min(
            ((data[:, None, :] - centroids[None, :index, :]) ** 2).sum(
                axis=2
            ),
            axis=1,
        )
        total = distances.sum()
        if total <= 0:
            centroids[index] = data[int(rng.integers(n_samples))]
            continue
        probabilities = distances / total
        choice = int(rng.choice(n_samples, p=probabilities))
        centroids[index] = data[choice]

    labels = np.zeros(n_samples, dtype=int)
    for iteration in range(max_iterations):
        distances = ((data[:, None, :] - centroids[None, :, :]) ** 2).sum(
            axis=2
        )
        new_labels = distances.argmin(axis=1)
        if np.array_equal(new_labels, labels) and iteration > 0:
            break
        labels = new_labels
        # Distance of each point to its assigned centroid, before the
        # update — the re-seeding pool for starved clusters.
        assigned_distances = distances[np.arange(n_samples), labels]
        for cluster in range(k):
            members = data[labels == cluster]
            if len(members):
                centroids[cluster] = members.mean(axis=0)
                continue
            # A cluster can lose every member once centroids move;
            # leaving its stale centroid would silently return fewer
            # than k effective clusters.  Re-seed it at the point
            # farthest from its own centroid (the classic repair),
            # unless every point already sits exactly on one.
            farthest = int(assigned_distances.argmax())
            if assigned_distances[farthest] <= 0.0:
                continue
            centroids[cluster] = data[farthest]
            labels[farthest] = cluster
            assigned_distances[farthest] = 0.0
    return labels, centroids


@dataclass(frozen=True)
class ClusteringConfig:
    k: int = 4
    #: A cluster is bot-labelled when its centroid rate or volume exceeds
    #: this multiple of the population median.
    extremity_factor: float = 8.0


class ClusteringDetector:
    """K-means over session features with extreme-cluster labelling.

    Subjects are session ids.
    """

    name = "kmeans-behaviour"

    def __init__(
        self,
        rng: np.random.Generator,
        config: ClusteringConfig = ClusteringConfig(),
    ) -> None:
        self.config = config
        self._rng = rng

    def judge_index(self, index) -> List[Verdict]:
        """Judge every session in a :class:`~repro.core.detection.
        session_index.SessionIndex` from its feature matrix."""
        session_ids = index.session_ids
        matrix = index.matrix
        if len(session_ids) < self.config.k:
            return [
                Verdict(session_id, self.name, 0.0, False)
                for session_id in session_ids
            ]

        # Standardise so distance is not dominated by large-scale
        # features (constant-column-safe, see repro.ml.standardize;
        # distances are invariant to the constant-column anchoring).
        labels, _ = kmeans(
            Standardiser.fit(matrix).transform(matrix),
            self.config.k,
            self._rng,
        )

        count_index = FEATURE_NAMES.index("request_count")
        rate_index = FEATURE_NAMES.index("requests_per_minute")
        median_count = max(float(np.median(matrix[:, count_index])), 1.0)
        median_rate = max(float(np.median(matrix[:, rate_index])), 0.1)

        bot_clusters = set()
        for cluster in range(self.config.k):
            members = matrix[labels == cluster]
            if not len(members):
                continue
            centroid_count = float(members[:, count_index].mean())
            centroid_rate = float(members[:, rate_index].mean())
            if (
                centroid_count
                > self.config.extremity_factor * median_count
                or centroid_rate
                > self.config.extremity_factor * median_rate
            ):
                bot_clusters.add(cluster)

        verdicts = []
        for session_id, label in zip(session_ids, labels):
            flagged = int(label) in bot_clusters
            verdicts.append(
                Verdict(
                    subject_id=session_id,
                    detector=self.name,
                    score=1.0 if flagged else 0.0,
                    is_bot=flagged,
                    reasons=(f"cluster-{int(label)}",) if flagged else (),
                )
            )
        return verdicts
