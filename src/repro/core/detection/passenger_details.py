"""Passenger-detail heuristics (the Section IV-B detectors).

The signals that actually isolated the paper's Seat Spinning attacks —
automated *and* manual — live in the passenger data itself:

* **gibberish names** — random keyboard-mash entries,
* **repeated names** — the same (first, last) pair across many
  bookings,
* **birthdate rotation** — a fixed name whose birthdate changes
  systematically (the Airline B automation signature),
* **fixed name-set permutation** — a small pool of names reshuffled
  across bookings (the Airline C manual signature),
* **misspelling clusters** — near-duplicate names at edit distance 1,
  "suggesting manual input rather than automation".

:class:`PassengerDetailAnalyzer` runs all of them over a window of
booking records and emits typed findings with the affected hold ids.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Set, Tuple

from ...booking.passengers import edit_distance, gibberish_score
from ...booking.reservation import BookingRecord
from ...graph.unionfind import UnionFind

# Finding kinds.
GIBBERISH_NAMES = "gibberish-names"
REPEATED_NAME = "repeated-name"
BIRTHDATE_ROTATION = "birthdate-rotation"
NAME_SET_PERMUTATION = "name-set-permutation"
MISSPELLING_CLUSTER = "misspelling-cluster"

#: Execution-mode hints per finding kind.
AUTOMATED_HINT = "automated"
MANUAL_HINT = "manual"
EITHER_HINT = "either"

_MODE_HINTS: Dict[str, str] = {
    GIBBERISH_NAMES: AUTOMATED_HINT,
    REPEATED_NAME: EITHER_HINT,
    BIRTHDATE_ROTATION: AUTOMATED_HINT,
    NAME_SET_PERMUTATION: EITHER_HINT,
    MISSPELLING_CLUSTER: MANUAL_HINT,
}


@dataclass(frozen=True)
class PassengerFinding:
    """One heuristic hit over a set of bookings."""

    kind: str
    hold_ids: Tuple[str, ...]
    evidence: str
    score: float

    @property
    def mode_hint(self) -> str:
        """Whether this signature suggests automation, manual abuse, or
        either."""
        return _MODE_HINTS[self.kind]


@dataclass
class AnalyzerConfig:
    """Heuristic thresholds."""

    gibberish_threshold: float = 0.4
    #: Bookings a name pair must appear in before it counts as repeated.
    repeat_threshold: int = 4
    #: Distinct birthdates for one repeated name to flag rotation.
    birthdate_rotation_threshold: int = 3
    #: Minimum bookings for a name-set permutation cluster.
    permutation_min_bookings: int = 5
    #: Maximum pool of distinct names in a permutation cluster.
    permutation_max_pool: int = 12
    #: Misspelling candidates must sit at exactly this edit distance.
    misspell_distance: int = 1


class PassengerDetailAnalyzer:
    """Runs every passenger-detail heuristic over booking records."""

    def __init__(self, config: AnalyzerConfig = AnalyzerConfig()) -> None:
        self.config = config

    # -- public API ---------------------------------------------------------

    def analyze(
        self, records: Sequence[BookingRecord]
    ) -> List[PassengerFinding]:
        """All findings over the given window, strongest first."""
        held = [r for r in records if r.outcome == "held"]
        findings: List[PassengerFinding] = []
        findings.extend(self._gibberish(held))
        repeated = self._repeated_names(held)
        findings.extend(repeated_finding for repeated_finding, _ in repeated)
        findings.extend(
            self._birthdate_rotation(held, [key for _, key in repeated])
        )
        findings.extend(self._name_set_permutation(held))
        findings.extend(self._misspellings(held))
        findings.sort(key=lambda f: -f.score)
        return findings

    def flagged_hold_ids(
        self, records: Sequence[BookingRecord]
    ) -> Set[str]:
        """Union of hold ids across all findings."""
        flagged: Set[str] = set()
        for finding in self.analyze(records):
            flagged.update(finding.hold_ids)
        return flagged

    # -- heuristics ------------------------------------------------------------

    def _gibberish(
        self, records: Sequence[BookingRecord]
    ) -> List[PassengerFinding]:
        hold_ids = []
        worst = 0.0
        for record in records:
            # A fabricated passenger has *both* tokens random; a genuine
            # one has at least one pronounceable token (many real
            # surnames alone would trip a single-token check).
            scores = [
                min(
                    gibberish_score(p.first_name),
                    gibberish_score(p.last_name),
                )
                for p in record.passengers
            ]
            mean_score = sum(scores) / len(scores)
            if mean_score > self.config.gibberish_threshold:
                hold_ids.append(record.hold_id)
                worst = max(worst, mean_score)
        if not hold_ids:
            return []
        return [
            PassengerFinding(
                kind=GIBBERISH_NAMES,
                hold_ids=tuple(hold_ids),
                evidence=(
                    f"{len(hold_ids)} bookings with keyboard-mash names "
                    f"(max score {worst:.2f})"
                ),
                score=min(worst, 1.0),
            )
        ]

    def _repeated_names(
        self, records: Sequence[BookingRecord]
    ) -> List[Tuple[PassengerFinding, Tuple[str, str]]]:
        bookings_with_name: Dict[Tuple[str, str], List[str]] = defaultdict(
            list
        )
        for record in records:
            for key in {p.name_key for p in record.passengers}:
                bookings_with_name[key].append(record.hold_id)
        findings = []
        for key, hold_ids in sorted(bookings_with_name.items()):
            if len(hold_ids) >= self.config.repeat_threshold:
                first, last = key
                findings.append(
                    (
                        PassengerFinding(
                            kind=REPEATED_NAME,
                            hold_ids=tuple(hold_ids),
                            evidence=(
                                f"name '{first} {last}' appears in "
                                f"{len(hold_ids)} bookings"
                            ),
                            score=min(
                                len(hold_ids)
                                / (self.config.repeat_threshold * 4),
                                1.0,
                            ),
                        ),
                        key,
                    )
                )
        return findings

    def _birthdate_rotation(
        self,
        records: Sequence[BookingRecord],
        repeated_keys: Sequence[Tuple[str, str]],
    ) -> List[PassengerFinding]:
        repeated = set(repeated_keys)
        birthdates: Dict[Tuple[str, str], Set[str]] = defaultdict(set)
        holds: Dict[Tuple[str, str], List[str]] = defaultdict(list)
        for record in records:
            for passenger in record.passengers:
                if passenger.name_key in repeated:
                    birthdates[passenger.name_key].add(passenger.birthdate)
                    holds[passenger.name_key].append(record.hold_id)
        findings = []
        for key in sorted(birthdates):
            distinct = len(birthdates[key])
            if distinct >= self.config.birthdate_rotation_threshold:
                first, last = key
                findings.append(
                    PassengerFinding(
                        kind=BIRTHDATE_ROTATION,
                        hold_ids=tuple(dict.fromkeys(holds[key])),
                        evidence=(
                            f"name '{first} {last}' used with {distinct} "
                            "distinct birthdates"
                        ),
                        score=min(distinct / 10.0 + 0.5, 1.0),
                    )
                )
        return findings

    def _name_set_permutation(
        self, records: Sequence[BookingRecord]
    ) -> List[PassengerFinding]:
        """Clusters of bookings drawing from one small shared name pool
        in varying orders/combinations."""
        name_counts: Counter = Counter()
        for record in records:
            for key in {p.name_key for p in record.passengers}:
                name_counts[key] += 1
        shared = {key for key, count in name_counts.items() if count >= 2}
        if not shared:
            return []

        union = UnionFind(len(records))
        first_with: Dict[Tuple[str, str], int] = {}
        for index, record in enumerate(records):
            for key in {p.name_key for p in record.passengers}:
                if key not in shared:
                    continue
                if key in first_with:
                    union.union(first_with[key], index)
                else:
                    first_with[key] = index

        findings = []
        for group in union.groups():
            if len(group) < self.config.permutation_min_bookings:
                continue
            pool: Set[Tuple[str, str]] = set()
            orderings: Set[Tuple[Tuple[str, str], ...]] = set()
            hold_ids = []
            for index in group:
                record = records[index]
                keys = tuple(p.name_key for p in record.passengers)
                pool.update(keys)
                orderings.add(keys)
                hold_ids.append(record.hold_id)
            if len(pool) > self.config.permutation_max_pool:
                continue
            if len(orderings) < 2:
                continue  # identical every time: plain repetition
            findings.append(
                PassengerFinding(
                    kind=NAME_SET_PERMUTATION,
                    hold_ids=tuple(hold_ids),
                    evidence=(
                        f"{len(group)} bookings permute a pool of "
                        f"{len(pool)} names in {len(orderings)} orders"
                    ),
                    score=min(len(group) / 20.0 + 0.4, 1.0),
                )
            )
        return findings

    def _misspellings(
        self, records: Sequence[BookingRecord]
    ) -> List[PassengerFinding]:
        """Near-duplicate names one edit away from a frequent name."""
        token_counts: Counter = Counter()
        token_holds: Dict[str, List[str]] = defaultdict(list)
        for record in records:
            for passenger in record.passengers:
                for token in (
                    passenger.first_name.lower(),
                    passenger.last_name.lower(),
                ):
                    token_counts[token] += 1
                    token_holds[token].append(record.hold_id)
        frequent = [
            token for token, count in token_counts.items() if count >= 3
        ]
        findings = []
        seen_pairs: Set[Tuple[str, str]] = set()
        for token in sorted(frequent):
            for other in sorted(token_counts):
                if other == token or token_counts[other] >= 3:
                    continue
                pair = (min(token, other), max(token, other))
                if pair in seen_pairs:
                    continue
                if (
                    abs(len(token) - len(other))
                    <= self.config.misspell_distance
                    and edit_distance(token, other)
                    == self.config.misspell_distance
                ):
                    seen_pairs.add(pair)
                    # Only the bookings containing the *misspelled*
                    # token are implicated; sweeping in every booking
                    # with the frequent name would flag whole families.
                    hold_ids = tuple(dict.fromkeys(token_holds[other]))
                    findings.append(
                        PassengerFinding(
                            kind=MISSPELLING_CLUSTER,
                            hold_ids=hold_ids,
                            evidence=(
                                f"'{other}' is one edit from frequent "
                                f"name '{token}'"
                            ),
                            score=0.6,
                        )
                    )
        return findings
