"""Command-line interface: run any paper scenario from the shell.

Usage::

    python -m repro fig1                # Fig. 1 (Case A, 3 weeks)
    python -m repro table1              # Table I (Case C, 2 weeks)
    python -m repro case-a              # Case A arms-race metrics
    python -m repro case-b              # Case B passenger heuristics
    python -m repro case-c --variant per-ref
    python -m repro case-d --variant number-reputation
    python -m repro case-e --variant destination-surge
    python -m repro portfolio --defense all
    python -m repro scenarios           # list sweepable scenarios
    python -m repro detectors           # Section III detector matrix
    python -m repro graph case-a        # campaign graph vs session fusion
    python -m repro behavioural         # Section V behavioural stack
    python -m repro stream --honeypot --capture run.trace
    python -m repro replay run.trace --compare-batch
    python -m repro profile case-a --ticks-short --out report.json
    python -m repro sweep --scenario case-a \
        --param hold_ttl=1800,7200 --reps 8 --workers 4

The scenario commands (``fig1`` through ``stream``) are the rows of one
table, :data:`SCENARIO_COMMANDS`: each row names its config class, run
function and renderer, and each of its options names the config field
it sets.  One handler serves them all.  Every command that runs a
scenario accepts ``--seed`` for a different (still deterministic) run;
omitted, it is the config class's own default.  Scaled-down variants
are available where full-size runs take more than a few seconds
(``table1 --scale``).  A row that names a registered runner scenario
also accepts ``--reps N --workers W --shards K`` to run N independent
replications through :mod:`repro.runner` (in W worker processes, each
cell split into K population shards) and report each metric as mean
+/- 95% CI instead of a single draw.
"""

from __future__ import annotations

import argparse
import operator
import sys
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from . import runner
from .analysis.reports import format_percent, render_table, render_weekly_nip
from .ml.train import MODEL_CHOICES
from .obs.profile import PROFILED_CASES
from .scenarios import (
    behavioural,
    case_a,
    case_b,
    case_c,
    case_d,
    case_e,
    detectors,
    graph_case,
    portfolio,
    streaming,
)
from .scenarios.learned import LEARNED_VARIANTS
from .sim.clock import format_duration


def _parse_param_value(text: str) -> object:
    """One sweep value from the command line: int/float/None/bool/str."""
    lowered = text.strip()
    if lowered == "None":
        return None
    if lowered in ("True", "False"):
        return lowered == "True"
    for cast in (int, float):
        try:
            return cast(lowered)
        except ValueError:
            continue
    return lowered


def _parse_param(text: str) -> Tuple[str, List[object]]:
    """``name=v1,v2,...`` -> (name, values)."""
    if "=" not in text:
        raise argparse.ArgumentTypeError(
            f"expected name=value[,value...]: {text!r}"
        )
    name, _, values = text.partition("=")
    parsed = [_parse_param_value(value) for value in values.split(",")]
    return name.strip(), parsed


def _positive(cast: Callable[[str], float]) -> Callable[[str], float]:
    """An argparse ``type``: ``cast`` the text and require a value > 0."""

    def parse(text: str) -> float:
        value = cast(text)
        if value <= 0:
            raise argparse.ArgumentTypeError(f"must be > 0, got {text}")
        return value

    parse.__name__ = cast.__name__  # argparse's "invalid int value: ..."
    return parse


_positive_int = _positive(int)
_positive_float = _positive(float)


def _print_aggregate_table(
    result, metrics: Optional[Sequence[str]], title: str
) -> None:
    """One row per grid point: swept axes + mean +/- CI per metric."""
    axes = sorted(result.spec.grid)
    rows = []
    chosen: Optional[Sequence[str]] = metrics
    for params, stats in result.aggregate_all():
        if chosen is None:
            chosen = sorted(stats)
        rows.append(
            [params[axis] for axis in axes]
            + [str(stats[name]) for name in chosen if name in stats]
        )
    headers = list(axes) + list(chosen or [])
    print(render_table(headers, rows, title=title))
    print(
        f"\n{len(result.cells)} cells "
        f"({result.spec.replications} replications/point), "
        f"backend={result.backend}, workers={result.workers}, "
        f"shards={result.shards}, "
        f"cache hits={result.cache_hits}, "
        f"elapsed={result.elapsed:.2f}s"
    )


def _default_seed(args: argparse.Namespace, config_cls: type) -> None:
    """Fill an omitted ``--seed`` with ``config_cls``'s own default."""
    if args.seed is None:
        args.seed = config_cls().seed


def _use_runner(args: argparse.Namespace) -> bool:
    """Whether a case command goes through :mod:`repro.runner`
    (replications, worker processes or shards) instead of one run."""
    return args.reps > 1 or args.workers > 1 or args.shards > 1


def _sweep(
    args: argparse.Namespace,
    scenario: str,
    base: Mapping[str, object],
    grid: Optional[Mapping[str, Sequence[object]]] = None,
) -> Optional[runner.SweepResult]:
    """The CLI's one :func:`repro.runner.run_sweep` call.

    An unknown scenario name is a usage error: the registry's own
    message (the one place the valid names are listed) goes to stderr
    and ``None`` comes back, for the caller to exit 2.  A config or
    spec the runner rejects (``TypeError``/``ValueError``) exits with
    ``error: ...``.  Anything else raised inside a cell propagates.
    """
    try:
        runner.get_scenario(scenario)
    except KeyError as error:
        print(f"error: {error.args[0]}", file=sys.stderr)
        return None
    try:
        return runner.run_sweep(
            runner.SweepSpec(
                scenario=scenario,
                base=base,
                grid=grid or {},
                replications=args.reps,
                **({} if args.seed is None else {"master_seed": args.seed}),
            ),
            workers=args.workers,
            cache_dir=args.cache_dir,
            shards=getattr(args, "shards", 1),
        )
    except (TypeError, ValueError) as error:
        raise SystemExit(f"error: {error}")


def _run_replicated(
    scenario: str, base: Dict[str, object], args: argparse.Namespace
) -> int:
    """The --reps/--workers/--shards path of the scenario commands."""
    result = _sweep(args, scenario, base)
    if result is None:
        return 2
    _print_aggregate_table(
        result,
        None,
        title=(
            f"{scenario}: {args.reps} replications "
            f"(master seed {args.seed}, mean +/- 95% CI)"
        ),
    )
    return 0


# -- renderers: one scenario result -> the text the command prints --------


def _render_fig1(result, args: argparse.Namespace) -> str:
    return render_weekly_nip(
        [
            {n: week.get(n, 0.0) for n in range(1, 10)}
            for week in result.week_shares
        ],
        ["average week", "attack week", "after NiP<=4 cap"],
    )


def _render_table1(result, args: argparse.Namespace) -> str:
    text = render_table(
        ["Country", "Baseline/wk", "Attack wk", "Increase", "Paper"],
        [
            [
                surge.country_code,
                surge.baseline_count,
                surge.window_count,
                format_percent(surge.surge_percent),
                format_percent(
                    case_c.TABLE1_SURGES.get(surge.country_code, 0.0)
                ),
            ]
            for surge in result.table1_rows()
        ],
        title=(
            "Table I "
            f"(global +{result.global_increase_percent:.1f}%, "
            f"{result.countries_targeted} countries targeted)"
        ),
    )
    if args.scale > 1.0:
        text += (
            f"\n\nnote: --scale {args.scale:g} shrinks the legitimate "
            "baseline but keeps the Table I country pins, so per-country "
            "surges stay faithful while the global increase is inflated; "
            "run at --scale 1 for the paper's ~25% figure."
        )
    return text


def _render_case_a(result, args: argparse.Namespace) -> str:
    interval = result.measured_rotation_interval
    return render_table(
        ["Metric", "Value"],
        [
            ["attacker holds created", result.attacker_holds_created],
            ["fingerprint rotations", result.attacker_rotations],
            ["mean rotation interval",
             format_duration(interval) if interval else "-"],
            ["block rules deployed", len(result.rule_effectiveness)],
            ["mean rule effective window",
             format_duration(result.mean_rule_window or 0.0)],
            ["final attacker NiP", result.attacker_final_nip],
            ["attack quiet before departure",
             format_duration(
                 result.departure_time
                 - (result.last_attack_hold_time or 0.0)
             )],
        ],
        title="Case A: Seat Spinning arms race",
    )


def _render_case_b(result, args: argparse.Namespace) -> str:
    return render_table(
        ["Metric", "Value"],
        [
            ["automated coverage",
             f"{result.automated_coverage * 100:.1f}%"],
            ["manual coverage", f"{result.manual_coverage * 100:.1f}%"],
            ["legit false positives",
             f"{result.legit_false_positive_rate * 100:.2f}%"],
            ["finding kinds", ", ".join(sorted(result.finding_kinds))],
            ["volume recall (automated)",
             f"{result.volume_recall.get('seat-spinner', 0.0):.2f}"],
            ["volume recall (manual)",
             f"{result.volume_recall.get('manual-spinner', 0.0):.2f}"],
        ],
        title="Case B: automated vs manual seat spinning",
    )


def _render_case_c(result, args: argparse.Namespace) -> str:
    latency = result.detection_latency
    return render_table(
        ["Metric", "Value"],
        [
            ["variant", result.config.variant],
            ["attacker SMS delivered", result.attacker_sms_delivered],
            ["attacker attempts rate-limited",
             result.attacker_sms_attempts_blocked],
            ["detection latency",
             format_duration(latency) if latency is not None else "-"],
            ["SMS feature removed",
             "yes" if result.feature_disabled_at is not None else "no"],
            ["global SMS increase",
             f"{result.global_increase_percent:.1f}%"],
            ["attacker net", f"${result.attacker_ledger.net:+.2f}"],
            ["defender SMS spend", f"${result.defender_sms_cost:.2f}"],
        ],
        title="Case C: SMS pumping",
    )


def _render_case_d(result, args: argparse.Namespace) -> str:
    ttfb = result.time_to_first_block
    return render_table(
        ["Metric", "Value"],
        [
            ["variant", result.config.variant],
            ["attacker OTPs delivered", result.attacker_otps_delivered],
            ["numbers rented", result.numbers_rented],
            ["OTPs per rented number",
             f"{result.mean_otps_per_number:.2f}"],
            ["numbers burned by defense", result.burned_numbers],
            ["time to first block",
             format_duration(ttfb) if ttfb is not None else "-"],
            ["rental spend", f"${result.rental_cost_total:.2f}"],
            ["attacker net", f"${result.attacker_ledger.net:+.2f}"],
            ["attacker ROI", f"{result.attacker_roi:+.2f}"],
            ["legit OTPs delivered", result.legit_otps_delivered],
            ["legit fp conviction rate",
             f"{result.legit_fp_conviction_rate * 100:.2f}%"],
        ],
        title="Case D: OTP abuse via disposable-number cycling",
    )


def _render_case_e(result, args: argparse.Namespace) -> str:
    ttfb = result.time_to_first_block
    cap_at = result.cap_installed_at
    return render_table(
        ["Metric", "Value"],
        [
            ["variant", result.config.variant],
            ["victim", result.victim_number.e164],
            ["flood messages delivered",
             result.victim_messages_delivered],
            ["amplifier attempts", result.amplifier_attempts],
            ["amplifier blocked", result.amplifier_blocked],
            ["amplifier rate-limited", result.amplifier_rate_limited],
            ["surge events", result.surge_events],
            ["time to first block",
             format_duration(ttfb) if ttfb is not None else "-"],
            ["destination cap installed",
             format_duration(cap_at) if cap_at is not None else "no"],
            ["attacker net", f"${result.attacker_ledger.net:+.2f}"],
            ["attacker ROI", f"{result.attacker_roi:+.2f}"],
            ["legit notifications delivered",
             result.legit_notifications_delivered],
            ["legit fp conviction rate",
             f"{result.legit_fp_conviction_rate * 100:.2f}%"],
        ],
        title="Case E: agent-based notification amplification",
    )


def _render_portfolio(result, args: argparse.Namespace) -> str:
    text = render_table(
        ["Channel", "activations", "spent", "earned", "net"],
        [
            [
                outcome.name,
                outcome.activations,
                f"${outcome.spent:.2f}",
                f"${outcome.earned:.2f}",
                f"${outcome.net:+.2f}",
            ]
            for outcome in result.channels
        ],
        title=(
            f"portfolio vs defense={result.config.defense!r}: "
            f"attacker net ${result.attacker_net:+.2f} "
            f"(ROI {result.attacker_roi:+.2f}, "
            f"infrastructure ${result.infrastructure_cost:.2f}, "
            + ("retired" if result.retired else "still operating")
            + ")"
        ),
    )
    text += "\n\n" + render_table(
        ["t", "action", "channel", "window ROI"],
        [
            [
                format_duration(d["time"]),
                d["action"],
                d["channel"] or "-",
                (
                    f"{d['window_roi']:+.2f}"
                    if d["window_roi"] is not None
                    else "-"
                ),
            ]
            for d in result.decisions
        ],
        title="attacker decision journal",
    )
    if result.legit_requests_blocked or result.legit_fp_conviction_rate:
        text += (
            f"\n\ncollateral: {result.legit_requests_blocked} legit "
            "requests blocked, "
            f"{result.legit_fp_conviction_rate * 100:.3f}% legit "
            "fingerprints convicted"
        )
    return text


def _recall_matrix(
    result, classes: Sequence[str], names: Sequence[str], title: str
) -> str:
    """Per-class recall and FPR of each named detector run."""
    return render_table(
        ["Detector"] + [f"recall:{c}" for c in classes] + ["FPR"],
        [
            [name]
            + [
                f"{result.run_for(name).recall_by_class.get(c, 0.0):.2f}"
                for c in classes
            ]
            + [
                f"{result.run_for(name).evaluation.false_positive_rate * 100:.2f}%"
            ]
            for name in names
        ],
        title=title,
    )


def _render_detectors(result, args: argparse.Namespace) -> str:
    return _recall_matrix(
        result,
        ("scraper", "seat-spinner", "manual-spinner", "sms-pumper"),
        (
            "volume", "logistic", "kmeans", "fingerprint",
            "abuse-pipeline", "campaign-graph", "learned",
        ),
        "Detector families vs attack classes",
    )


def _render_behavioural(result, args: argparse.Namespace) -> str:
    return _recall_matrix(
        result,
        ("scraper", "seat-spinner", "manual-spinner"),
        ("volume", "navigation", "biometrics", "fusion"),
        "Advanced behavioural stack (Section V)",
    )


def _render_graph(result, args: argparse.Namespace) -> str:
    arms = render_table(
        ["Arm", "campaign recall", "session recall", "FPR"],
        [
            [
                arm.arm,
                f"{arm.campaign_recall:.2f}",
                f"{arm.evaluation.recall:.2f}",
                f"{arm.evaluation.false_positive_rate * 100:.2f}%",
            ]
            for arm in (result.session_arm, result.graph_arm)
        ],
        title=f"{args.case}: session-only vs graph-augmented fusion",
    )
    evaluation = result.campaign_evaluation
    detection_times = list(evaluation.time_to_detection.values())
    return arms + "\n\n" + render_table(
        ["Campaign", "risk", "sessions", "fingerprints", "rotation"],
        [
            [
                campaign.campaign_id,
                f"{campaign.risk:.3f}",
                campaign.session_count,
                campaign.distinct_fingerprints,
                (
                    format_duration(campaign.mean_rotation_interval)
                    if campaign.rotates_identity
                    else "-"
                ),
            ]
            for campaign in result.campaigns
        ],
        title=(
            "recovered campaigns "
            f"(precision {evaluation.campaign_precision:.2f}, "
            f"recall {evaluation.campaign_recall:.2f}, "
            "mean time-to-detection "
            + (
                format_duration(
                    sum(detection_times) / len(detection_times)
                )
                if detection_times
                else "-"
            )
            + ")"
        ),
    )


def _render_stream(result, args: argparse.Namespace) -> str:
    ttfb = result.time_to_first_block
    text = render_table(
        ["Metric", "Value"],
        [
            ["streaming", "on" if result.config.streaming else "off"],
            ["mitigation mode",
             "honeypot" if result.config.honeypot_mode else "blocking"],
            ["time to first block",
             format_duration(ttfb) if ttfb is not None else "-"],
            ["online mitigation actions", result.online_actions],
            ["attacker holds created", result.attacker_holds_created],
            ["attacker rotations", result.base.attacker_rotations],
            ["legit seats sold (target flight)",
             result.target_legit_confirmed_seats],
            ["events processed", result.events_processed],
            ["peak open sessions", result.peak_open_sessions],
            ["peak tracked clients", result.peak_tracked_clients],
        ],
        title="Case A (streaming variant): online detection + mitigation",
    )
    if args.capture:
        text += (
            f"\n\ntrace captured: {args.capture} "
            f"({result.trace_entries} entries)"
        )
    return text


# -- the scenario-command table --------------------------------------------

#: How an option reaches the ``--reps/--workers/--shards`` path.
_BASE = "base"  # a field of the runner's sweep base (the default)
_NAME = "name"  # fills ``{field}`` in the registry scenario name instead
_SINGLE_RUN = "single-run"  # one run only: a usage error with the runner


class Option:
    """One option of a scenario command and the config field it sets.

    ``flag`` is ``--flag``, or a bare name for a positional argument;
    ``to_field`` maps the parsed value onto the field (default: as
    parsed); ``role`` is ``_BASE``, ``_NAME`` or ``_SINGLE_RUN`` (only
    ``_BASE`` fields enter the runner base, whose config hash seeds the
    replications); the other keywords go to ``add_argument``.
    """

    def __init__(
        self,
        flag: str,
        field: str,
        to_field: Callable[[object], object] = lambda value: value,
        role: str = _BASE,
        **kwargs: object,
    ) -> None:
        self.flag, self.field, self.to_field = flag, field, to_field
        self.dest = flag.lstrip("-").replace("-", "_")
        self.role, self.kwargs = role, kwargs


@dataclass(frozen=True)
class ScenarioCommand:
    """One scenario subcommand: a row of :data:`SCENARIO_COMMANDS`."""

    name: str
    help: str
    config_cls: type
    run: Callable[[object], object]
    #: ``(result, args)`` -> the text to print for one run.
    render: Callable[[object, argparse.Namespace], str]
    #: Registry scenario that ``--reps/--workers/--shards`` runs,
    #: formatted with the option fields (``"graph-{case}"``); ``None``
    #: for a command that only runs once.
    scenario: Optional[str] = None
    options: Tuple[Option, ...] = ()


def _scale(**kwargs: object) -> Option:
    """``--scale``: downscale Case C's legitimate weekly SMS baseline."""
    return Option("--scale", "baseline_weekly_total",
                  lambda scale: int(48_000 / scale),
                  type=_positive_float, default=1.0, **kwargs)


def _variant(module) -> Option:
    return Option("--variant", "variant",
                  choices=module.VARIANTS, default=module.UNPROTECTED)


SCENARIO_COMMANDS: Tuple[ScenarioCommand, ...] = (
    ScenarioCommand("fig1", "Fig. 1: weekly NiP distributions (Case A)",
                    case_a.CaseAConfig, case_a.run_case_a, _render_fig1),
    ScenarioCommand("table1", "Table I: SMS country surges",
                    case_c.CaseCConfig, case_c.run_case_c, _render_table1,
                    options=(_scale(help="downscale traffic volume by this "
                                    "factor (default 1 = full)"),)),
    ScenarioCommand("case-a", "Case A arms-race metrics",
                    case_a.CaseAConfig, case_a.run_case_a, _render_case_a,
                    "case-a"),
    ScenarioCommand("case-b", "Case B passenger-detail heuristics",
                    case_b.CaseBConfig, case_b.run_case_b, _render_case_b,
                    "case-b"),
    ScenarioCommand("case-c", "Case C SMS pumping",
                    case_c.CaseCConfig, case_c.run_case_c, _render_case_c,
                    "case-c", (_variant(case_c), _scale())),
    ScenarioCommand("case-d", "Case D OTP abuse (number cycling)",
                    case_d.CaseDConfig, case_d.run_case_d, _render_case_d,
                    "case-d", (_variant(case_d),)),
    ScenarioCommand("case-e", "Case E notification amplification",
                    case_e.CaseEConfig, case_e.run_case_e, _render_case_e,
                    "case-e", (_variant(case_e),)),
    ScenarioCommand(
        "portfolio",
        "adaptive attacker moving budget across all abuse channels "
        "vs the chosen defense posture",
        portfolio.PortfolioConfig, portfolio.run_portfolio,
        _render_portfolio, "portfolio-adaptive",
        (Option("--defense", "defense", choices=portfolio.DEFENSES,
                default=portfolio.DEFENSE_NONE,
                help="platform defense posture (default: none)"),),
    ),
    ScenarioCommand("detectors", "Section III detector matrix",
                    detectors.DetectorComparisonConfig,
                    detectors.run_detector_comparison, _render_detectors),
    ScenarioCommand(
        "graph",
        "campaign graph vs session-only fusion on a rotated case study",
        graph_case.GraphCaseConfig, graph_case.run_graph_case,
        _render_graph, "graph-{case}",
        (
            Option("case", "case", role=_NAME,
                   choices=graph_case.GRAPH_CASES, help="case to run"),
            Option("--ticks-short", "ticks_short", action="store_true",
                   help="compressed timeline (seconds, not minutes) "
                   "for smoke runs"),
        ),
    ),
    ScenarioCommand("behavioural", "Section V behavioural stack (extension)",
                    behavioural.BehaviouralConfig,
                    behavioural.run_behavioural_stack, _render_behavioural),
    ScenarioCommand(
        "stream",
        "Case A with the online streaming detection/mitigation pipeline",
        streaming.StreamCaseAConfig, streaming.run_stream_case_a,
        _render_stream, "stream-case-a",
        (
            Option("--no-streaming", "streaming", operator.not_,
                   action="store_true", help="ablation: run the same "
                   "world without the online pipeline"),
            Option("--honeypot", "honeypot_mode", action="store_true",
                   help="route convicted fingerprints to decoy "
                   "inventory instead of blocking"),
            Option("--capture", "trace_path", role=_SINGLE_RUN,
                   metavar="TRACE", default=None,
                   help="also record the run's web log to this trace file"),
        ),
    ),
)


def _run_case(
    command: ScenarioCommand,
    parser: argparse.ArgumentParser,
    args: argparse.Namespace,
) -> int:
    """The one handler of the scenario commands: a single run, or the
    runner when the row names a scenario and a runner flag exceeds 1."""
    _default_seed(args, command.config_cls)
    fields = {
        option.field: option.to_field(getattr(args, option.dest))
        for option in command.options
    }
    if command.scenario is None or not _use_runner(args):
        result = command.run(command.config_cls(seed=args.seed, **fields))
        print(command.render(result, args))
        return 0
    for option in command.options:
        if option.role == _SINGLE_RUN and fields[option.field] is not None:
            parser.error(
                f"{option.flag} records a single run; it cannot be "
                "combined with --reps, --workers or --shards above 1"
            )
    base = {
        option.field: fields[option.field]
        for option in command.options
        if option.role == _BASE
    }
    return _run_replicated(command.scenario.format(**fields), base, args)


def _cmd_scenarios(args: argparse.Namespace) -> int:
    print(render_table(
        ["Scenario", "Config class"],
        [
            [name, runner.get_scenario(name).config_cls.__name__]
            for name in runner.scenario_names()
        ],
        title="registered sweepable scenarios (repro sweep --scenario ...)",
    ))
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    from .stream.pipeline import build_stream_pipeline
    from .trace import TraceError, TraceReader, replay_trace

    try:
        with TraceReader(args.trace) as reader:
            meta = dict(reader.meta)
        report, stats = replay_trace(args.trace, build_stream_pipeline())
    except (OSError, TraceError) as error:
        raise SystemExit(f"error: {error}")
    bots = report.bot_subjects()
    print(render_table(
        ["Metric", "Value"],
        [
            ["trace", args.trace],
            ["captured from", str(meta.get("scenario", "?"))],
            ["entries replayed", stats.entries],
            ["replay throughput",
             f"{stats.events_per_second:,.0f} events/sec"],
            ["sessions closed", report.sessions_closed],
            ["peak open sessions", report.peak_open_sessions],
            ["fused subjects", len(report.fused)],
            ["bot subjects", len(bots)],
        ],
        title="Trace replay through the streaming pipeline",
    ))
    if args.compare_batch:
        from collections import Counter

        from .stream.pipeline import (
            batch_session_verdicts,
            default_stream_adapters,
        )
        from .trace import rebuild_log

        detectors = [
            adapter.detector
            for adapter in default_stream_adapters()
            if hasattr(adapter, "detector")
        ]
        # Multisets: a verdict dropped once and duplicated elsewhere
        # must not pass as equal.
        verdicts = batch_session_verdicts(rebuild_log(args.trace), detectors)
        batch = Counter(verdicts)
        stream = Counter(report.session_verdicts)
        counts = (f"stream: {len(report.session_verdicts)}, "
                  f"batch: {len(verdicts)} session verdicts")
        if batch == stream:
            print(f"\nbatch equivalence: OK ({counts}, identical)")
            return 0
        print(f"\nbatch equivalence: MISMATCH ({counts}; "
              f"stream-only: {sum((stream - batch).values())}, "
              f"batch-only: {sum((batch - stream).values())})")
        return 1
    return 0


def _timer_table(label: str, timers, title: str, prefix: str = "") -> str:
    """Calls, total and mean time per ``(name, timer)``, each name with
    ``prefix`` cut off."""
    return render_table(
        [label, "calls", "total s", "mean us"],
        [
            [name[len(prefix):], timer.count, f"{timer.total:.3f}",
             f"{timer.mean * 1e6:.1f}"]
            for name, timer in timers
        ],
        title=title,
    )


def _cmd_profile(args: argparse.Namespace) -> int:
    from .obs.profile import profile_case, short_overrides
    from .obs.report import write_report

    if _use_runner(args):
        scenario = f"profile-{args.case}"
        _default_seed(args, runner.get_scenario(scenario).config_cls)
        result = _sweep(
            args,
            scenario,
            short_overrides(args.case) if args.ticks_short else {},
        )
        registry = result.merged_obs()
        run_meta = {
            "run_id": f"profile-{args.case}-s{args.seed}x{args.reps}",
            "scenario": args.case,
            "seed": args.seed,
            "meta": {
                "ticks_short": args.ticks_short,
                "replications": args.reps,
                "workers": result.workers,
            },
        }
    else:
        prof = profile_case(
            args.case, seed=args.seed, ticks_short=args.ticks_short
        )
        registry = prof.registry
        run_meta = None

    top_events = sorted(
        registry.timers("sim.event.").items(),
        key=lambda item: item[1].total,
        reverse=True,
    )[:10]
    print(_timer_table(
        "Sim-kernel phase", top_events,
        f"profile {args.case}: event-loop dispatch by label", "sim.event.",
    ))
    endpoints = sorted(registry.timers("web.request.").items())
    if endpoints:
        print()
        print(render_table(
            ["Endpoint", "requests", "mean us", "p95 us"],
            [
                [
                    name[len("web.request."):],
                    timer.count,
                    f"{timer.mean * 1e6:.1f}",
                    f"{timer.histogram.quantile(0.95) * 1e6:.1f}",
                ]
                for name, timer in endpoints
            ],
            title="web edge: per-endpoint request latency",
        ))
    stages = sorted(registry.timers("stream.stage.").items())
    if stages:
        print()
        print(_timer_table(
            "Stream stage", stages,
            "stream pipeline: per-stage latency "
            f"({registry.gauge('stream.events_per_second'):,.0f} "
            "events/sec busy throughput)",
            "stream.stage.",
        ))
    analysis = sorted(registry.timers("detect.").items()) + sorted(
        registry.timers("graph.").items()
    )
    if analysis:
        print()
        print(_timer_table(
            "Analysis stage", analysis,
            "batch analysis: columnar fast path "
            f"({registry.counter('detect.sessions'):,.0f} sessions / "
            f"{registry.counter('detect.entries'):,.0f} entries)",
        ))
    wall = registry.gauge("run.wall_seconds")
    if wall:
        print(f"\ntotal wall time: {wall:.2f}s "
              f"(sim dispatch: {registry.total_time('sim.event.'):.2f}s)")
    if args.out:
        if run_meta:
            write_report(args.out, registry, form=args.format, run=run_meta)
        else:
            write_report(args.out, prof.context, form=args.format)
        print(f"report written: {args.out} ({args.format})")
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    from .ml.io import save_model
    from .ml.train import TrainConfig, train_model
    from .scenarios.learned import (
        LearnedCaseConfig,
        build_training_dataset,
    )

    _default_seed(args, LearnedCaseConfig)
    try:
        case_config = LearnedCaseConfig(
            seed=args.seed,
            variant=args.variant,
            model=args.model,
            training_worlds=args.worlds,
            target_fpr=args.target_fpr,
            epochs=args.epochs,
            ticks_short=args.ticks_short,
        )
        train_config = TrainConfig(
            model=args.model,
            master_seed=args.seed,
            target_fpr=args.target_fpr,
            epochs=args.epochs,
        )
    except ValueError as error:
        raise SystemExit(f"error: {error}")
    dataset = build_training_dataset(case_config)
    store = dataset.save(args.store) if args.store else None
    result = train_model(dataset, train_config)
    save_model(args.out, result.model, meta=result.meta)
    print(render_table(
        ["Metric", "Value"],
        [
            ["model", args.model],
            ["variant", args.variant],
            ["training sessions", len(dataset)],
            ["training bots", int(dataset.labels.sum())],
            ["epochs", result.report.epochs],
            ["final loss", f"{result.report.final_loss:.6f}"],
            ["training accuracy",
             f"{result.report.training_accuracy:.4f}"],
            ["calibrated threshold", f"{result.threshold:.6f}"],
            ["config hash", result.meta["config_hash"]],
            ["dataset digest", result.meta["dataset_digest"]],
            ["weights digest", result.meta["weights_digest"]],
        ],
        title=f"repro train (master seed {args.seed})",
    ))
    print(f"\nmodel written: {args.out}")
    if store:
        print(f"feature store written: {store}")
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    import hashlib

    import numpy as np

    from .analysis.evaluation import evaluate_verdicts
    from .ml.data import Dataset
    from .ml.detector import LearnedSessionDetector
    from .ml.io import ModelFormatError, load_model

    try:
        model, meta = load_model(args.model_file)
    except (OSError, ModelFormatError) as error:
        raise SystemExit(f"error: {error}")
    detector = LearnedSessionDetector(model)

    if args.store:
        try:
            dataset = Dataset.load(args.store)
        except (OSError, KeyError, ValueError) as error:
            raise SystemExit(
                f"error: cannot read feature store {args.store}: {error}"
            )
        probabilities = model.predict_proba(dataset)
        flagged = probabilities >= model.threshold
        rows = [
            ["model kind", model.kind],
            ["sessions scored", len(dataset)],
            ["flagged as bot", int(flagged.sum())],
            ["threshold", f"{model.threshold:.6f}"],
        ]
        if dataset.labelled:
            labels = dataset.labels >= 0.5
            bots = int(labels.sum())
            legit = len(dataset) - bots
            recall = (
                float((flagged & labels).sum()) / bots if bots else 0.0
            )
            fpr = (
                float((flagged & ~labels).sum()) / legit
                if legit
                else 0.0
            )
            rows += [
                ["recall", f"{recall:.4f}"],
                ["FPR", f"{fpr * 100:.2f}%"],
            ]
        digest = hashlib.sha256(
            np.ascontiguousarray(probabilities).tobytes()
        ).hexdigest()[:16]
        rows.append(["predictions digest", digest])
        print(render_table(
            ["Metric", "Value"],
            rows,
            title=f"repro predict ({args.store})",
        ))
        return 0

    from .core.detection.session_index import SessionIndex
    from .scenarios.learned import LearnedCaseConfig, variant_case_config
    from .scenarios.case_a import run_case_a

    _default_seed(args, LearnedCaseConfig)
    world = run_case_a(
        variant_case_config(args.variant, args.seed, args.ticks_short)
    ).world
    index = SessionIndex.from_log(world.app.log)
    sessions = index.sessions()
    verdicts = detector.judge_index(index)
    evaluation = evaluate_verdicts(sessions, verdicts)
    digest = hashlib.sha256(
        np.array([v.score for v in verdicts]).tobytes()
    ).hexdigest()[:16]
    print(render_table(
        ["Metric", "Value"],
        [
            ["model kind", model.kind],
            ["trained from", str(meta.get("config_hash", "?"))],
            ["eval variant", args.variant],
            ["sessions scored", len(sessions)],
            ["flagged as bot", sum(1 for v in verdicts if v.is_bot)],
            ["recall", f"{evaluation.recall:.4f}"],
            ["FPR", f"{evaluation.false_positive_rate * 100:.2f}%"],
            ["predictions digest", digest],
        ],
        title=f"repro predict (eval seed {args.seed})",
    ))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .serve.codec import CodecError
    from .serve.server import run_server
    from .serve.state import StateStoreError
    from .trace import TraceError

    try:
        return run_server(
            args.db,
            host=args.host,
            port=args.port,
            checkpoint_interval=args.checkpoint_interval,
            refresh_every=(
                args.refresh_every if args.refresh_every > 0 else None
            ),
            replay=args.replay,
            quiet=args.quiet,
        )
    except (StateStoreError, TraceError, CodecError, OSError) as error:
        raise SystemExit(f"error: {error}")


def _cmd_sweep(args: argparse.Namespace) -> int:
    grid: Dict[str, List[object]] = {}
    base: Dict[str, object] = {}
    for name, values in args.param or []:
        if len(values) == 1:
            base[name] = values[0]
        else:
            grid[name] = values
    result = _sweep(args, args.scenario, base, grid)
    if result is None:
        return 2
    _print_aggregate_table(
        result,
        args.metric or None,
        title=(
            f"sweep {args.scenario}: "
            f"{len(result.points())} points x {args.reps} replications "
            f"(master seed {result.spec.master_seed}, mean +/- 95% CI)"
        ),
    )
    return 0


def _package_version() -> str:
    """Installed distribution version, falling back to the source tree's
    ``repro.__version__`` when running uninstalled from a checkout."""
    try:
        from importlib.metadata import PackageNotFoundError, version

        return version("repro")
    except PackageNotFoundError:
        from . import __version__

        return __version__




def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduce the DSN 2025 functional-abuse paper's scenarios. "
            "Every subcommand below carries a one-line summary; "
            "run `repro <command> --help` for its options."
        ),
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"%(prog)s {_package_version()}",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add(name: str, handler, help_text: str, seed: bool = True):
        sub = subparsers.add_parser(name, help=help_text)
        if seed:
            sub.add_argument("--seed", type=int, default=None,
                             help="override the scenario's default seed")
        sub.set_defaults(handler=handler)
        return sub

    def add_runner_args(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--reps", type=_positive_int, default=1,
            help="independent replications to run through repro.runner",
        )
        sub.add_argument(
            "--workers", type=_positive_int, default=1,
            help="worker processes (1 = serial in-process)",
        )
        sub.add_argument(
            "--shards", type=_positive_int, default=1,
            help="partition each cell's population into this many "
            "independently simulated shards and merge the results "
            "(1 = unsharded; see repro.shard)",
        )
        sub.add_argument(
            "--cache-dir", default=None,
            help="directory for the on-disk result cache (off by default)",
        )

    for command in SCENARIO_COMMANDS:
        sub = add(command.name, None, command.help)
        sub.set_defaults(handler=partial(_run_case, command, sub))
        for option in command.options:
            sub.add_argument(option.flag, **option.kwargs)
        if command.scenario is not None:
            add_runner_args(sub)
    add("scenarios", _cmd_scenarios,
        "list the scenarios registered with the sweep runner", seed=False)
    replay = add(
        "replay", _cmd_replay,
        "replay a captured trace through the streaming pipeline",
        seed=False,
    )
    replay.add_argument("trace", help="trace file written by --capture")
    replay.add_argument(
        "--compare-batch", action="store_true",
        help="also run the batch pipeline on the rebuilt log and "
        "verify verdict equivalence",
    )
    profile = add(
        "profile", _cmd_profile,
        "profile a case run: per-phase sim/web/stream wall-clock report",
    )
    profile.add_argument(
        "case", choices=PROFILED_CASES, help="case to profile",
    )
    profile.add_argument(
        "--ticks-short", action="store_true",
        help="scaled-down run (seconds, not minutes) for smoke profiling",
    )
    profile.add_argument(
        "--out", metavar="FILE", default=None,
        help="also write the full report to this file",
    )
    profile.add_argument(
        "--format", choices=("json", "prom"), default="json",
        help="report file format (default: json)",
    )
    add_runner_args(profile)
    train = add(
        "train", _cmd_train,
        "train a model-ladder rung on streamed sessions from "
        "disjoint-seed worlds (bit-reproducible for a fixed seed)",
    )
    train.add_argument(
        "--model", choices=MODEL_CHOICES,
        default="encoder",
        help="ladder rung to train (default: encoder)",
    )
    train.add_argument(
        "--variant", choices=LEARNED_VARIANTS, default="rotated",
        help="evasive Case A variant to train against",
    )
    train.add_argument(
        "--out", required=True, metavar="FILE",
        help="output RPML model file",
    )
    train.add_argument(
        "--worlds", type=int, default=2,
        help="disjoint-seed training worlds to pool (default: 2)",
    )
    train.add_argument(
        "--epochs", type=int, default=None,
        help="override the rung's default epoch count",
    )
    train.add_argument(
        "--target-fpr", type=float, default=0.01,
        help="calibrate the decision threshold to this FPR on the "
        "training worlds' legitimate sessions (default: 0.01)",
    )
    train.add_argument(
        "--ticks-short", action="store_true",
        help="compressed timeline for smoke runs",
    )
    train.add_argument(
        "--store", metavar="FILE", default=None,
        help="also persist the training feature store (.npz)",
    )
    predict = add(
        "predict", _cmd_predict,
        "score sessions with a trained RPML model "
        "(a fresh eval world, or a saved feature store)",
    )
    predict.add_argument(
        "model_file", help="RPML model written by `repro train`",
    )
    predict.add_argument(
        "--variant", choices=LEARNED_VARIANTS, default="rotated",
        help="eval-world variant when simulating (default: rotated)",
    )
    predict.add_argument(
        "--ticks-short", action="store_true",
        help="compressed eval world for smoke runs",
    )
    predict.add_argument(
        "--store", metavar="FILE", default=None,
        help="score a saved feature store instead of simulating",
    )
    serve = add(
        "serve", _cmd_serve,
        "long-running detection service: HTTP ingest/replay + queries, "
        "SQLite snapshot/journal persistence, /metrics",
        seed=False,
    )
    serve.add_argument(
        "--db", required=True, metavar="FILE",
        help="SQLite state database (created if missing; an existing "
        "database restores the server to its last acknowledged event)",
    )
    serve.add_argument(
        "--host", default="127.0.0.1",
        help="bind address (default: 127.0.0.1)",
    )
    serve.add_argument(
        "--port", type=int, default=8940,
        help="listen port (0 = pick a free port; the real port is "
        "printed on startup)",
    )
    serve.add_argument(
        "--checkpoint-interval", type=int, default=2000, metavar="N",
        help="snapshot the pipeline core every N ingested events "
        "(default: 2000)",
    )
    serve.add_argument(
        "--refresh-every", type=int, default=64, metavar="SESSIONS",
        help="re-run campaign analysis every N closed sessions "
        "(0 = only at finish; default: 64)",
    )
    serve.add_argument(
        "--replay", metavar="TRACE", default=None,
        help="bootstrap: replay this RPTR trace through the service "
        "before accepting queries (resumes past already-ingested "
        "events after a restart)",
    )
    serve.add_argument(
        "--quiet", action="store_true",
        help="suppress startup/shutdown log lines",
    )
    sweep = add(
        "sweep", _cmd_sweep,
        "parameter sweep x replications via the parallel runner",
    )
    sweep.add_argument(
        "--scenario", required=True,
        help="registered scenario name "
        f"({', '.join(runner.scenario_names())})",
    )
    sweep.add_argument(
        "--param", action="append", type=_parse_param, metavar="NAME=V1[,V2...]",
        help="config field to fix (one value) or sweep (several values); "
        "repeatable",
    )
    sweep.add_argument(
        "--metric", action="append",
        help="metric column(s) to report (default: all)",
    )
    add_runner_args(sweep)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
