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

Every command accepts ``--seed`` for a different (still deterministic)
run.  Scaled-down variants are available where full-size runs take more
than a few seconds (``table1 --scale``).  The case-study commands also
accept ``--reps N --workers W --shards K`` to run N independent
replications through :mod:`repro.runner` (in W worker processes, each
cell split into K population shards) and report each metric as mean
+/- 95% CI instead of a single draw.
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Optional, Sequence, Tuple

from .analysis.reports import (
    format_percent,
    render_table,
    render_weekly_nip,
)
from .obs.profile import PROFILED_CASES
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


def _run_replicated(
    scenario: str, base: Dict[str, object], args: argparse.Namespace
) -> int:
    """Shared --reps/--workers/--shards path for the case commands."""
    from .runner import SweepSpec, run_sweep

    try:
        result = run_sweep(
            SweepSpec(
                scenario=scenario,
                base=base,
                replications=args.reps,
                master_seed=args.seed,
            ),
            workers=args.workers,
            cache_dir=args.cache_dir,
            shards=getattr(args, "shards", 1),
        )
    except KeyError as error:
        print(f"error: {error.args[0]}", file=sys.stderr)
        return 2
    except (TypeError, ValueError) as error:
        raise SystemExit(f"error: {error}")
    _print_aggregate_table(
        result,
        None,
        title=(
            f"{scenario}: {args.reps} replications "
            f"(master seed {args.seed}, mean +/- 95% CI)"
        ),
    )
    return 0


def _cmd_fig1(args: argparse.Namespace) -> int:
    from .scenarios.case_a import CaseAConfig, run_case_a

    _default_seed(args, CaseAConfig)
    result = run_case_a(CaseAConfig(seed=args.seed))
    print(render_weekly_nip(
        [
            {n: week.get(n, 0.0) for n in range(1, 10)}
            for week in result.week_shares
        ],
        ["average week", "attack week", "after NiP<=4 cap"],
    ))
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    from .scenarios.case_c import CaseCConfig, TABLE1_SURGES, run_case_c

    _default_seed(args, CaseCConfig)
    result = run_case_c(
        CaseCConfig(
            seed=args.seed,
            baseline_weekly_total=int(48_000 / args.scale),
        )
    )
    print(render_table(
        ["Country", "Baseline/wk", "Attack wk", "Increase", "Paper"],
        [
            [
                surge.country_code,
                surge.baseline_count,
                surge.window_count,
                format_percent(surge.surge_percent),
                format_percent(TABLE1_SURGES.get(surge.country_code, 0.0)),
            ]
            for surge in result.table1_rows()
        ],
        title=(
            "Table I "
            f"(global +{result.global_increase_percent:.1f}%, "
            f"{result.countries_targeted} countries targeted)"
        ),
    ))
    if args.scale > 1.0:
        print(
            f"\nnote: --scale {args.scale:g} shrinks the legitimate "
            "baseline but keeps the Table I country pins, so per-country "
            "surges stay faithful while the global increase is inflated; "
            "run at --scale 1 for the paper's ~25% figure."
        )
    return 0


def _cmd_case_a(args: argparse.Namespace) -> int:
    from .scenarios.case_a import CaseAConfig, run_case_a

    _default_seed(args, CaseAConfig)
    if _use_runner(args):
        return _run_replicated("case-a", {}, args)
    result = run_case_a(CaseAConfig(seed=args.seed))
    interval = result.measured_rotation_interval
    print(render_table(
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
    ))
    return 0


def _cmd_case_b(args: argparse.Namespace) -> int:
    from .scenarios.case_b import CaseBConfig, run_case_b

    _default_seed(args, CaseBConfig)
    if _use_runner(args):
        return _run_replicated("case-b", {}, args)
    result = run_case_b(CaseBConfig(seed=args.seed))
    print(render_table(
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
    ))
    return 0


def _cmd_case_c(args: argparse.Namespace) -> int:
    from .scenarios.case_c import CaseCConfig, run_case_c

    _default_seed(args, CaseCConfig)
    if _use_runner(args):
        return _run_replicated(
            "case-c",
            {
                "variant": args.variant,
                "baseline_weekly_total": int(48_000 / args.scale),
            },
            args,
        )
    result = run_case_c(
        CaseCConfig(
            seed=args.seed,
            variant=args.variant,
            baseline_weekly_total=int(48_000 / args.scale),
        )
    )
    latency = result.detection_latency
    print(render_table(
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
    ))
    return 0


def _cmd_case_d(args: argparse.Namespace) -> int:
    from .scenarios.case_d import CaseDConfig, run_case_d

    _default_seed(args, CaseDConfig)
    if _use_runner(args):
        return _run_replicated("case-d", {"variant": args.variant}, args)
    result = run_case_d(CaseDConfig(seed=args.seed, variant=args.variant))
    ttfb = result.time_to_first_block
    print(render_table(
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
    ))
    return 0


def _cmd_case_e(args: argparse.Namespace) -> int:
    from .scenarios.case_e import CaseEConfig, run_case_e

    _default_seed(args, CaseEConfig)
    if _use_runner(args):
        return _run_replicated("case-e", {"variant": args.variant}, args)
    result = run_case_e(CaseEConfig(seed=args.seed, variant=args.variant))
    ttfb = result.time_to_first_block
    cap_at = result.cap_installed_at
    print(render_table(
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
    ))
    return 0


def _cmd_portfolio(args: argparse.Namespace) -> int:
    from .scenarios.portfolio import PortfolioConfig, run_portfolio

    _default_seed(args, PortfolioConfig)
    if _use_runner(args):
        return _run_replicated(
            "portfolio-adaptive", {"defense": args.defense}, args
        )
    result = run_portfolio(
        PortfolioConfig(seed=args.seed, defense=args.defense)
    )
    print(render_table(
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
    ))
    print()
    print(render_table(
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
    ))
    if result.legit_requests_blocked or result.legit_fp_conviction_rate:
        print(
            f"\ncollateral: {result.legit_requests_blocked} legit "
            "requests blocked, "
            f"{result.legit_fp_conviction_rate * 100:.3f}% legit "
            "fingerprints convicted"
        )
    return 0


def _cmd_scenarios(args: argparse.Namespace) -> int:
    from .runner import get_scenario, scenario_names

    print(render_table(
        ["Scenario", "Config class"],
        [
            [name, get_scenario(name).config_cls.__name__]
            for name in scenario_names()
        ],
        title="registered sweepable scenarios (repro sweep --scenario ...)",
    ))
    return 0


def _cmd_detectors(args: argparse.Namespace) -> int:
    from .scenarios.detectors import (
        DetectorComparisonConfig,
        run_detector_comparison,
    )

    _default_seed(args, DetectorComparisonConfig)
    result = run_detector_comparison(
        DetectorComparisonConfig(seed=args.seed)
    )
    classes = ("scraper", "seat-spinner", "manual-spinner", "sms-pumper")
    print(render_table(
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
            for name in (
                "volume", "logistic", "kmeans", "fingerprint",
                "abuse-pipeline", "campaign-graph", "learned",
            )
        ],
        title="Detector families vs attack classes",
    ))
    return 0


def _cmd_graph(args: argparse.Namespace) -> int:
    from .scenarios.graph_case import GraphCaseConfig, run_graph_case

    _default_seed(args, GraphCaseConfig)
    if _use_runner(args):
        return _run_replicated(
            f"graph-{args.case}",
            {"ticks_short": args.ticks_short},
            args,
        )
    result = run_graph_case(
        GraphCaseConfig(
            seed=args.seed, case=args.case, ticks_short=args.ticks_short
        )
    )
    print(render_table(
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
    ))
    print()
    evaluation = result.campaign_evaluation
    detection_times = list(evaluation.time_to_detection.values())
    print(render_table(
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
    ))
    return 0


def _cmd_behavioural(args: argparse.Namespace) -> int:
    from .scenarios.behavioural import (
        BehaviouralConfig,
        run_behavioural_stack,
    )

    _default_seed(args, BehaviouralConfig)
    result = run_behavioural_stack(BehaviouralConfig(seed=args.seed))
    classes = ("scraper", "seat-spinner", "manual-spinner")
    print(render_table(
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
            for name in ("volume", "navigation", "biometrics", "fusion")
        ],
        title="Advanced behavioural stack (Section V)",
    ))
    return 0


def _cmd_stream(args: argparse.Namespace) -> int:
    from .scenarios.streaming import StreamCaseAConfig, run_stream_case_a

    _default_seed(args, StreamCaseAConfig)
    if _use_runner(args):
        return _run_replicated(
            "stream-case-a",
            {
                "streaming": not args.no_streaming,
                "honeypot_mode": args.honeypot,
            },
            args,
        )
    result = run_stream_case_a(
        StreamCaseAConfig(
            seed=args.seed,
            streaming=not args.no_streaming,
            honeypot_mode=args.honeypot,
            trace_path=args.capture,
        )
    )
    ttfb = result.time_to_first_block
    print(render_table(
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
    ))
    if args.capture:
        print(f"\ntrace captured: {args.capture} "
              f"({result.trace_entries} entries)")
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    from .scenarios.streaming import build_stream_pipeline
    from .trace import TraceReader, replay_trace

    with TraceReader(args.trace) as reader:
        meta = dict(reader.meta)
    pipeline = build_stream_pipeline()
    report, stats = replay_trace(args.trace, pipeline)
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
        from .scenarios.streaming import default_stream_adapters
        from .stream import batch_session_verdicts
        from .trace import rebuild_log

        detectors = [
            adapter.detector
            for adapter in default_stream_adapters()
            if hasattr(adapter, "detector")
        ]
        batch = set(batch_session_verdicts(rebuild_log(args.trace), detectors))
        stream = set(report.session_verdicts)
        if batch == stream:
            print(f"\nbatch equivalence: OK "
                  f"({len(stream)} session verdicts identical)")
            return 0
        print(f"\nbatch equivalence: MISMATCH "
              f"(stream-only: {len(stream - batch)}, "
              f"batch-only: {len(batch - stream)})")
        return 1
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from .obs.profile import profile_case, short_overrides
    from .obs.report import write_report

    if _use_runner(args):
        from .runner import SweepSpec, get_scenario, run_sweep

        scenario = f"profile-{args.case}"
        _default_seed(args, get_scenario(scenario).config_cls)
        base = short_overrides(args.case) if args.ticks_short else {}
        result = run_sweep(
            SweepSpec(
                scenario=scenario,
                base=base,
                replications=args.reps,
                master_seed=args.seed,
            ),
            workers=args.workers,
            cache_dir=args.cache_dir,
            shards=args.shards,
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
    print(render_table(
        ["Sim-kernel phase", "calls", "total s", "mean us"],
        [
            [
                name[len("sim.event."):],
                timer.count,
                f"{timer.total:.3f}",
                f"{timer.mean * 1e6:.1f}",
            ]
            for name, timer in top_events
        ],
        title=f"profile {args.case}: event-loop dispatch by label",
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
        print(render_table(
            ["Stream stage", "calls", "total s", "mean us"],
            [
                [
                    name[len("stream.stage."):],
                    timer.count,
                    f"{timer.total:.3f}",
                    f"{timer.mean * 1e6:.1f}",
                ]
                for name, timer in stages
            ],
            title=(
                "stream pipeline: per-stage latency "
                f"({registry.gauge('stream.events_per_second'):,.0f} "
                "events/sec busy throughput)"
            ),
        ))
    analysis = sorted(registry.timers("detect.").items()) + sorted(
        registry.timers("graph.").items()
    )
    if analysis:
        print()
        print(render_table(
            ["Analysis stage", "calls", "total s", "mean us"],
            [
                [
                    name,
                    timer.count,
                    f"{timer.total:.3f}",
                    f"{timer.mean * 1e6:.1f}",
                ]
                for name, timer in analysis
            ],
            title=(
                "batch analysis: columnar fast path "
                f"({registry.counter('detect.sessions'):,.0f} sessions / "
                f"{registry.counter('detect.entries'):,.0f} entries)"
            ),
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
        build_training_store,
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
    store = build_training_store(case_config)
    if args.store:
        store.save(args.store)
    dataset = store.to_dataset()
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
    if args.store:
        print(f"feature store written: {args.store}")
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    import hashlib

    import numpy as np

    from .analysis.evaluation import evaluate_verdicts
    from .ml.detector import LearnedSessionDetector
    from .ml.io import ModelFormatError, load_model
    from .ml.store import FeatureStore

    try:
        model, meta = load_model(args.model_file)
    except (OSError, ModelFormatError) as error:
        raise SystemExit(f"error: {error}")
    detector = LearnedSessionDetector(model)

    if args.store:
        dataset = FeatureStore.load(args.store).to_dataset()
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
    from .serve.server import run_server

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


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .runner import SweepSpec, get_scenario, run_sweep

    try:
        get_scenario(args.scenario)
    except KeyError as error:
        # Exit 2 (usage error), with the registry's own message — the
        # one place the list of valid names is maintained.
        print(f"error: {error.args[0]}", file=sys.stderr)
        return 2
    grid: Dict[str, List[object]] = {}
    base: Dict[str, object] = {}
    for name, values in args.param or []:
        if len(values) == 1:
            base[name] = values[0]
        else:
            grid[name] = values
    try:
        result = run_sweep(
            SweepSpec(
                scenario=args.scenario,
                base=base,
                grid=grid,
                replications=args.reps,
                **({} if args.seed is None else {"master_seed": args.seed}),
            ),
            workers=args.workers,
            cache_dir=args.cache_dir,
            shards=args.shards,
        )
    except (TypeError, ValueError) as error:
        raise SystemExit(f"error: {error}")
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

    def add(name: str, handler, help_text: str):
        sub = subparsers.add_parser(name, help=help_text)
        sub.add_argument("--seed", type=int, default=None,
                         help="override the scenario's default seed")
        sub.set_defaults(handler=handler)
        return sub

    def add_runner_args(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--reps", type=int, default=1,
            help="independent replications to run through repro.runner",
        )
        sub.add_argument(
            "--workers", type=int, default=1,
            help="worker processes (1 = serial in-process)",
        )
        sub.add_argument(
            "--shards", type=int, default=1,
            help="partition each cell's population into this many "
            "independently simulated shards and merge the results "
            "(1 = unsharded; see repro.shard)",
        )
        sub.add_argument(
            "--cache-dir", default=None,
            help="directory for the on-disk result cache (off by default)",
        )

    add("fig1", _cmd_fig1, "Fig. 1: weekly NiP distributions (Case A)")
    table1 = add("table1", _cmd_table1, "Table I: SMS country surges")
    table1.add_argument(
        "--scale", type=float, default=1.0,
        help="downscale traffic volume by this factor (default 1 = full)",
    )
    case_a = add("case-a", _cmd_case_a, "Case A arms-race metrics")
    add_runner_args(case_a)
    case_b = add("case-b", _cmd_case_b, "Case B passenger-detail heuristics")
    add_runner_args(case_b)
    case_c = add("case-c", _cmd_case_c, "Case C SMS pumping")
    case_c.add_argument(
        "--variant",
        choices=("unprotected", "path-limit", "per-ref"),
        default="unprotected",
    )
    case_c.add_argument("--scale", type=float, default=1.0)
    add_runner_args(case_c)
    case_d = add(
        "case-d", _cmd_case_d, "Case D OTP abuse (number cycling)"
    )
    case_d.add_argument(
        "--variant",
        choices=("unprotected", "number-reputation"),
        default="unprotected",
    )
    add_runner_args(case_d)
    case_e = add(
        "case-e", _cmd_case_e, "Case E notification amplification"
    )
    case_e.add_argument(
        "--variant",
        choices=("unprotected", "destination-surge"),
        default="unprotected",
    )
    add_runner_args(case_e)
    portfolio = add(
        "portfolio", _cmd_portfolio,
        "adaptive attacker moving budget across all abuse channels "
        "vs the chosen defense posture",
    )
    portfolio.add_argument(
        "--defense",
        choices=("none", "case-a", "case-c", "case-d", "case-e", "all"),
        default="none",
        help="platform defense posture (default: none)",
    )
    add_runner_args(portfolio)
    add("scenarios", _cmd_scenarios,
        "list the scenarios registered with the sweep runner")
    add("detectors", _cmd_detectors, "Section III detector matrix")
    graph = add(
        "graph", _cmd_graph,
        "campaign graph vs session-only fusion on a rotated case study",
    )
    graph.add_argument(
        "case", choices=["case-a", "case-c"],
        help="case to run",
    )
    graph.add_argument(
        "--ticks-short", action="store_true",
        help="compressed timeline (seconds, not minutes) for smoke runs",
    )
    add_runner_args(graph)
    add("behavioural", _cmd_behavioural,
        "Section V behavioural stack (extension)")
    stream = add(
        "stream", _cmd_stream,
        "Case A with the online streaming detection/mitigation pipeline",
    )
    stream.add_argument(
        "--no-streaming", action="store_true",
        help="ablation: run the same world without the online pipeline",
    )
    stream.add_argument(
        "--honeypot", action="store_true",
        help="route convicted fingerprints to decoy inventory "
        "instead of blocking",
    )
    stream.add_argument(
        "--capture", metavar="TRACE", default=None,
        help="also record the run's web log to this trace file",
    )
    add_runner_args(stream)
    replay = add(
        "replay", _cmd_replay,
        "replay a captured trace through the streaming pipeline",
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
        "--model", choices=("logistic", "mlp", "encoder"),
        default="encoder",
        help="ladder rung to train (default: encoder)",
    )
    train.add_argument(
        "--variant", choices=("rotated", "stealth"), default="rotated",
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
        "--variant", choices=("rotated", "stealth"), default="rotated",
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
        help="registered scenario name (case-a, case-b, case-c)",
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
