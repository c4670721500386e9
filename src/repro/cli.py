"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``figure7``      regenerate one Figure-7 panel (table/CSV to stdout)
``theorem1``     run the Theorem-1 verification sweep
``simulate``     one slot-level protocol run with chosen parameters
``capacity``     print the protocol's capacity figures for a range of M
``ablations``    run the ablations (analytic by default, ``--simulate``
                 for the simulation arms)
``sensitivity``  assumption-sensitivity sweeps (stations/burstiness/
                 scheduling law)
``robustness``   fault-injection degradation experiments
``validity``     map where the eq. 4.7 analysis breaks under
                 nonstationary workloads (per-scenario-family drift)
``cache``        inspect or purge the on-disk memo cache
``report``       render or diff run reports written by ``--metrics``

Every command accepts ``--seed`` (default 1); stochastic commands feed
it into a :class:`~repro.des.rng.RandomStreams` family so a run is
exactly reproducible from that single number, and the deterministic
analytic commands accept it as a no-op for interface uniformity.

Sweep-backed commands (``figure7``, ``ablations``, ``sensitivity``,
``robustness``, ``validity``) additionally accept the resilience flags
``--checkpoint DIR`` / ``--resume`` / ``--task-timeout`` /
``--max-retries`` / ``--verify-replay`` (see ``docs/resilience.md``).
Passing any of them turns on supervised execution: per-cell retry with
quarantine instead of fail-fast, and — with a checkpoint — a journal
that a re-invocation resumes from.

Every experiment command also accepts the observability flags
``--metrics [FILE]`` (collect metrics and write a ``report.json``;
FILE defaults to ``report.json``) and ``--trace FILE`` (write a
chrome-trace JSON-lines span file) — see ``docs/observability.md``.

Examples
--------
::

    python -m repro figure7 --rho 0.75 --m 25
    python -m repro figure7 --rho 0.5 --m 25 --simulate --csv
    python -m repro figure7 --simulate --workers 4 --checkpoint /tmp/f7 --resume
    python -m repro simulate --rho 0.75 --m 25 --deadline 75 --protocol lcfs
    python -m repro simulate --rho 0.5 --m 25 --feedback-error 0.02
    python -m repro theorem1 --deadline 10
    python -m repro capacity
    python -m repro ablations --simulate --workers 4 --horizon 40000
    python -m repro sensitivity --scenario burstiness
    python -m repro validity --families stationary adversarial --rho 0.5 --m 25
    python -m repro robustness --seeds 3
    python -m repro robustness --scenario failures
    python -m repro robustness --feedback-errors --recovery gated-rejoin
    python -m repro cache info
"""

from __future__ import annotations

import argparse
import sys
import time

# Only the figure7 and validity drivers (and what they load anyway) are
# imported here; every other command imports its driver when it runs.
from . import cache
from .choices import RECOVERY_POLICIES
from .experiments.figure7 import PanelConfig, generate_panel
from .experiments.records import ascii_table
from .experiments.sweep import MACRunSpec, SweepExecutor, derive_seeds
from .experiments.validity import (
    DEFAULT_AGREEMENT_TOL,
    SCENARIO_FAMILIES,
    ValidityConfig,
    run_validity,
)
from .obs.metrics import MetricsRegistry, install
from .obs.tracing import JsonlTracer, install_tracer
from .resilience.journal import JournalMismatchError, JournalSchemaError
from .resilience.supervisor import ResilienceOptions
from .stats.sequential import SequentialConfig

__all__ = ["main"]


def _add_obs_flags(p: argparse.ArgumentParser) -> None:
    """Attach the observability flags shared by experiment commands."""
    g = p.add_argument_group(
        "observability",
        "metrics collection and span tracing (see docs/observability.md)",
    )
    g.add_argument("--metrics", nargs="?", const="report.json", default=None,
                   metavar="FILE",
                   help="collect metrics and write a run report "
                        "(default FILE: report.json)")
    g.add_argument("--trace", default=None, metavar="FILE",
                   help="write phase spans as chrome-trace JSON lines")


def _obs_setup(args: argparse.Namespace):
    """Build and install the registry/tracer the flags ask for.

    The registry also becomes the process-global one for the duration of
    the command, so deep call sites (the memo cache) report into the
    same ``report.json``.
    """
    registry = tracer = None
    if getattr(args, "metrics", None) is not None:
        registry = MetricsRegistry()
        install(registry)
    if getattr(args, "trace", None) is not None:
        tracer = JsonlTracer(args.trace)
        install_tracer(tracer)
    args.obs_registry = registry
    return registry, tracer


def _obs_teardown(registry, tracer) -> None:
    if tracer is not None:
        install_tracer(None)
        tracer.close()
    if registry is not None:
        install(None)


def _add_resilience_flags(p: argparse.ArgumentParser) -> None:
    """Attach the supervised-execution flags shared by sweep commands."""
    g = p.add_argument_group(
        "resilience",
        "supervised sweep execution (any of these flags enables it; "
        "none keeps the historical fail-fast behaviour)",
    )
    g.add_argument("--checkpoint", metavar="DIR", default=None,
                   help="journal completed cells into DIR so an "
                        "interrupted run can be resumed")
    g.add_argument("--resume", action="store_true",
                   help="replay completed cells from --checkpoint "
                        "instead of recomputing them")
    g.add_argument("--task-timeout", type=float, default=None,
                   metavar="SECONDS",
                   help="wall-clock budget per cell; an overdue cell is "
                        "killed and retried on a fresh worker")
    g.add_argument("--max-retries", type=int, default=None, metavar="N",
                   help="attempts per cell beyond the first before it is "
                        "quarantined (default 2 when supervision is on)")
    g.add_argument("--verify-replay", action="store_true",
                   help="with --resume: recompute journaled cells and "
                        "fail loudly if any diverge (determinism audit)")


def _add_sequential_flags(p: argparse.ArgumentParser) -> None:
    """Attach the adaptive-replication flags shared by sweep commands."""
    g = p.add_argument_group(
        "sequential replication",
        "adaptive per-arm replication: lane waves until the loss CI "
        "half-width meets --ci-target, with group-sequential alpha "
        "spending so repeated looks stay honest (docs/statistics.md)",
    )
    g.add_argument("--sequential", action="store_true",
                   help="replace fixed replication with CI-targeted "
                        "lane waves per arm")
    g.add_argument("--ci-target", type=float, default=0.01,
                   metavar="HALF_WIDTH",
                   help="stop an arm once its fraction-late CI half-width "
                        "is at most this (default %(default)g)")
    g.add_argument("--max-replications", type=int, default=64, metavar="N",
                   help="hard per-arm lane budget; an arm that has not "
                        "converged stops here and reports its realized "
                        "half-width (default %(default)s)")


def _sequential_from(args: argparse.Namespace):
    """Build the :class:`SequentialConfig` the flags ask for, or ``None``.

    ``None`` (no ``--sequential``) keeps the historical fixed-replication
    sweeps bit for bit.
    """
    if not getattr(args, "sequential", False):
        return None
    return SequentialConfig(
        ci_target=args.ci_target,
        # A tight --max-replications (smoke grids) lowers the opening
        # ramp with it instead of tripping the min<=max validation.
        min_replications=min(8, max(2, args.max_replications)),
        max_replications=args.max_replications,
    )


def _reject_sequential(args: argparse.Namespace, mode: str) -> None:
    """Refuse ``--sequential`` on a mode that runs no replications."""
    if args.sequential:
        raise ValueError(f"--sequential does not apply to {mode}")


def _resilience_from(args: argparse.Namespace):
    """Build :class:`ResilienceOptions` from the flags, or ``None``.

    ``None`` (no flag given) preserves the legacy strict executor: the
    first worker failure propagates.  Any flag opts into supervision.
    """
    flags = (
        args.checkpoint is not None
        or args.resume
        or args.task_timeout is not None
        or args.max_retries is not None
        or args.verify_replay
    )
    if not flags:
        return None
    if args.resume and args.checkpoint is None:
        raise ValueError("--resume requires --checkpoint DIR")
    if args.verify_replay and not args.resume:
        raise ValueError("--verify-replay requires --resume")
    return ResilienceOptions(
        checkpoint=args.checkpoint,
        resume=args.resume,
        task_timeout=args.task_timeout,
        max_retries=2 if args.max_retries is None else args.max_retries,
        verify_replay=args.verify_replay,
    )


def _cmd_figure7(args: argparse.Namespace) -> int:
    if not args.simulate:
        _reject_sequential(args, "the analytic panel (add --simulate)")
    config = PanelConfig(rho_prime=args.rho, message_length=args.m)
    panel = generate_panel(
        config,
        include_simulation=args.simulate,
        sim_horizon=args.horizon,
        sim_warmup=args.horizon * 0.125,
        sim_seed=args.seed,
        workers=args.workers,
        resilience=_resilience_from(args),
        metrics=getattr(args, "obs_registry", None),
        sequential=_sequential_from(args),
    )
    print(panel.to_csv() if args.csv else panel.to_table())
    return 0


def _cmd_theorem1(args: argparse.Namespace) -> int:
    from .experiments.theorem1 import Theorem1Config, run_theorem1_experiment

    config = Theorem1Config(
        arrival_rate=args.rate,
        deadline=args.deadline,
        transmission=args.m,
        window_length=args.window,
    )
    report = run_theorem1_experiment(
        config, simulate=args.simulate, sim_seed=args.seed
    )
    print(report.to_table())
    ok = report.minimum_slack_is_best() and report.iteration_uses_theorem_elements()
    print(f"\nTheorem 1 verified: {ok}")
    return 0 if ok else 1


def _cmd_simulate(args: argparse.Namespace) -> int:
    from .core.policy import ControlPolicy
    from .des.rng import RandomStreams
    from .faults.model import FaultModel
    from .mac.simulator import WindowMACSimulator

    if args.m < 1:
        raise ValueError(f"message length must be >= 1, got {args.m}")
    lam = args.rho / args.m
    factories = {
        "controlled": lambda: ControlPolicy.optimal(args.deadline, lam),
        "fcfs": lambda: ControlPolicy.uncontrolled_fcfs(lam),
        "lcfs": lambda: ControlPolicy.uncontrolled_lcfs(lam),
        "random": lambda: ControlPolicy.uncontrolled_random(lam),
    }
    fault_model = None
    if args.feedback_error != 0:
        fault_model = FaultModel.feedback_noise(args.feedback_error)
    if args.replications < 1:
        print("error: --replications must be >= 1", file=sys.stderr)
        return 2
    if args.replications > 1:
        return _simulate_replicated(args, factories[args.protocol](), fault_model)
    simulator = WindowMACSimulator(
        factories[args.protocol](),
        arrival_rate=lam,
        transmission_slots=args.m,
        n_stations=args.stations,
        deadline=args.deadline,
        fault_model=fault_model,
        streams=RandomStreams(args.seed),
        metrics=getattr(args, "obs_registry", None),
    )
    total_slots = args.horizon * 1.125  # warmup is an eighth of the horizon
    # Time exactly the simulation loop: simulator construction above and
    # the rendering below must not dilute the slots/s figure.
    start = time.perf_counter()
    result = simulator.run(args.horizon, warmup_slots=args.horizon * 0.125)
    elapsed = time.perf_counter() - start
    shares = result.channel.breakdown()
    rows = [
        ["arrivals", str(result.arrivals)],
        ["delivered on time", str(result.delivered_on_time)],
        ["delivered late", str(result.delivered_late)],
        ["discarded (element 4)", str(result.discarded)],
        ["unresolved", str(result.unresolved)],
        ["loss fraction", f"{result.loss_fraction:.4f} ± {2 * result.loss_stderr():.4f}"],
        ["mean true wait", f"{result.mean_true_wait:.2f}"],
        ["mean paper wait", f"{result.mean_paper_wait:.2f}"],
        ["channel utilization", f"{result.channel.utilization():.3f}"],
        [
            "slot shares (idle/coll/tx/wait)",
            "/".join(
                f"{shares[k]:.3f}"
                for k in ("idle", "collision", "transmission", "wait")
            ),
        ],
    ]
    rows.append(["elapsed", f"{elapsed:.2f} s"])
    # Guard the division: a tiny horizon on the compiled engine can
    # finish inside the timer's resolution.
    speed = total_slots / max(elapsed, 1e-9)
    rows.append(["simulation speed", f"{speed:,.0f} slots/s"])
    if fault_model is not None:
        rows.append(["lost to faults", str(result.lost_to_faults)])
        rows.append(["fault telemetry", result.faults.summary()])
    title = (
        f"{args.protocol} protocol: rho'={args.rho}, M={args.m}, "
        f"K={args.deadline}, {args.horizon:.0f} slots"
    )
    print(ascii_table(["metric", "value"], rows, title=title))
    if result.saturated:
        print(
            f"\nwarning: saturated run — {result.unresolved} of "
            f"{result.arrivals} arrivals never resolved; the loss figure "
            "covers only resolved messages (treat it as a lower bound)"
        )
    return 0


def _simulate_replicated(args, policy, fault_model) -> int:
    """``simulate --replications N``: one arm, N lanes, one after another.

    Replication seeds spawn from ``--seed`` exactly as the sweep grids
    derive theirs, and each lane uses the plain single-generator
    construction — so the N results match what an N-cell sweep of the
    same arm produces.
    """
    lam = args.rho / args.m
    warmup = args.horizon * 0.125
    specs = [
        MACRunSpec(
            policy=policy,
            arrival_rate=lam,
            transmission_slots=args.m,
            horizon=args.horizon,
            warmup=warmup,
            n_stations=args.stations,
            deadline=args.deadline,
            fault_model=fault_model,
            seed=seed,
        )
        for seed in derive_seeds(args.seed, args.replications)
    ]
    executor = SweepExecutor(metrics=getattr(args, "obs_registry", None))
    start = time.perf_counter()
    results = executor.run_specs(specs)
    elapsed = time.perf_counter() - start

    rows = []
    for spec, result in zip(specs, results):
        rows.append(
            [
                str(spec.seed),
                str(result.arrivals),
                str(result.delivered_on_time),
                str(result.delivered_late),
                str(result.discarded),
                f"{result.loss_fraction:.4f} ± {2 * result.loss_stderr():.4f}",
                f"{result.mean_true_wait:.2f}",
            ]
        )
    losses = [result.loss_fraction for result in results]
    n = len(losses)
    mean = sum(losses) / n
    var = sum((x - mean) ** 2 for x in losses) / (n - 1)
    stderr = (var / n) ** 0.5
    lane_slots = args.horizon * 1.125  # warmup is an eighth of the horizon
    speed = n * lane_slots / max(elapsed, 1e-9)
    print(
        ascii_table(
            ["seed", "arrivals", "on time", "late", "discarded",
             "loss", "mean wait"],
            rows,
            title=(
                f"{args.protocol} protocol × {n} replications: "
                f"rho'={args.rho}, M={args.m}, K={args.deadline}, "
                f"{args.horizon:.0f} slots"
            ),
        )
    )
    print(
        f"\nacross replications: loss {mean:.4f} ± {2 * stderr:.4f} "
        f"(±2 se over {n} seeds)"
    )
    print(
        f"elapsed {elapsed:.2f} s — {speed:,.0f} slots/s aggregate, "
        f"{speed / n:,.0f} slots/s per lane"
    )
    saturated = sum(1 for result in results if result.saturated)
    if saturated:
        print(
            f"\nwarning: {saturated} of {n} replications saturated; their "
            "loss figures cover only resolved messages"
        )
    return 0


def _cmd_robustness(args: argparse.Namespace) -> int:
    from .experiments.robustness import (
        DEFAULT_ERROR_RATES,
        RobustnessConfig,
        feedback_error_sweep,
        protocol_degradation_sweep,
        station_failure_scenario,
    )

    # Flags the selected sweep would not read are refused, never dropped.
    if args.feedback_errors and args.scenario == "failures":
        raise ValueError(
            "--feedback-errors runs the degradation sweep, not the "
            "--scenario failures soak; drop one of them"
        )
    if args.recovery is not None and not args.feedback_errors:
        raise ValueError("--recovery applies only to --feedback-errors")
    if args.errors is not None and args.scenario == "failures":
        raise ValueError(
            "--errors sets the feedback sweeps' error rates, not the "
            "--scenario failures soak; drop one of them"
        )
    config = RobustnessConfig(
        rho_prime=args.rho,
        message_length=args.m,
        deadline_factor=args.deadline_factor,
        n_stations=args.stations,
        horizon=args.horizon,
        n_seeds=args.seeds,
        base_seed=args.seed,
    )
    resilience = _resilience_from(args)
    metrics = getattr(args, "obs_registry", None)
    sequential = _sequential_from(args)
    errors = DEFAULT_ERROR_RATES if args.errors is None else tuple(args.errors)
    if args.feedback_errors:
        report = protocol_degradation_sweep(
            config, error_rates=errors,
            recovery=args.recovery or "reset-to-epoch",
            workers=args.workers, resilience=resilience, metrics=metrics,
            sequential=sequential,
        )
        print(report.to_table())
        return 0
    if args.scenario == "feedback":
        report = feedback_error_sweep(
            config, error_rates=errors, workers=args.workers,
            resilience=resilience, metrics=metrics, sequential=sequential,
        )
        print(report.to_table())
        return 0
    if sequential is not None:
        raise ValueError(
            "--sequential applies to the feedback sweeps, not the "
            "station-failure soak (a liveness scenario, not an estimator)"
        )
    results = station_failure_scenario(
        config, workers=args.workers, resilience=resilience, metrics=metrics,
    )
    rows = []
    holes = 0
    for i, result in enumerate(results):
        if result is None:
            # A quarantined replication stays a visible row, never a
            # silently shorter table.
            holes += 1
            rows.append([str(config.base_seed + i), "[quarantined]"]
                        + ["-"] * 6)
            continue
        t = result.faults
        rows.append(
            [
                str(config.base_seed + i),
                f"{result.loss_fraction:.4f}",
                str(result.lost_to_faults),
                str(t.crashes),
                str(t.restarts),
                str(t.deaf_events),
                str(t.resyncs),
                str(t.peak_cohorts),
            ]
        )
    status = (
        "all runs completed"
        if holes == 0
        else f"{holes} of {len(results)} runs quarantined"
    )
    print(
        ascii_table(
            ["seed", "loss", "fault-lost", "crashes", "restarts",
             "deaf", "resyncs", "peak cohorts"],
            rows,
            title=(
                f"Station-failure soak: rho'={config.rho_prime:g}, "
                f"M={config.message_length}, K={config.deadline:g}, "
                f"{config.horizon:g} slots ({status})"
            ),
        )
    )
    return 0


def _cmd_capacity(args: argparse.Namespace) -> int:
    from .crp.capacity import max_stable_throughput

    rows = []
    for m in args.m:
        report = max_stable_throughput(m)
        rows.append(
            [str(m), f"{report.scheduling_overhead:.3f}",
             f"{report.max_throughput:.5f}", f"{report.utilization_bound:.4f}"]
        )
    print(
        ascii_table(
            ["M", "overhead E[T] (slots)", "max throughput (msg/slot)",
             "max offered load rho'"],
            rows,
            title="Window-protocol capacity (occupancy heuristic)",
        )
    )
    return 0


def _cmd_ablations(args: argparse.Namespace) -> int:
    from .experiments.ablations import (
        ablation_table,
        arity_ablation,
        element4_ablation,
        split_rule_ablation,
        twopoint_fit_errors,
        window_length_ablation,
    )

    if not args.simulate:
        _reject_sequential(args, "the analytic ablations (add --simulate)")
        arms = window_length_ablation(simulate=False)
        print(ablation_table(
            arms, "Element 2: loss vs window occupancy (analytic)"))
        print()
        print(twopoint_fit_errors())
        return 0
    resilience = _resilience_from(args)
    metrics = getattr(args, "obs_registry", None)
    sequential = _sequential_from(args)
    horizon = args.horizon
    warmup = horizon * 0.125
    sections = [
        ("Element 4: sender discard on/off (simulated)",
         element4_ablation(
             horizon=horizon, warmup=warmup, seed=args.seed,
             workers=args.workers, resilience=resilience, metrics=metrics,
             sequential=sequential)),
        ("Element 2: loss vs window occupancy (simulated)",
         window_length_ablation(
             simulate=True, horizon=horizon, warmup=warmup, seed=args.seed + 1,
             workers=args.workers, resilience=resilience, metrics=metrics,
             sequential=sequential)),
        ("Element 3: split order (simulated)",
         split_rule_ablation(
             horizon=horizon, warmup=warmup, seed=args.seed + 2,
             workers=args.workers, resilience=resilience, metrics=metrics,
             sequential=sequential)),
        ("Section 5: split arity (simulated)",
         arity_ablation(
             horizon=horizon, warmup=warmup, seed=args.seed + 3,
             workers=args.workers, resilience=resilience, metrics=metrics,
             sequential=sequential)),
    ]
    print("\n\n".join(ablation_table(arms, title) for title, arms in sections))
    return 0


def _cmd_sensitivity(args: argparse.Namespace) -> int:
    from .experiments.ablations import ablation_table
    from .experiments.sensitivity import (
        burstiness_sensitivity,
        scheduling_model_sensitivity,
        station_count_sensitivity,
    )

    if args.scenario == "scheduling":
        # Analytic comparison: exact scheduling-time law vs the paper's
        # geometric approximation — no simulation, no workers.
        _reject_sequential(args, "the analytic scheduling-law comparison")
        rows = scheduling_model_sensitivity()
        print(ascii_table(
            ["deadline K", "exact loss", "geometric loss", "gap"], rows,
            title="Eq. 4.7 sensitivity to the scheduling-time law",
        ))
        return 0
    resilience = _resilience_from(args)
    metrics = getattr(args, "obs_registry", None)
    sequential = _sequential_from(args)
    overrides = {}
    if args.horizon is not None:
        overrides["horizon"] = args.horizon
        overrides["warmup"] = args.horizon * 0.125
    if args.scenario == "stations":
        arms = station_count_sensitivity(
            seed=args.seed, workers=args.workers, resilience=resilience,
            metrics=metrics, sequential=sequential, **overrides,
        )
        title = "Loss vs station population (controlled protocol)"
    else:
        arms = burstiness_sensitivity(
            seed=args.seed, workers=args.workers, resilience=resilience,
            metrics=metrics, sequential=sequential, **overrides,
        )
        title = "Loss vs traffic burstiness (MMPP, fixed mean rate)"
    print(ablation_table(arms, title))
    return 0


def _cmd_validity(args: argparse.Namespace) -> int:
    config = ValidityConfig(
        rho_primes=tuple(args.rho),
        message_lengths=tuple(args.m),
        deadline_factors=tuple(args.deadline_factors),
        families=tuple(args.families),
        horizon=args.horizon,
        warmup=args.horizon * 0.125,
        seed=args.seed,
        agreement_tol=args.tolerance,
    )
    report = run_validity(
        config,
        workers=args.workers,
        resilience=_resilience_from(args),
        metrics=getattr(args, "obs_registry", None),
        sequential=_sequential_from(args),
    )
    print(report.to_csv() if args.csv else report.to_table())
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from .obs.report import diff_reports, load_report, render_report

    if args.action == "show":
        if len(args.files) != 1:
            raise ValueError("report show takes exactly one FILE")
        print(render_report(load_report(args.files[0])))
        return 0
    if len(args.files) != 2:
        raise ValueError("report diff takes exactly two FILEs")
    a = load_report(args.files[0])
    b = load_report(args.files[1])
    lines = diff_reports(a, b, include_volatile=args.all)
    if not lines:
        print("reports agree: no metric drift")
        return 0
    print(f"{len(lines)} difference(s):")
    for line in lines:
        print(f"  {line}")
    return 1


def _cmd_cache(args: argparse.Namespace) -> int:
    if args.action == "clear":
        removed = cache.clear_disk()
        cache.clear_memory()
        print(f"removed {removed} cached entr{'y' if removed == 1 else 'ies'} "
              f"from {cache.cache_dir()}")
        return 0
    info = cache.cache_info()
    rows = [
        ["path", info["path"]],
        ["schema", info["schema"]],
        ["enabled", "yes" if info["enabled"] else "no (REPRO_NO_CACHE)"],
        ["entries", str(info["entries"])],
        ["size", f"{info['bytes'] / 1024:.1f} KiB"],
    ]
    print(ascii_table(["field", "value"], rows, title="Disk memo cache"))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Kurose/Schwartz/Yemini (1983) window-protocol reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("figure7", help="regenerate one Figure-7 panel")
    p.add_argument("--rho", type=float, default=0.5, help="offered load rho'")
    p.add_argument("--m", type=int, default=25, help="message length M (tau)")
    p.add_argument("--simulate", action="store_true", help="add simulation arms")
    p.add_argument("--horizon", type=float, default=80_000.0)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--csv", action="store_true", help="CSV instead of a table")
    p.add_argument("--workers", type=int, default=None,
                   help="fan simulation arms over N worker processes "
                        "(results are identical for any N; see docs/usage.md)")
    _add_resilience_flags(p)
    _add_sequential_flags(p)
    _add_obs_flags(p)
    p.set_defaults(func=_cmd_figure7)

    p = sub.add_parser("theorem1", help="verify Theorem 1 numerically")
    p.add_argument("--rate", type=float, default=0.15)
    p.add_argument("--deadline", type=int, default=10)
    p.add_argument("--m", type=int, default=4)
    p.add_argument("--window", type=int, default=4)
    p.add_argument("--simulate", action="store_true")
    p.add_argument("--seed", type=int, default=11,
                   help="master seed for the simulation arms")
    _add_obs_flags(p)
    p.set_defaults(func=_cmd_theorem1)

    p = sub.add_parser("simulate", help="one slot-level protocol run")
    p.add_argument("--protocol", choices=("controlled", "fcfs", "lcfs", "random"),
                   default="controlled")
    p.add_argument("--rho", type=float, default=0.5)
    p.add_argument("--m", type=int, default=25)
    p.add_argument("--deadline", type=float, default=100.0)
    p.add_argument("--stations", type=int, default=200)
    p.add_argument("--horizon", type=float, default=100_000.0)
    p.add_argument("--seed", type=int, default=1,
                   help="master seed for all random streams")
    p.add_argument("--feedback-error", type=float, default=0.0,
                   help="symmetric feedback-error rate (routes the run "
                        "through the fault-injection layer)")
    p.add_argument("--replications", type=int, default=1, metavar="N",
                   help="run N independent replications of the arm one "
                        "after another (seeds spawned from --seed; reports "
                        "per-lane and aggregate slots/s)")
    _add_obs_flags(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("capacity", help="protocol capacity vs message length")
    p.add_argument("--m", type=int, nargs="+", default=[1, 5, 25, 100, 400])
    p.add_argument("--seed", type=int, default=1,
                   help="accepted for uniformity (analytic, no randomness)")
    p.set_defaults(func=_cmd_capacity)

    p = sub.add_parser("ablations",
                       help="design-choice ablations (analytic by default)")
    p.add_argument("--simulate", action="store_true",
                   help="run the simulation arms (elements 2/3/4 and "
                        "split arity) instead of the analytic tables")
    p.add_argument("--horizon", type=float, default=150_000.0,
                   help="simulated slots per arm (with --simulate)")
    p.add_argument("--seed", type=int, default=5,
                   help="base seed of the simulation arms (the analytic "
                        "mode accepts it as a no-op)")
    p.add_argument("--workers", type=int, default=None,
                   help="fan simulation arms over N worker processes "
                        "(results are identical for any N)")
    _add_resilience_flags(p)
    _add_sequential_flags(p)
    _add_obs_flags(p)
    p.set_defaults(func=_cmd_ablations)

    p = sub.add_parser("sensitivity",
                       help="sensitivity to the paper's modelling assumptions")
    p.add_argument("--scenario",
                   choices=("stations", "burstiness", "scheduling"),
                   default="stations",
                   help="stations = population size; burstiness = MMPP "
                        "peak/mean; scheduling = exact vs geometric law "
                        "(analytic)")
    p.add_argument("--horizon", type=float, default=None,
                   help="simulated slots per arm (default: the "
                        "scenario's published horizon)")
    p.add_argument("--seed", type=int, default=41,
                   help="master seed of the simulation arms")
    p.add_argument("--workers", type=int, default=None,
                   help="fan sweep cells over N worker processes "
                        "(results are identical for any N)")
    _add_resilience_flags(p)
    _add_sequential_flags(p)
    _add_obs_flags(p)
    p.set_defaults(func=_cmd_sensitivity)

    p = sub.add_parser(
        "validity",
        help="map where the eq. 4.7 analysis breaks under "
             "nonstationary workloads",
    )
    p.add_argument("--families", nargs="+", choices=SCENARIO_FAMILIES,
                   default=list(SCENARIO_FAMILIES), metavar="FAMILY",
                   help="scenario families to sweep (default: all of "
                        f"{', '.join(SCENARIO_FAMILIES)})")
    p.add_argument("--rho", type=float, nargs="+", default=[0.25, 0.50, 0.75],
                   help="offered loads rho' (default: the Figure-7 grid)")
    p.add_argument("--m", type=int, nargs="+", default=[25, 100],
                   help="message lengths M (default: the Figure-7 grid)")
    p.add_argument("--deadline-factors", type=float, nargs="+",
                   default=[1.0, 3.0, 6.0], metavar="F",
                   help="deadlines as multiples of M: K = F*M")
    p.add_argument("--horizon", type=float, default=60_000.0,
                   help="simulated slots per cell (warmup adds 12.5%%)")
    p.add_argument("--tolerance", type=float, default=DEFAULT_AGREEMENT_TOL,
                   help="|simulated - analytic| agreement tolerance "
                        "(default %(default)g)")
    p.add_argument("--seed", type=int, default=7,
                   help="seed shared by every cell (one seed, one sweep)")
    p.add_argument("--workers", type=int, default=None,
                   help="fan sweep cells over N worker processes "
                        "(results are identical for any N)")
    p.add_argument("--csv", action="store_true",
                   help="emit the per-cell map as CSV instead of tables")
    _add_resilience_flags(p)
    _add_sequential_flags(p)
    _add_obs_flags(p)
    p.set_defaults(func=_cmd_validity)

    p = sub.add_parser("robustness", help="fault-injection degradation runs")
    p.add_argument("--scenario", choices=("feedback", "failures"),
                   default="feedback",
                   help="feedback = loss vs error-rate sweep; "
                        "failures = crash/deafness soak")
    p.add_argument("--feedback-errors", action="store_true",
                   help="run the per-protocol degradation sweep (fraction "
                        "late vs feedback error rate for all four window "
                        "protocols on the Figure-7 grid) instead of the "
                        "single-protocol scenario sweeps")
    p.add_argument("--recovery", choices=RECOVERY_POLICIES, default=None,
                   help="divergence-recovery policy of the degradation "
                        "sweep (with --feedback-errors only; default "
                        "reset-to-epoch)")
    p.add_argument("--rho", type=float, default=0.5)
    p.add_argument("--m", type=int, default=25)
    p.add_argument("--deadline-factor", type=float, default=3.0,
                   help="constraint K as a multiple of M")
    p.add_argument("--stations", type=int, default=25)
    p.add_argument("--horizon", type=float, default=60_000.0)
    p.add_argument("--seeds", type=int, default=3,
                   help="number of replications per fault setting")
    p.add_argument("--seed", type=int, default=1,
                   help="master seed of the first replication")
    p.add_argument("--errors", type=float, nargs="+", default=None,
                   help="error rates of the feedback sweep")
    p.add_argument("--workers", type=int, default=None,
                   help="fan replications over N worker processes "
                        "(results are identical for any N)")
    _add_resilience_flags(p)
    _add_sequential_flags(p)
    _add_obs_flags(p)
    p.set_defaults(func=_cmd_robustness)

    p = sub.add_parser("report",
                       help="render or diff run reports (report.json)")
    p.add_argument("action", choices=("show", "diff"),
                   help="show = render one report; diff = compare the "
                        "deterministic metrics of two")
    p.add_argument("files", nargs="+", metavar="FILE",
                   help="one report for show, two for diff")
    p.add_argument("--all", action="store_true",
                   help="include volatile metrics (timings, cache hits, "
                        "retries) in the diff")
    p.add_argument("--seed", type=int, default=1,
                   help="accepted for uniformity (no randomness)")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("cache", help="inspect or purge the disk memo cache")
    p.add_argument("action", choices=("info", "clear"),
                   help="info = path/schema/entry count; clear = delete "
                        "every disk entry (any schema)")
    p.add_argument("--seed", type=int, default=1,
                   help="accepted for uniformity (no randomness)")
    p.set_defaults(func=_cmd_cache)

    return parser


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    registry, tracer = _obs_setup(args)
    try:
        started = time.perf_counter()
        code = args.func(args)
        if registry is not None:
            from .obs.report import build_report, write_report

            # The report is written for any completed command (theorem1
            # exits 1 on a falsified theorem but still produced a run).
            report = build_report(
                command=args.command,
                argv=list(argv) if argv is not None else sys.argv[1:],
                seed=getattr(args, "seed", None),
                metrics=registry,
                timings={"total_s": time.perf_counter() - started},
            )
            write_report(args.metrics, report)
            print(f"report written to {args.metrics}", file=sys.stderr)
        return code
    except (ValueError, FileNotFoundError) as error:
        # Domain validation (bad rates, loads, fault probabilities…) and
        # resume-without-journal: report cleanly instead of dumping a
        # traceback.
        print(f"error: {error}", file=sys.stderr)
        return 2
    except (JournalSchemaError, JournalMismatchError) as error:
        # Checkpoint-layer failures have their own exit code so CI can
        # distinguish "stale journal" from a bad parameterisation.
        print(f"journal error: {error}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # Output piped into a pager/head that closed early — not an error.
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0
    finally:
        # Uninstall even on failure so one CLI call (or test) can never
        # leak its registry/tracer into the next.
        _obs_teardown(registry, tracer)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
