"""Command-line interface: the paper's workflows as shell commands.

Usage (after installation, or via ``python -m repro.cli``):

    python -m repro.cli zoo                      # list the networks
    python -m repro.cli measure [--net NAME]     # Fig. 1 latencies
    python -m repro.cli explore                  # 148-TRN sweep (cached)
    python -m repro.cli netcut --deadline 0.9 --estimator profiler
    python -m repro.cli netcut online            # drift -> refit -> rebuild
    python -m repro.cli estimators               # Fig. 9 error table
    python -m repro.cli pareto                   # frontier + text scatter
    python -m repro.cli serve --deadline-ms 0.9 --trace poisson
    python -m repro.cli profile --net resnet --cutpoint 3
    python -m repro.cli trace --out serve.jsonl --chrome serve.trace.json
    python -m repro.cli faults --scenario straggler-storm --compare
    python -m repro.cli obs alerts                # SLO burn-rate timeline
    python -m repro.cli obs compare 1 2 --store RUNSTORE.sqlite

(``python -m repro ...`` is an equivalent spelling of every command.)

Heavy artifacts (pretrained weights, exploration, latency dataset) are
cached under ``~/.cache/repro-netcut`` (override with ``REPRO_CACHE_DIR``),
so repeated invocations are fast.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from repro.cluster import POLICIES
from repro.device import DEVICE_PROFILES, network_latency, xavier
from repro.faults import SCENARIOS, build_scenario
from repro.netcut import BUILDERS
from repro.serve import Server, ServerConfig, TRNLadder
from repro.workload import WORKLOAD_KINDS, poisson_trace, uniform_trace
from repro.zoo import NETWORKS, build_network


def _workbench(args):
    from repro import ExperimentConfig, Workbench
    from repro.train import PretrainConfig

    networks = getattr(args, "networks", None)
    quick = getattr(args, "quick", False)
    hands = 60 if quick else args.hands_images
    epochs = 6 if quick else args.head_epochs
    if networks:
        config = ExperimentConfig(networks=tuple(networks),
                                  hands_images=hands, head_epochs=epochs)
    elif quick:
        config = ExperimentConfig(hands_images=hands, head_epochs=epochs)
    else:
        config = ExperimentConfig()
    pretrain = (PretrainConfig(n_images=40, epochs=1, batch_size=16)
                if quick else None)
    return Workbench(config, cache_dir=getattr(args, "cache_dir", None),
                     pretrain_config=pretrain)


def _resolve_net(name: str) -> str:
    """Resolve a zoo network by exact name or unique prefix/substring."""
    if name in NETWORKS:
        return name
    matches = [n for n in NETWORKS if n.startswith(name)] \
        or [n for n in NETWORKS if name in n]
    if len(matches) != 1:
        raise SystemExit(
            f"--net {name!r} is ambiguous or unknown; zoo networks: "
            + ", ".join(NETWORKS))
    return matches[0]


def _base(args):
    """The built zoo network named by ``--net``."""
    return build_network(_resolve_net(args.net)).build(0)


def _ladder(args, spec) -> TRNLadder:
    """The TRN ladder of ``--net`` on ``spec``, at most ``--max-rungs``."""
    return TRNLadder.from_base(_base(args), spec, num_classes=5,
                               max_rungs=args.max_rungs)


def _poisson(args, full_ms: float, load: float, maker=poisson_trace,
             **kwargs):
    """Offered rate and the ``--requests`` trace of a serving verb.

    The rate is ``--rate`` when given, else ``load / full_ms`` requests/s:
    ``load = 1.3e3`` offers 1.3x the single-request capacity of a rung
    that takes ``full_ms`` per request.
    """
    rate = args.rate or load / full_ms
    return rate, maker(args.requests, rate, args.deadline_ms, rng=args.seed,
                       **kwargs)


def cmd_zoo(args) -> int:
    """List the seven networks with their structural statistics."""
    from repro.trim import enumerate_blockwise

    print(f"{'network':22s} {'layers':>7} {'blocks':>7} {'params':>10} "
          f"{'MFLOPs':>8}")
    for name in NETWORKS:
        net = build_network(name).build(0)
        print(f"{name:22s} {net.layer_count():>7d} "
              f"{len(enumerate_blockwise(net)):>7d} "
              f"{net.total_params():>10,d} "
              f"{net.total_flops() / 1e6:>8.2f}")
    return 0


def cmd_measure(args) -> int:
    """Measure off-the-shelf transfer models on the simulated Xavier."""
    wb = _workbench(args)
    names = [_resolve_net(args.net)] if args.net else list(wb.config.networks)
    latencies = wb.base_latencies()
    print(f"{'network':22s} {'latency_ms':>10}   (deadline "
          f"{args.deadline} ms)")
    for name in names:
        ms = latencies[name]
        verdict = "meets" if ms <= args.deadline else "misses"
        print(f"{name:22s} {ms:>10.3f}   {verdict}")
    return 0


def cmd_explore(args) -> int:
    """Run (or load) the full blockwise exploration and print a summary."""
    wb = _workbench(args)
    exploration = wb.exploration(force=args.force)
    print(f"{exploration.networks_trained} TRNs explored "
          f"({exploration.total_train_hours:.1f} simulated K20m GPU-hours)")
    for name in wb.config.networks:
        rows = exploration.for_base(name)
        best = max(rows, key=lambda r: r.accuracy)
        print(f"  {name:22s} best TRN {best.trn_name:24s} "
              f"acc={best.accuracy:.4f} lat={best.latency_ms:.3f} ms")
    return 0


def cmd_netcut(args) -> int:
    """Run Algorithm 1 and print the proposed candidates."""
    wb = _workbench(args)
    result = wb.netcut(args.estimator, deadline_ms=args.deadline)
    print(f"NetCut ({args.estimator}) @ deadline {args.deadline} ms")
    for c in result.candidates:
        status = "ok" if c.feasible else "infeasible"
        print(f"  {c.base_name:22s} -> {c.trn_name:26s} "
              f"blocks_removed={c.blocks_removed:2d} "
              f"est={c.estimated_latency_ms:.3f} ms acc={c.accuracy:.4f} "
              f"[{status}]")
    best = result.best
    print(f"winner: {best.trn_name} (accuracy {best.accuracy:.4f}, "
          f"measured {best.measured_latency_ms:.3f} ms)")
    return 0


def cmd_netcut_build(args) -> int:
    """Bake off the pluggable ladder builders on one zoo network.

    Runs the selected :class:`repro.netcut.LadderBuilder` strategies over
    the base network on a simulated device, prints each strategy's rungs
    and accuracy-at-deadline, then the mixed Pareto frontier the serving
    ladder would actually mount. ``--save DIR`` writes the frontier as
    deployment artifacts (builder tags included) loadable with
    ``TRNLadder.from_artifacts``.
    """
    from repro.metrics import accuracy_at_deadline
    from repro.netcut import (
        artifact_points,
        build_rungs,
        frontier_artifacts,
        save_artifact,
    )

    spec = DEVICE_PROFILES[args.device]()
    base = _base(args)
    names = args.strategy or sorted(BUILDERS)
    per_strategy = build_rungs(base, spec,
                               builders=[BUILDERS[n]() for n in names],
                               max_rungs=args.max_rungs)
    full_ms = network_latency(base, spec).total_ms
    deadline = args.deadline_ms or round(args.deadline_frac * full_ms, 6)
    print(f"{base.name} @ {spec.name}: full model {full_ms:.4f} ms, "
          f"deadline {deadline:.4f} ms")
    for strategy in sorted(per_strategy):
        points = artifact_points(per_strategy[strategy])
        acc = accuracy_at_deadline(points, deadline)
        print(f"\n[{strategy}] {len(points)} rungs, "
              f"acc@deadline {acc:.4f}")
        for p in sorted(points, key=lambda p: -p.latency_ms):
            marker = " " if p.latency_ms <= deadline else "!"
            print(f"  {marker} {p.name:42s} {p.latency_ms:8.4f} ms  "
                  f"acc {p.accuracy:.4f}")
    mixed = [a for strategy in sorted(per_strategy)
             for a in per_strategy[strategy]]
    front = frontier_artifacts(mixed)
    acc = accuracy_at_deadline(artifact_points(mixed), deadline)
    print(f"\nmixed frontier: {len(front)} of {len(mixed)} rungs, "
          f"acc@deadline {acc:.4f}")
    for a in front:
        print(f"    {a.trn_name:42s} {a.measured_latency_ms:8.4f} ms  "
              f"acc {a.accuracy:.4f}  [{a.builder}]")
    if args.save:
        import os

        os.makedirs(args.save, exist_ok=True)
        for a in front:
            save_artifact(a, os.path.join(args.save, f"{a.trn_name}.npz"))
        print(f"saved {len(front)} frontier artifacts to {args.save}/")
    return 0


def cmd_netcut_online(args) -> int:
    """Closed-loop NetCut: drift-triggered re-estimation under throttle.

    Serves a Poisson trace through a TRN ladder while a seeded thermal
    throttle slows the device mid-trace. The same trace replays twice:
    once with the deployment artifact's latency tables frozen (Algorithm 1
    believed at deploy time) and once with ``online_reestimation`` on, so
    the drift -> re-fit -> ladder-rebuild loop's effect on the deadline-
    miss rate reads side by side.
    """
    from repro.faults import FaultInjector, ThermalThrottle
    from repro.obs import DriftMonitor

    device = xavier()
    ladder = _ladder(args, device)
    full = ladder.rungs[0].estimate_ms(1)
    # default to 1.3x the full TRN; _poisson stamps args.deadline_ms
    deadline = args.deadline_ms = args.deadline_ms or round(1.3 * full, 3)
    rate, trace = _poisson(args, full, 0.4e3)
    span = trace[-1].arrival_ms
    print(f"device: {device.name}   ladder: {len(ladder)} rungs of "
          f"{_resolve_net(args.net)}   deadline: {deadline} ms")
    print(f"{args.requests} Poisson requests @ {rate:,.0f} req/s; thermal "
          f"throttle to {args.factor}x from t={0.1 * span:,.0f} ms "
          f"(never recovers)")
    print("\nladder (deployment artifact's estimates):")
    for rung in ladder.rungs:
        print(f"  {rung.name:28s} est {rung.estimate_ms(1):.3f} ms")

    def replay(online: bool):
        faults = FaultInjector([ThermalThrottle(
            start_ms=0.1 * span, duration_ms=10 * span,
            factor=args.factor, ramp_ms=0.03 * span)], seed=args.seed)
        drift = DriftMonitor(threshold=0.2, window=16, min_observations=8,
                             cooldown=8)
        config = ServerConfig(
            deadline_ms=deadline, execute=False, seed=args.seed,
            adaptive=False, online_reestimation=online,
            reestimate_method=args.method, reestimate_cooldown_ms=10.0,
            reestimate_min_samples=8, reestimate_max_samples=16)
        server = Server(ladder, config, drift=drift, faults=faults)
        return server.run_trace(trace), server, drift

    for label, online in (("static estimates", False),
                          ("online re-estimation", True)):
        result, server, drift = replay(online)
        print(f"\n--- {label} ---")
        print(result.metrics.report())
        if online:
            print(server.engine.reestimator.report())
            print("calibrated ladder after the run:")
            # read the engine's ladder: under fault injection it is the
            # wrapped copy whose re-sorted order the original never sees
            for rung in server.engine.ladder.rungs:
                print(f"  {rung.name:28s} est {rung.estimate_ms(1):.3f} ms "
                      f"(scale {rung.estimate_scale:.2f}x)")
        if args.verbose:
            print(drift.report())
    return 0


def cmd_estimators(args) -> int:
    """Print the Fig. 9 estimator-error table."""
    from repro.estimators import relative_error

    wb = _workbench(args)
    s = wb.estimates()
    print(f"{'network':22s} {'profiler%':>10} {'svr%':>8} {'linear%':>9}")
    for net in wb.config.networks:
        mask = s.base_names == net
        print(f"{net:22s} "
              f"{relative_error(s.profiler[mask], s.measured[mask]):>10.2f} "
              f"{relative_error(s.svr[mask], s.measured[mask]):>8.2f} "
              f"{relative_error(s.linear[mask], s.measured[mask]):>9.2f}")
    return 0


def cmd_pareto(args) -> int:
    """Print the TRN Pareto frontier and a terminal scatter plot."""
    from repro.metrics import CandidatePoint, pareto_frontier
    from repro.viz import scatter

    wb = _workbench(args)
    exploration = wb.exploration()
    by_family: dict[str, list[tuple[float, float]]] = {}
    for r in exploration.records:
        by_family.setdefault(r.base_name, []).append(
            (r.latency_ms, r.accuracy))
    print(scatter(by_family, xlabel="latency (ms)", ylabel="accuracy",
                  vline=args.deadline))
    frontier = pareto_frontier([
        CandidatePoint(r.trn_name, r.latency_ms, r.accuracy)
        for r in exploration.records])
    print("\nPareto frontier:")
    for p in frontier:
        print(f"  {p.name:26s} {p.latency_ms:>8.3f} ms  acc {p.accuracy:.4f}")
    return 0


def cmd_serve(args) -> int:
    """Replay a synthetic request trace through the deadline-aware server.

    Builds the TRN ladder of one zoo network (structure only — serving is
    about latency, so no pretraining is needed), offers Poisson or uniform
    traffic against the simulated Xavier, and prints the metrics report.
    By default the offered load is calibrated to overload the full TRN so
    the ladder degradation is visible; pass ``--rate`` to choose your own.
    """
    device = xavier()
    ladder = _ladder(args, device)
    full = ladder.rungs[0]
    rate, trace = _poisson(
        args, full.estimate_ms(1), 1.3e3,
        poisson_trace if args.trace == "poisson" else uniform_trace,
        image_size=full.network.input_shape[0], render=args.execute)
    config = ServerConfig(deadline_ms=args.deadline_ms,
                          max_batch=args.max_batch,
                          adaptive=not args.no_ladder,
                          execute=args.execute, seed=args.seed)
    result = Server(ladder, config).run_trace(trace)

    print(f"TRN ladder for {_resolve_net(args.net)} on {device.name}:")
    print(ladder.describe())
    print(f"\n{args.trace} trace: {args.requests} requests @ "
          f"{rate:,.0f} req/s, deadline {args.deadline_ms} ms, "
          f"ladder {'off' if args.no_ladder else 'on'}")
    print("\n" + result.metrics.report())
    return 0


def cmd_profile(args) -> int:
    """Profile one zoo network layer by layer on the device model.

    Prints the per-layer latency table of
    :func:`repro.device.profile_network` (``--runs`` noisy runs averaged
    per kernel, each record carrying the CUDA-event overhead), and — when
    ``--cutpoint`` is given — the paper's ratio-form TRN latency estimate
    from that table next to the TRN's direct model latency.
    """
    from repro.device import profile_network
    from repro.estimators import ProfilerEstimator
    from repro.trim import build_trn, enumerate_blockwise, removed_node_set

    spec = xavier()
    net = _base(args)
    table = profile_network(net, spec, rng=args.seed, profile_runs=args.runs)
    print(table.describe(top=args.top))
    if args.cutpoint is None:
        return 0
    cuts = enumerate_blockwise(net)
    if not 0 <= args.cutpoint < len(cuts):
        raise SystemExit(f"--cutpoint {args.cutpoint} out of range; "
                         f"{net.name} has {len(cuts)} blockwise cutpoints")
    cut = cuts[args.cutpoint]
    est = ProfilerEstimator(net, table).estimate(
        removed_node_set(net, cut.cut_node))
    trn = build_trn(net, cut.cut_node, num_classes=5)
    direct = network_latency(trn, spec).total_ms
    print(f"\ncutpoint {args.cutpoint} ({cut.cut_node}, "
          f"{cut.blocks_removed} blocks removed) -> {trn.name}")
    print(f"ratio estimate from the table: {est:.4f} ms")
    print(f"TRN direct model latency:      {direct:.4f} ms "
          f"({100 * abs(est - direct) / direct:.2f}% apart; the feature "
          "part is estimated, a fresh head replaces the old one)")
    return 0


def cmd_trace(args) -> int:
    """Replay a serve trace with full observability attached.

    Same scenario as ``serve``, plus a request tracer (JSONL and Chrome
    trace export) and an estimator-drift monitor; prints the serving,
    trace and drift reports one after another.
    """
    from repro.obs import DriftMonitor, Tracer, write_chrome_trace, write_jsonl

    ladder = _ladder(args, xavier())
    rate, trace = _poisson(args, ladder.rungs[0].estimate_ms(1), 1.3e3)
    tracer = Tracer(capacity=args.buffer)
    drift = DriftMonitor(threshold=args.drift_threshold)
    server = Server(ladder, ServerConfig(deadline_ms=args.deadline_ms,
                                         execute=False, seed=args.seed),
                    tracer=tracer, drift=drift)
    result = server.run_trace(trace)

    print(f"{args.requests} Poisson requests @ {rate:,.0f} req/s, "
          f"deadline {args.deadline_ms} ms, seed {args.seed}\n")
    print(f"serve.final_rung: {ladder.current_index}")
    for name, part in (("serve", result.metrics), ("trace", tracer),
                       ("drift", drift)):
        print(f"-- {name} --")
        print(part.report())
    if args.out:
        n = write_jsonl(tracer, args.out)
        print(f"\nwrote {n} spans to {args.out}")
    if args.chrome:
        n = write_chrome_trace(tracer, args.chrome)
        print(f"wrote {n} spans to {args.chrome} "
              "(load in chrome://tracing)")
    return 0


def cmd_faults(args) -> int:
    """Replay a chaos scenario against the resilient serving engine.

    Same traffic as ``serve``, but the ladder is wrapped in a named fault
    scenario (see :data:`repro.faults.SCENARIOS`) and the engine runs with
    timeouts, retries and circuit breakers. With ``--compare`` the same
    scenario is also replayed with resilience off, so the deadline-miss
    rates can be read side by side; ``--no-resilience`` runs only the
    undefended engine.
    """
    ladder = _ladder(args, xavier())
    rate, trace = _poisson(args, ladder.rungs[0].estimate_ms(1), 1.3e3)
    span_ms = trace[-1].arrival_ms if trace else 0.0
    if args.rung:
        rungs = tuple(args.rung)
    elif args.scenario in ("rung-failure", "mixed"):
        # break the most accurate rung by default: the breaker opens and
        # traffic visibly shifts down the ladder instead of stalling
        rungs = (ladder.rungs[0].name,)
    else:
        rungs = None
    scenario = build_scenario(args.scenario, span_ms, seed=args.seed,
                              rungs=rungs)
    print(scenario.describe())
    print(f"\n{args.requests} Poisson requests @ {rate:,.0f} req/s, "
          f"deadline {args.deadline_ms} ms, seed {args.seed}")

    def replay(resilient: bool):
        injector = scenario.injector()
        config = ServerConfig(deadline_ms=args.deadline_ms,
                              execute=False, seed=args.seed,
                              resilience=resilient)
        server = Server(ladder, config, faults=injector)
        return server.run_trace(trace), injector

    runs = []
    if not args.no_resilience:
        runs.append(("resilient", True))
    if args.no_resilience or args.compare:
        runs.append(("undefended", False))
    for label, resilient in runs:
        result, injector = replay(resilient)
        print(f"\n--- {label} engine "
              f"(resilience {'on' if resilient else 'off'}) ---")
        print(result.metrics.report())
        if args.verbose:
            print(injector.report())
    return 0


def _workload(args):
    """Ladder, pinned-rung ServerConfig and tenant mix of the workload verbs.

    ``--tenants`` serves the two-class interactive/batch mix; ``--fair``
    admits it weighted-fair.
    """
    from repro.workload import WeightedFairAdmission, default_tenants

    ladder = _ladder(args, xavier())
    config = ServerConfig(deadline_ms=args.deadline_ms, execute=False,
                          adaptive=not args.no_ladder, seed=args.seed,
                          queue_capacity=args.queue_capacity)
    mix = default_tenants() if args.tenants else None
    if args.fair:
        if mix is None:
            raise SystemExit("--fair needs --tenants (weighted-fair "
                             "admission is per-tenant)")
        config = replace(config, admission_policy=WeightedFairAdmission(
            mix, watermark=args.watermark))
    return ladder, config, mix


def _process(args, mix):
    """The ``--kind`` arrival process over ``--horizon-ms``, described."""
    from repro.workload import make_process

    process = make_process(args.kind, args.base_rate, args.horizon_ms)
    print(f"workload: {process.describe()} over {args.horizon_ms:.0f} ms")
    if mix is not None:
        print("tenants:\n" + mix.describe())
    return process


def cmd_workload_generate(args) -> int:
    """Sample a named workload shape (diurnal, flash crowd, MMPP,
    superpositions) into a request trace, serve it, and with ``--out``
    record the run to a versioned JSONL file."""
    from repro.workload import generate_trace, record_run

    ladder, config, mix = _workload(args)
    process = _process(args, mix)
    trace = generate_trace(process, args.horizon_ms,
                           deadline_ms=args.deadline_ms,
                           tenants=mix, rng=args.seed)
    rate = len(trace) * 1e3 / args.horizon_ms
    print(f"sampled {len(trace)} requests ({rate:,.0f} rps offered)")
    result = Server(ladder, config).run_trace(trace)
    print("\n" + result.metrics.report())
    if args.out:
        record_run(args.out, trace, result.responses,
                   meta={"kind": args.kind, "seed": args.seed,
                         "horizon_ms": args.horizon_ms, "net": args.net})
        print(f"\nrecorded run -> {args.out}")
    return 0


def cmd_workload_replay(args) -> int:
    """Re-serve a recorded trace and verify the outcomes byte for byte
    against what was recorded (exit status 1 on divergence)."""
    from repro.workload import load_trace, verify_replay

    ladder, config, _ = _workload(args)
    recorded = load_trace(args.path)
    print(f"loaded {args.path}: {recorded.describe()}")
    result = Server(ladder, config).run_trace(recorded.requests)
    print("\n" + result.metrics.report())
    if recorded.outcomes:
        problems = verify_replay(recorded, result.responses)
        if problems:
            print(f"\nreplay DIVERGED from the recording "
                  f"({len(problems)} outcomes differ):")
            for line in problems[:10]:
                print(f"  {line}")
            return 1
        print(f"\nreplay reproduced all {len(recorded.outcomes)} "
              "recorded outcomes exactly")
    return 0


def cmd_workload_fluid(args) -> int:
    """Skip the event loop: the analytical model predicts per-tenant
    admitted throughput and miss rate per rung, or sweeps fleet sizes /
    plans the smallest fleet for a miss target."""
    from repro.workload import FluidModel

    ladder, config, mix = _workload(args)
    process = _process(args, mix)
    fluid = FluidModel.from_ladder(ladder, config, tenants=mix)
    if args.plan_miss is not None:
        rung = ladder.rungs[args.rung].name
        n = fluid.plan_fleet(process, args.horizon_ms, args.plan_miss,
                             rung=rung)
        if n is None:
            print(f"no fleet up to 256 replicas holds miss rate "
                  f"<= {args.plan_miss:.2%}")
            return 1
        print(f"smallest fleet with every tenant at miss rate "
              f"<= {args.plan_miss:.2%}: {n} replica(s)")
        print(fluid.solve(process, args.horizon_ms, replicas=n,
                          rung=rung).report())
    elif args.replicas_sweep:
        counts = [int(x) for x in args.replicas_sweep.split(",")]
        preds = fluid.sweep(process, args.horizon_ms, counts,
                            rung=ladder.rungs[args.rung].name)
        for n, pred in preds.items():
            print(f"\n-- {n} replica(s) --")
            print(pred.report())
    else:
        for name, pred in fluid.solve_ladder(process, args.horizon_ms,
                                             replicas=args.replicas).items():
            print(f"\n-- rung {name} --")
            print(pred.report())
    return 0


def cmd_cluster(args) -> int:
    """Route a request trace across a fleet of serving replicas.

    Same traffic model as ``serve``, dispatched across ``--replicas``
    shards under a routing policy. ``--device`` (repeatable) builds a
    heterogeneous fleet from named device profiles; ``--kill-replica``
    hard-fails every rung of one replica over the middle of the trace
    (resilience is switched on so its breakers open and the router
    routes around it); ``--autoscale`` starts from one replica and lets
    the autoscaler grow the fleet.
    """
    from repro.cluster import (
        Autoscaler,
        AutoscalerConfig,
        Replica,
        Router,
        make_policy,
    )

    config = ServerConfig(deadline_ms=args.deadline_ms,
                          max_batch=args.max_batch, execute=False,
                          seed=args.seed, queue_capacity=64, window=16,
                          min_observations=8, cooldown=8,
                          resilience=args.kill_replica is not None)
    fastest = _ladder(args, xavier()).fastest.estimate_ms(1)
    rate, trace = _poisson(args, fastest, 0.8e3 * args.replicas)
    span_ms = trace[-1].arrival_ms if trace else 0.0

    def build_replica(i: int, spec=None) -> Replica:
        faults = None
        if args.kill_replica == i:
            faults = build_scenario("rung-failure", span_ms,
                                    seed=args.seed).injector()
        return Replica(f"r{i}", _ladder(args, spec or xavier()),
                       replace(config, seed=config.seed + i), faults=faults)

    devices = args.device or ["xavier"] * args.replicas
    replicas = [build_replica(i, DEVICE_PROFILES[name]())
                for i, name in enumerate(devices)]
    autoscaler = None
    if args.autoscale:
        replicas = replicas[:1]
        autoscaler = Autoscaler(build_replica, AutoscalerConfig(
            max_replicas=args.replicas, check_interval_ms=1.0,
            cooldown_ms=2.0, up_load=4.0))

    policy = make_policy(args.policy, args.seed)
    result = Router(replicas, policy, autoscaler=autoscaler).run(trace)

    fleet = ", ".join(f"{r.name}({r.spec.name})" for r in result.replicas)
    print(f"fleet: {fleet}")
    print(f"{args.requests} Poisson requests @ {rate:,.0f} req/s, "
          f"deadline {args.deadline_ms} ms, policy {policy.name}, "
          f"seed {args.seed}")
    if args.kill_replica is not None:
        print(f"replica r{args.kill_replica} hard-fails over the middle "
              f"of the trace")
    print("\n" + result.metrics.report())
    return 0


def _store_path(args) -> str:
    import os

    return args.store or os.environ.get("REPRO_RUNSTORE", "RUNSTORE.sqlite")


def cmd_obs_expose(args) -> int:
    """Replay a serve trace with labeled telemetry attached and print the
    OpenMetrics text exposition (pipe it to a scraper or a file)."""
    from repro.obs import Telemetry, to_json, to_openmetrics

    ladder = _ladder(args, xavier())
    telemetry = Telemetry(sample_interval_ms=args.sample_ms)
    _, trace = _poisson(args, ladder.rungs[0].estimate_ms(1), 1.3e3)
    config = ServerConfig(deadline_ms=args.deadline_ms, execute=False,
                          seed=args.seed)
    Server(ladder, config, telemetry=telemetry).run_trace(trace)
    if args.json:
        import json

        with open(args.json, "w") as fh:
            json.dump(to_json(telemetry), fh, sort_keys=True)
        print(f"wrote JSON export to {args.json}", file=sys.stderr)
    # exposition only on stdout: scrape-able / pipe-able
    sys.stdout.write(to_openmetrics(telemetry))
    return 0


def cmd_obs_alerts(args) -> int:
    """Replay a chaos scenario against an *undefended* pinned-rung engine
    with the canonical SLO burn-rate rules attached and print the
    firing/resolved timeline — exit status 1 if any alert is still firing
    when the trace drains."""
    from repro.obs import AlertEngine, RunStore, Telemetry, default_slo_rules

    ladder = _ladder(args, xavier())
    telemetry = Telemetry(sample_interval_ms=args.sample_ms)
    # the engine is pinned to the full rung and undefended so the storm's
    # misses actually reach the series (the calibrated defaults fire
    # both rules mid-storm and resolve them in the quiet tail)
    rate, trace = _poisson(args, ladder.rungs[0].estimate_ms(1), 0.65e3)
    span_ms = trace[-1].arrival_ms if trace else 0.0
    scenario = build_scenario(args.scenario, span_ms * 0.5,
                              seed=args.fault_seed)
    engine = AlertEngine(default_slo_rules(args.deadline_ms,
                                           miss_budget=args.miss_budget,
                                           fast_ms=args.fast_ms,
                                           slow_ms=args.slow_ms))
    telemetry.attach_alerts(engine)
    config = ServerConfig(deadline_ms=args.deadline_ms, execute=False,
                          seed=args.seed, adaptive=False)
    server = Server(ladder, config, faults=scenario.injector(),
                    telemetry=telemetry)
    result = server.run_trace(trace)

    print(scenario.describe())
    print(f"\n{args.requests} Poisson requests @ {rate:,.0f} req/s, "
          f"deadline {args.deadline_ms} ms, seed {args.seed} "
          "(pinned full rung, resilience off)")
    print("\n" + engine.report())
    print("\n" + result.metrics.report())
    if args.store:
        with RunStore(args.store) as store:
            run_id = store.add_run(
                "obs.alerts", telemetry=telemetry,
                meta={"net": args.net, "scenario": args.scenario,
                      "seed": args.seed, "deadline_ms": args.deadline_ms},
                artifacts={"alerts": engine.snapshot()})
        print(f"\narchived as run #{run_id} in {args.store}")
    return 1 if engine.active else 0


def cmd_obs_gate(args) -> int:
    """Apply the bench-regression tolerances (the ones CI enforces) to
    fresh ``BENCH_*.json`` files against the committed baselines — exit
    status 1 on any violation."""
    from repro.obs import run_gate

    return run_gate(args.baselines, args.current, top=args.top)


def cmd_obs_runs(args) -> int:
    """List the archived runs of a SQLite run store."""
    import os
    import time

    from repro.obs import RunStore

    path = _store_path(args)
    if not os.path.exists(path):
        raise SystemExit(
            f"run store {path!r} does not exist; record one with "
            "scripts/bench_serve.py --store or repro obs alerts --store")
    with RunStore(path) as store:
        rows = store.runs(kind=args.kind)
        if not rows:
            what = f" of kind {args.kind!r}" if args.kind else ""
            print(f"{path}: no runs{what}")
            return 0
        print(f"{path}: {len(rows)} run(s)")
        for row in rows:
            stamp = time.strftime("%Y-%m-%d %H:%M:%S",
                                  time.gmtime(row["created"]))
            meta = " ".join(f"{k}={v}"
                            for k, v in sorted(row["meta"].items()))
            print(f"  #{row['id']:<4d} {row['kind']:18s} {stamp}  {meta}")
    return 0


def cmd_obs_compare(args) -> int:
    """Diff two archived runs, biggest relative movers first."""
    from repro.obs import RunStore

    with RunStore(_store_path(args)) as store:
        try:
            rows = store.compare(args.run_a, args.run_b)
        except KeyError as exc:
            raise SystemExit(str(exc.args[0]))
    movers = [r for r in rows if r["rel"]]
    print(f"run #{args.run_a} vs run #{args.run_b}: "
          f"{len(rows)} keys, {len(movers)} moved "
          f"(top {min(args.top, len(rows))} by |relative change|)")
    print(f"{'key':52s} {'a':>12} {'b':>12} {'rel':>9}")

    def cell(v) -> str:
        return "-" if v is None else f"{v:12.4g}"

    for row in rows[:args.top]:
        rel = row["rel"]
        rel_s = "-" if rel is None else f"{100 * rel:+8.1f}%"
        print(f"{row['key'][:52]:52s} {cell(row['a']):>12} "
              f"{cell(row['b']):>12} {rel_s:>9}")
    return 0


def cmd_figures(args) -> int:
    """List every reproduced figure/claim and its benchmark."""
    from repro.figures import EXPERIMENTS

    for e in EXPERIMENTS:
        print(f"{e.id:10s} {e.paper_ref:22s} {e.benchmark}")
        print(f"{'':10s} {e.claim}")
    return 0


#: Flags several verbs share, by dest: ``--max-rungs`` is ``max_rungs``.
#: A verb names the ones it takes in :func:`_verb`; a keyword there takes
#: the flag with that default instead of the one below.
_FLAGS = {
    "net": dict(default="mobilenet_v1_0.5",
                help="zoo network (exact name, prefix or substring)"),
    "deadline": dict(type=float, default=0.9, help="deadline (ms)"),
    "deadline_ms": dict(type=float, default=0.9,
                        help="serving deadline (ms)"),
    "requests": dict(type=int, default=400,
                     help="requests in the Poisson trace"),
    "rate": dict(type=float, default=None,
                 help="offered load in requests/s (default: scaled to the "
                      "ladder's capacity)"),
    "max_rungs": dict(type=int, default=6, help="rung budget of a ladder"),
    "max_batch": dict(type=int, default=8, help="largest micro-batch"),
    "seed": dict(type=int, default=0),
    "no_ladder": dict(action="store_true",
                      help="pin the full TRN (disable degradation)"),
    "verbose": dict(action="store_true",
                    help="also print the drift or fault event log"),
    "scenario": dict(default="straggler-storm", choices=sorted(SCENARIOS),
                     help="built-in chaos scenario to replay"),
    "replicas": dict(type=int, default=1, help="fleet size"),
    "store": dict(default=None, metavar="PATH",
                  help="SQLite run store (runs/compare default: "
                       "$REPRO_RUNSTORE or RUNSTORE.sqlite)"),
    "top": dict(type=int, default=20, help="rows to print"),
    "sample_ms": dict(type=float, default=1.0,
                      help="telemetry sampling interval (virtual ms)"),
    "queue_capacity": dict(type=int, default=64),
    "tenants": dict(action="store_true",
                    help="two-class interactive/batch tenant mix"),
    "fair": dict(action="store_true",
                 help="weighted-fair admission (needs --tenants)"),
    "watermark": dict(type=float, default=0.25,
                      help="queue fill fraction where fair shares bind"),
    "kind": dict(default="diurnal-flash", choices=list(WORKLOAD_KINDS),
                 help="workload shape"),
    "base_rate": dict(type=float, default=4000.0,
                      help="base arrival rate in requests/s"),
    "horizon_ms": dict(type=float, default=300.0),
}

#: the shared flags of the three ``workload`` verbs
_WORKLOAD = ("net", "max_rungs", "queue_capacity", "no_ladder", "tenants",
             "fair", "watermark", "seed")


def _verb(sub, name: str, func, help: str, *flags, **defaults):
    """Add the sub-parser ``name``, bound to the handler ``func``, with the
    shared ``flags`` and, at the given defaults, the shared ``defaults``."""
    parser = sub.add_parser(name, help=help)
    parser.set_defaults(func=func)
    for key in (*flags, *defaults):
        spec = dict(_FLAGS[key])
        if key in defaults:
            spec["default"] = defaults[key]
        parser.add_argument("--" + key.replace("_", "-"), **spec)
    return parser


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--networks", action="append", default=None,
                        metavar="NAME",
                        help="restrict to this zoo network (repeatable)")
    parser.add_argument("--hands-images", type=int, default=1100)
    parser.add_argument("--head-epochs", type=int, default=50)
    parser.add_argument("--cache-dir", default=None)
    parser.add_argument("--quick", action="store_true",
                        help="tiny budgets for a fast smoke run "
                             "(minutes, not paper-quality numbers)")
    sub = parser.add_subparsers(dest="command", required=True)

    _verb(sub, "zoo", cmd_zoo, "list the seven networks")
    _verb(sub, "measure", cmd_measure, "measure off-the-shelf latencies",
          "deadline", net=None)
    p = _verb(sub, "explore", cmd_explore, "run the 148-TRN blockwise sweep")
    p.add_argument("--force", action="store_true",
                   help="ignore the on-disk cache")

    p = _verb(sub, "netcut", cmd_netcut, "run Algorithm 1", "deadline")
    p.add_argument("--estimator", default="profiler",
                   choices=["profiler", "analytical", "linear"])
    # nested verbs: `netcut` alone keeps running Algorithm 1 (required
    # stays False), `netcut online` closes the serving-time loop,
    # `netcut build` bakes off the pluggable ladder builders
    nsub = p.add_subparsers(dest="netcut_cmd", required=False)
    p = _verb(nsub, "build", cmd_netcut_build,
              "bake off the ladder builders, print the mixed frontier",
              "net", max_rungs=4, deadline_ms=None)
    p.add_argument("--device", default="xavier",
                   choices=list(DEVICE_PROFILES))
    p.add_argument("--strategy", action="append", default=None,
                   choices=list(BUILDERS),
                   help="builder to run (repeatable; default: all)")
    p.add_argument("--deadline-frac", type=float, default=0.6,
                   help="deadline as a fraction of the full model latency "
                        "(when --deadline-ms is not given)")
    p.add_argument("--save", default=None, metavar="DIR",
                   help="write the mixed frontier as .npz artifacts")
    p = _verb(nsub, "online", cmd_netcut_online,
              "drift-triggered re-estimation + live ladder rebuild",
              "net", "rate", "max_rungs", "seed", "verbose",
              deadline_ms=None, requests=1000)
    p.add_argument("--factor", type=float, default=2.5,
                   help="thermal-throttle slowdown factor")
    p.add_argument("--method", default="ratio", choices=["ratio", "svr"],
                   help="re-estimation fit (per-rung median or pooled SVR)")

    _verb(sub, "estimators", cmd_estimators, "estimator error table (Fig. 9)")
    _verb(sub, "figures", cmd_figures, "list the reproduced figures/claims")
    _verb(sub, "pareto", cmd_pareto, "TRN Pareto frontier + scatter",
          "deadline")

    p = _verb(sub, "serve", cmd_serve,
              "deadline-aware serving on a TRN ladder",
              "deadline_ms", "net", "requests", "rate", "max_batch",
              "max_rungs", "no_ladder", "seed")
    p.add_argument("--trace", choices=["poisson", "uniform"],
                   default="poisson")
    p.add_argument("--execute", action="store_true",
                   help="run real forward passes on rendered images "
                        "(slower; default is timing-only simulation)")

    p = _verb(sub, "faults", cmd_faults,
              "chaos replay against the resilient engine",
              "scenario", "net", "deadline_ms", "requests", "rate",
              "max_rungs", "verbose", "seed")
    p.add_argument("--rung", action="append", default=None,
                   help="rung name targeted by rung-specific faults "
                        "(repeatable; default: the most accurate rung)")
    p.add_argument("--compare", action="store_true",
                   help="also replay with resilience off, side by side")
    p.add_argument("--no-resilience", action="store_true",
                   help="replay only the undefended engine")

    p = _verb(sub, "cluster", cmd_cluster, "multi-replica scale-out serving",
              "net", "rate", "max_rungs", "max_batch", "seed",
              replicas=3, deadline_ms=3.0, requests=2000)
    p.add_argument("--policy", default="p2c-deadline",
                   choices=sorted(POLICIES), help="routing policy")
    p.add_argument("--device", action="append", default=None,
                   choices=sorted(DEVICE_PROFILES),
                   help="device profile per replica (repeatable; builds "
                        "a heterogeneous fleet and overrides --replicas)")
    p.add_argument("--autoscale", action="store_true",
                   help="start from one replica and let the autoscaler "
                        "grow the fleet up to --replicas")
    p.add_argument("--kill-replica", type=int, default=None,
                   metavar="INDEX",
                   help="hard-fail this replica's rungs mid-trace "
                        "(rung-failure scenario; enables resilience)")

    p = sub.add_parser("workload",
                       help="production traffic: generate, replay, fluid")
    wsub = p.add_subparsers(dest="workload_cmd", required=True)
    p = _verb(wsub, "generate", cmd_workload_generate,
              "sample a workload, serve it, record the run", *_WORKLOAD,
              "kind", "base_rate", "horizon_ms", deadline_ms=3.0)
    p.add_argument("--out", default=None, metavar="PATH",
                   help="record requests + outcomes as versioned JSONL")
    p = _verb(wsub, "replay", cmd_workload_replay,
              "re-serve a recorded trace and verify it", *_WORKLOAD,
              deadline_ms=3.0)
    p.add_argument("path", help="JSONL trace written by generate")
    p = _verb(wsub, "fluid", cmd_workload_fluid,
              "analytical throughput/miss predictions", *_WORKLOAD,
              "kind", "base_rate", "horizon_ms", "replicas", deadline_ms=3.0)
    p.add_argument("--rung", type=int, default=0,
                   help="rung index for --sweep/--plan-miss (0 = most "
                        "accurate)")
    p.add_argument("--sweep", default=None, dest="replicas_sweep",
                   metavar="N,N,...",
                   help="comma-separated fleet sizes to sweep")
    p.add_argument("--plan-miss", type=float, default=None, metavar="RATE",
                   help="plan the smallest fleet with every tenant at or "
                        "under this miss rate")

    p = sub.add_parser("obs", help="telemetry: exposition, alerts, run store")
    osub = p.add_subparsers(dest="obs_cmd", required=True)
    p = _verb(osub, "expose", cmd_obs_expose,
              "serve with telemetry, print OpenMetrics text",
              "net", "requests", "rate", "max_rungs", "sample_ms",
              "deadline_ms", "seed")
    p.add_argument("--json", default=None, metavar="PATH",
                   help="also write the JSON export (metrics + series)")
    p = _verb(osub, "alerts", cmd_obs_alerts,
              "burn-rate alert timeline on a chaos replay (exit 1 if still "
              "firing at drain)",
              "net", "rate", "max_rungs", "sample_ms", "scenario", "store",
              requests=800, deadline_ms=2.5, seed=2)
    p.add_argument("--miss-budget", type=float, default=0.05,
                   help="SLO deadline-miss budget (fraction of completions)")
    p.add_argument("--fast-ms", type=float, default=8.0,
                   help="fast burn-rate window (virtual ms)")
    p.add_argument("--slow-ms", type=float, default=24.0,
                   help="slow burn-rate window (virtual ms)")
    p.add_argument("--fault-seed", type=int, default=0)
    p = _verb(osub, "gate", cmd_obs_gate,
              "bench-regression gate: fresh BENCH_*.json vs committed "
              "baselines (exit 1 on regression)", "top")
    p.add_argument("--baselines", default="benchmarks/baselines",
                   metavar="DIR",
                   help="directory of committed BENCH_*.json baselines")
    p.add_argument("--current", default=".", metavar="DIR",
                   help="directory with the just-produced BENCH_*.json")
    p = _verb(osub, "runs", cmd_obs_runs, "list runs archived in a run store",
              "store")
    p.add_argument("--kind", default=None,
                   help="only runs of this kind (e.g. bench.serve)")
    p = _verb(osub, "compare", cmd_obs_compare, "diff two archived runs",
              "store", "top")
    p.add_argument("run_a", type=int, help="baseline run id")
    p.add_argument("run_b", type=int, help="candidate run id")

    p = _verb(sub, "profile", cmd_profile,
              "per-layer latency table on the device model", "net", "seed",
              top=None)
    p.add_argument("--cutpoint", type=int, default=None,
                   help="blockwise cutpoint index: also print the "
                        "ratio-form TRN estimate from the table")
    p.add_argument("--runs", type=int, default=100,
                   help="profiled runs averaged per kernel")

    p = _verb(sub, "trace", cmd_trace,
              "traced serving replay with drift monitoring",
              "net", "deadline_ms", "requests", "rate", "max_rungs", "seed")
    p.add_argument("--buffer", type=int, default=65536,
                   help="trace buffer capacity (spans)")
    p.add_argument("--drift-threshold", type=float, default=0.25,
                   help="rolling |relative error| that raises a drift event")
    p.add_argument("--out", default=None, metavar="PATH",
                   help="write spans as JSON lines")
    p.add_argument("--chrome", default=None, metavar="PATH",
                   help="write a chrome://tracing JSON file")
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
