"""Command-line interface: ``python -m repro <command>``.

Subcommands:

* ``figures`` — regenerate paper figures and print their data tables;
* ``tune`` — run the autotuner for a routine/precision and print the
  chosen configuration;
* ``profile`` — run a vbatched factorization and print the per-kernel
  flat profile (optionally exporting a Chrome trace);
* ``energy`` — run one Fig-10 energy bucket;
* ``serve-bench`` — closed-loop load-generator benchmark of the batch
  server's windowing policies (writes ``BENCH_pr3.json``-style output;
  ``--trace`` records a Perfetto-loadable end-to-end trace;
  ``--adaptive`` A/Bs the online tuner against every static policy on
  the adaptive bench's workload mixes — the ``adaptive-smoke`` CI job
  runs it with ``--adaptive --smoke``);
* ``fleet-bench`` — open-loop overload/chaos benchmark of the
  multi-replica serving fleet: SLO classes, shedding, fault injection
  and retries vs. a single-server baseline (writes
  ``BENCH_pr6.json``-style output; the ``fleet-chaos-smoke`` CI job
  runs it with ``--smoke --faults seeded``);
* ``hmatrix-bench`` — hierarchical-matrix (block low-rank) compression
  demo driving mixed QR/SVD/POTRF batches through one cross-op batch
  server, plus the shared-group vs op-segregated serving comparison
  (writes ``BENCH_pr8.json``-style output; the ``mixedop-smoke`` CI
  job runs it with ``--smoke`` and checks it against that file);
* ``trace-report`` — occupancy / critical-path / padded-waste /
  bottleneck tables from a ``--trace`` file (including the
  per-operation breakdown for mixed-op traces).
"""

from __future__ import annotations

import argparse
import sys

# serve-bench parser defaults; ``--adaptive`` swaps in the adaptive
# bench's own (much larger) defaults when these are left untouched.
_SERVE_BENCH_DEFAULT_REQUESTS = 2000
_SERVE_BENCH_DEFAULT_CONCURRENCY = 128


def _cmd_figures(args) -> int:
    from .bench import figures as figs, format_ascii_chart, format_figure

    registry = {
        "3": lambda: figs.fig3_distributions(),
        "4": lambda: figs.fig4_fusion_fixed(args.precision),
        "5": lambda: figs.fig5_fused_variants(args.precision),
        "6": lambda: figs.fig6_fused_variants_gaussian(args.precision),
        "7": lambda: figs.fig7_crossover(args.precision),
        "8": lambda: figs.fig8_overall(args.precision),
        "9": lambda: figs.fig9_overall_gaussian(args.precision),
        "10": lambda: figs.fig10_energy(),
        "aux": lambda: figs.aux_interface_overhead(args.precision),
    }
    wanted = args.fig or list(registry)
    for key in wanted:
        if key not in registry:
            print(f"unknown figure {key!r}; known: {', '.join(registry)}", file=sys.stderr)
            return 2
        fig = registry[key]()
        print(format_ascii_chart(fig) if args.chart else format_figure(fig))
        print()
    return 0


def _cmd_tune(args) -> int:
    from .autotune import Tuner, TuningCache

    tuner = Tuner(cache=TuningCache(args.cache) if args.cache else None)
    if args.routine == "fused_nb":
        r = tuner.tune_fused_nb(args.size, args.precision)
    elif args.routine == "crossover":
        r = tuner.tune_crossover(args.precision)
    elif args.routine == "gemm":
        r = tuner.tune_gemm_tiling(args.size, args.size, 32, args.precision)
    else:  # pragma: no cover - argparse restricts choices
        return 2
    print(f"{r.routine}[{r.precision}, band {r.band}]: {r.choice} "
          f"({r.gflops:.1f} Gflop/s, swept {r.swept} candidates)")
    return 0


def _cmd_profile(args) -> int:
    from .bench import format_profile
    from .core import OpOptions, PlanCache, VBatch, potrf_vbatched
    from .core.optimizer import OPTIMIZER_COUNTERS
    from .device import Device
    from .device.device import publish_cost_memo
    from .distributions import generate_sizes
    from .observability import (
        NULL_TRACER, MetricsRegistry, Tracer, activate, write_chrome_trace,
    )

    device = Device(execute_numerics=False)
    sizes = generate_sizes(args.distribution, args.batch, args.max_size, seed=args.seed)
    batch = VBatch.allocate(device, sizes, args.precision)
    device.reset_clock()
    cache = PlanCache()
    registry = MetricsRegistry()
    stats = None
    tracer = Tracer() if args.trace else NULL_TRACER
    for _ in range(max(1, args.repeat)):
        with activate(tracer):
            result = potrf_vbatched(
                device, batch, OpOptions(optimize=args.optimize), plan_cache=cache
            )
        if stats is None:
            stats = result.launch_stats
        else:
            stats.merge(result.launch_stats)
        cache.publish(registry)
        stats.publish(registry)
        publish_cost_memo(registry, [device])
    vals = registry.as_dict()
    print(f"{result.gflops:.1f} Gflop/s via {result.approach} "
          f"({result.elapsed * 1e3:.2f} ms simulated)")
    print(f"plan cache: {vals['plan_cache_hits']:.0f} hits / "
          f"{vals['plan_cache_misses']:.0f} misses / "
          f"{vals['plan_cache_evictions']:.0f} evictions over "
          f"{vals['driver_batches']:.0f} batches "
          f"({vals['plan_cache_hit_ratio'] * 100:.0f}% hit rate, "
          f"{vals['plan_cache_size']:.0f} cached)")
    print(f"cost memo: {vals['device_cost_memo_hits']:.0f} hits / "
          f"{vals['device_cost_memo_misses']:.0f} misses "
          f"({vals['device_cost_memo_hit_ratio'] * 100:.0f}% hit rate, "
          f"{vals['device_cost_memo_size']:.0f} cached)")
    if args.optimize != "none":
        for counter_name, meta_key, help_text in OPTIMIZER_COUNTERS:
            registry.counter(counter_name, help_text).inc(
                int(getattr(stats, f"opt_{meta_key}"))
            )
        vals = registry.as_dict()
        print(f"plan optimizer [{args.optimize}]: "
              f"{vals['plan_opt_barriers_elided']:.0f} barriers elided, "
              f"{vals['plan_opt_launches_merged']:.0f} launches merged, "
              f"{vals['plan_opt_launches_pruned']:.0f} launches pruned")
    print()
    print(format_profile(device.timeline))
    if tracer:
        path = write_chrome_trace(tracer, args.trace)
        print(f"\nChrome trace written to {path} ({len(tracer)} events; "
              "load in ui.perfetto.dev or chrome://tracing)")
    return 0


def _cmd_serve_bench(args) -> int:
    import json
    from pathlib import Path

    from .serving import check_acceptance, run_serve_bench

    if args.adaptive:
        return _cmd_serve_bench_adaptive(args)
    if args.smoke:
        config = dict(requests=150, max_size=96, max_batch=16, concurrency=48)
    else:
        config = dict(
            requests=args.requests,
            max_size=args.max_size,
            max_batch=args.max_batch,
            concurrency=args.concurrency,
        )
    tracer = None
    if args.trace or args.trace_jsonl:
        from .observability import Tracer

        tracer = Tracer()
    report = run_serve_bench(
        distribution=args.distribution,
        seed=args.seed,
        device_count=args.devices,
        tracer=tracer,
        optimize=args.optimize,
        **config,
    )

    header = (
        f"{'policy':>14} {'batches':>8} {'mean_bs':>8} {'mat/sim_s':>12} "
        f"{'Gflop/s':>9} {'p50_ms':>8} {'p95_ms':>8} {'p99_ms':>8} {'waste_%':>8}"
    )
    print(f"serve-bench: {config['requests']} requests, {args.distribution} sizes "
          f"<= {config['max_size']}, seed {args.seed}, max_batch {config['max_batch']}, "
          f"{args.devices} device(s)\n")
    print(header)
    for name, snap in report["policies"].items():
        thr, lat, batching = snap["throughput"], snap["latency_sim_s"], snap["batching"]
        waste = 100.0 * (1.0 - batching["efficiency"]) if batching["padded_flops"] else 0.0
        print(
            f"{name:>14} {thr['batches']:>8} {thr['mean_batch_size']:>8.1f} "
            f"{thr['matrices_per_sim_s']:>12.0f} {thr['useful_gflops_sim']:>9.1f} "
            f"{lat['p50'] * 1e3:>8.3f} {lat['p95'] * 1e3:>8.3f} {lat['p99'] * 1e3:>8.3f} "
            f"{waste:>8.2f}"
        )
    speedups = report["comparison"].get("speedup_vs_per_request", {})
    if speedups:
        print("\nspeedup vs per-request dispatch: "
              + ", ".join(f"{k} {v:.2f}x" for k, v in speedups.items()))

    if args.output:
        path = Path(args.output)
        path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        print(f"report written to {path}")
    if tracer is not None:
        from .observability import write_chrome_trace, write_trace_jsonl

        if args.trace:
            path = write_chrome_trace(tracer, args.trace)
            print(f"trace written to {path} ({len(tracer)} events; "
                  "load in ui.perfetto.dev or chrome://tracing)")
        if args.trace_jsonl:
            path = write_trace_jsonl(tracer, args.trace_jsonl)
            print(f"event log written to {path}")

    failures = check_acceptance(report)
    for failure in failures:
        print(f"ACCEPTANCE FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


def _cmd_serve_bench_adaptive(args) -> int:
    """``serve-bench --adaptive``: the tuned-vs-static A/B replay.

    The adaptive bench brings its own workload mixes (uniform / bursty
    small-heavy / diurnal mixed-op), so ``-n``/``-d``/``--optimize``
    are ignored here; ``-r``/``--concurrency`` are honored only when
    set explicitly (the classic defaults are far too small for a cold
    tuner to converge mid-trace).
    """
    import json
    from pathlib import Path

    from .adaptive import run_adaptive_bench

    kwargs = {}
    if args.requests != _SERVE_BENCH_DEFAULT_REQUESTS:
        kwargs["requests"] = args.requests
    if args.concurrency != _SERVE_BENCH_DEFAULT_CONCURRENCY:
        kwargs["concurrency"] = args.concurrency
    tracer = None
    if args.trace or args.trace_jsonl:
        from .observability import Tracer

        tracer = Tracer()
    report = run_adaptive_bench(
        seed=args.seed,
        device_count=args.devices,
        smoke=args.smoke,
        tracer=tracer,
        **kwargs,
    )

    cfg = report["config"]
    print(f"serve-bench --adaptive: {cfg['requests']} base requests, "
          f"concurrency {cfg['concurrency']}, seed {cfg['seed']}, "
          f"{cfg['device_count']} device(s), knobs {cfg['knobs']}\n")
    header = (
        f"{'mix':>14} {'case':>16} {'mat/sim_s':>12} {'waste_%':>8} "
        f"{'mean_bs':>8} {'p95_ms':>8} {'explored':>9}"
    )
    print(header)
    for mix, entry in report["mixes"].items():
        cases = [(p, s) for p, s in entry["static"].items()]
        cases += [(f"adaptive-{k}", entry["adaptive"][k]) for k in ("cold", "warm")]
        for case, snap in cases:
            tuner = snap.get("tuner") or {}
            explored = tuner.get("exploration_batches", "-")
            print(
                f"{mix:>14} {case:>16} {snap['throughput_per_sim_s']:>12.0f} "
                f"{100.0 * snap['waste_ratio']:>8.2f} {snap['mean_batch_size']:>8.1f} "
                f"{snap['latency_sim_p95'] * 1e3:>8.3f} {explored:>9}"
            )
        cmp = entry["comparison"]
        beat = "strictly beats all statics" if cmp["strictly_beats_all_statics"] else ""
        print(f"{'':>14} tuned(warm) = {cmp['warm_vs_best_static']:.2f}x best static "
              f"({cmp['best_static']}), {cmp['warm_vs_cold']:.2f}x cold  {beat}\n")

    if args.output:
        path = Path(args.output)
        path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        print(f"report written to {path}")
    if tracer is not None:
        from .observability import write_chrome_trace, write_trace_jsonl

        if args.trace:
            path = write_chrome_trace(tracer, args.trace)
            print(f"trace written to {path} ({len(tracer)} events; "
                  "load in ui.perfetto.dev or chrome://tracing)")
        if args.trace_jsonl:
            path = write_trace_jsonl(tracer, args.trace_jsonl)
            print(f"event log written to {path}")

    violations = report["acceptance"]["violations"]
    for violation in violations:
        print(f"ACCEPTANCE FAIL: {violation}", file=sys.stderr)
    return 1 if violations else 0


def _cmd_fleet_bench(args) -> int:
    import json
    from pathlib import Path

    from .serving import run_fleet_bench

    report = run_fleet_bench(
        requests=args.requests,
        max_size=args.max_size,
        distribution=args.distribution,
        seed=args.seed,
        replica_count=args.replicas,
        max_batch=args.max_batch,
        pattern=args.pattern,
        overload=args.overload,
        queue_limit=args.queue_limit,
        fault_rate=args.fault_rate,
        faults=args.faults,
        smoke=args.smoke,
        adaptive=args.adaptive,
    )

    cfg, cap = report["config"], report["capacity"]
    print(f"fleet-bench: {cfg['requests']} requests, {cfg['pattern']} arrivals, "
          f"{cfg['replica_count']} replicas, {cfg['overload']}x overload, "
          f"faults {cfg['faults']}, seed {cfg['seed']}")
    print(f"capacity: {cap['per_replica_matrices_per_sim_s']:.0f} mat/sim_s per replica "
          f"({cap['fleet_matrices_per_sim_s']:.0f} fleet)\n")
    header = (
        f"{'run':>10} {'class':>12} {'offered':>8} {'admit':>6} {'done':>6} "
        f"{'shed':>5} {'fail':>5} {'cancel':>7} {'p50_ms':>8} {'p95_ms':>8}"
    )
    print(header)
    for run_name, run in report["runs"].items():
        for cls, rec in run["classes"].items():
            lat = rec["latency_s"]
            print(
                f"{run_name:>10} {cls:>12} {rec['offered']:>8} {rec['admitted']:>6} "
                f"{rec['completed']:>6} {rec['shed']:>5} {rec['failed']:>5} "
                f"{rec['cancelled']:>7} {lat['p50'] * 1e3:>8.3f} {lat['p95'] * 1e3:>8.3f}"
            )
    overload = report["runs"]["overload"]
    print(f"\noverload: shed ratio {overload['shed_ratio']:.2f}, "
          f"retries {sum(overload['fleet']['retries'].values())}, "
          f"faults injected {overload.get('faults', {}).get('injected', 0)}")
    if args.adaptive:
        for run_name in ("unloaded", "overload"):
            tuners = report["runs"][run_name].get("tuners", {})
            if not tuners:
                continue
            states = ", ".join(
                f"{name.rsplit(':', 1)[-1]}:{t['state']}"
                for name, t in sorted(tuners.items())
            )
            explored = sum(t["exploration_batches"] for t in tuners.values())
            print(f"adaptive {run_name}: {states} "
                  f"({explored} exploration batches fleet-wide)")

    if args.output:
        path = Path(args.output)
        path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        print(f"report written to {path}")

    failures = report["acceptance"]["failures"]
    for failure in failures:
        print(f"ACCEPTANCE FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


def _cmd_hetero_bench(args) -> int:
    import json
    from pathlib import Path

    from .bench.hetero import run_hetero_bench

    report = run_hetero_bench(
        batch_count=args.batch,
        max_size=args.max_size,
        seed=args.seed,
        precision=args.precision,
        members=args.members,
        chunks_per_member=args.chunks_per_member,
        smoke=args.smoke,
    )

    cfg = report["config"]
    base = report["baseline_1dev_s"]
    print(f"hetero-bench: {cfg['batch_count']} matrices, uniform sizes <= "
          f"{cfg['max_size']}, seed {cfg['seed']}, precision {cfg['precision']}")
    print(f"1-device baseline: fused {base['fused'] * 1e3:.4f} ms, "
          f"separated {base['separated'] * 1e3:.4f} ms (T1 = {base['t1'] * 1e3:.4f} ms)\n")

    for placement, rows in report["scaling"].items():
        print(f"homogeneous k40c scaling, {placement} placement:")
        print(f"{'devices':>8} {'elapsed_ms':>11} {'speedup':>8} {'chunks':>7} "
              f"{'steals':>7} {'approaches':>24}")
        for n, row in rows.items():
            print(f"{n:>8} {row['elapsed_s'] * 1e3:>11.4f} {row['speedup']:>7.2f}x "
                  f"{row['chunks']:>7} {row['work_steals']:>7} {row['approaches']:>24}")
        print()

    mixed = report["mixed"]
    print(f"mixed group {mixed['members']}: {mixed['elapsed_s'] * 1e3:.4f} ms "
          f"({mixed['work_steals']} steals)")
    for name, t in mixed["solos_s"].items():
        marker = "  <- best solo" if name == mixed["best_solo"] else ""
        print(f"  solo {name:>12}: {t * 1e3:>9.4f} ms{marker}")
    print(f"  speedup vs best solo: {mixed['speedup_vs_best_solo']:.2f}x")
    print("  placement:")
    for d in mixed["placement"]:
        stolen = f"  (stolen from {d['stolen_from']})" if "stolen_from" in d else ""
        print(f"    chunk {d['chunk']}: {d['count']:>4} matrices, max_n {d['max_n']:>4} "
              f"-> {d['member']} [{d['approach']}] est {d['est_s'] * 1e3:.4f} ms{stolen}")

    if args.output:
        path = Path(args.output)
        path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        print(f"report written to {path}")

    failures = report["acceptance"]["failures"]
    for failure in failures:
        print(f"ACCEPTANCE FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


def _cmd_hmatrix_bench(args) -> int:
    import json
    from pathlib import Path

    from .apps import run_hmatrix_bench

    report = run_hmatrix_bench(
        n_points=args.points,
        tol=args.tol,
        requests=args.requests,
        max_size=args.max_size,
        device_count=args.devices,
        max_batch=args.max_batch,
        seed=args.seed,
        smoke=args.smoke,
    )

    cfg = report["config"]
    comp = report["compression"]
    print(f"hmatrix-bench: {cfg['n_points']} points, {comp['clusters']} clusters, "
          f"tol {cfg['tol']:g}, seed {cfg['seed']}")
    print(f"  tiles: {comp['tiles_compressed']} compressed (max rank "
          f"{comp['max_rank']}), {comp['tiles_dense']} dense")
    print(f"  compression ratio: {comp['compression_ratio']:.3f} "
          f"(stored / dense entries)")
    print(f"  max tile reconstruction error: {comp['max_rel_error']:.2e}")
    print("  per-op serving batches:")
    for op, row in comp["serving_ops"].items():
        print(f"    {op:>6}: {row['batches']:>3} batches, {row['matrices']:>4} "
              f"matrices, efficiency {row['efficiency']:.2f}")

    mix = report["mixed_serving"]
    shared, seg = mix["shared_cross_op"], mix["segregated"]
    print(f"\nmixed serving, {cfg['requests']} requests "
          f"(mix {mix['op_mix']}), {cfg['device_count']} devices:")
    print(f"  shared cross-op : makespan {shared['makespan_sim_s'] * 1e3:9.3f} ms, "
          f"{shared['matrices_per_sim_s']:9.0f} matrices/s, "
          f"waste {shared['waste_pct']:.2f}%")
    print(f"  op-segregated   : makespan {seg['makespan_sim_s'] * 1e3:9.3f} ms, "
          f"{seg['matrices_per_sim_s']:9.0f} matrices/s, "
          f"waste {seg['waste_pct']:.2f}%")
    print(f"  throughput speedup: {mix['comparison']['throughput_speedup']:.2f}x")

    if args.output:
        path = Path(args.output)
        path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        print(f"report written to {path}")

    failures = report["acceptance"]["failures"]
    for failure in failures:
        print(f"ACCEPTANCE FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


def _cmd_trace_report(args) -> int:
    from .observability import analyze_trace, format_trace_report, load_chrome_trace

    try:
        data = load_chrome_trace(args.trace)
    except (OSError, ValueError) as exc:
        print(f"trace-report: {exc}", file=sys.stderr)
        return 2
    analysis = analyze_trace(data, top=args.top)
    print(format_trace_report(analysis, top=args.top))
    return 0


def _cmd_energy(args) -> int:
    from .energy import run_energy_experiment

    comp = run_energy_experiment(args.low, args.high, args.batch, args.precision)
    print(f"workload {comp.workload}:")
    print(f"  cpu: {comp.cpu.elapsed * 1e3:8.2f} ms  {comp.cpu.joules:8.2f} J")
    print(f"  gpu: {comp.gpu.elapsed * 1e3:8.2f} ms  {comp.gpu.joules:8.2f} J")
    print(f"  energy ratio (cpu/gpu): {comp.energy_ratio:.2f}x")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Variable-size batched computation reproduction"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("figures", help="regenerate paper figures")
    p.add_argument("--fig", action="append", help="figure id (3..10, aux); repeatable")
    p.add_argument("-p", "--precision", default="d", choices="sdcz")
    p.add_argument("--chart", action="store_true", help="render ASCII bar charts")
    p.set_defaults(fn=_cmd_figures)

    p = sub.add_parser("tune", help="run the autotuner")
    p.add_argument("routine", choices=["fused_nb", "crossover", "gemm"])
    p.add_argument("-p", "--precision", default="d", choices="sdcz")
    p.add_argument("-n", "--size", type=int, default=256)
    p.add_argument("--cache", help="JSON file to persist results")
    p.set_defaults(fn=_cmd_tune)

    p = sub.add_parser("profile", help="profile a vbatched factorization")
    p.add_argument("-p", "--precision", default="d", choices="sdcz")
    p.add_argument("-b", "--batch", type=int, default=1000)
    p.add_argument("-n", "--max-size", type=int, default=256)
    p.add_argument("-d", "--distribution", default="uniform")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--repeat", type=int, default=2,
                   help="factorization repeats (shows plan-cache effectiveness)")
    p.add_argument("--trace", help="write a Chrome trace JSON here")
    p.add_argument("--optimize", default="none",
                   help='plan-optimizer level: "none", "all", or +-joined pass names')
    p.set_defaults(fn=_cmd_profile)

    p = sub.add_parser("serve-bench", help="benchmark the batch-serving subsystem")
    p.add_argument("-r", "--requests", type=int, default=_SERVE_BENCH_DEFAULT_REQUESTS)
    p.add_argument("-n", "--max-size", type=int, default=256)
    p.add_argument("-d", "--distribution", default="uniform")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-batch", type=int, default=32)
    p.add_argument("--concurrency", type=int, default=_SERVE_BENCH_DEFAULT_CONCURRENCY,
                   help="closed-loop outstanding requests")
    p.add_argument("--devices", type=int, default=1, help="simulated devices to shard over")
    p.add_argument("--adaptive", action="store_true",
                   help="A/B the online tuner against every static policy "
                        "on the adaptive bench's workload mixes")
    p.add_argument("--smoke", action="store_true",
                   help="tiny fixed load for CI (overrides size arguments)")
    p.add_argument("-o", "--output", help="write the JSON report here (e.g. BENCH_pr3.json)")
    p.add_argument("--trace", help="write a Chrome/Perfetto trace of the whole run here")
    p.add_argument("--trace-jsonl", help="write the structured event log (JSONL) here")
    p.add_argument("--optimize", default="none",
                   help='plan-optimizer level: "none", "all", or +-joined pass names')
    p.set_defaults(fn=_cmd_serve_bench)

    p = sub.add_parser("fleet-bench", help="overload/chaos benchmark of the serving fleet")
    p.add_argument("-r", "--requests", type=int, default=600)
    p.add_argument("-n", "--max-size", type=int, default=128)
    p.add_argument("-d", "--distribution", default="uniform")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--replicas", type=int, default=3)
    p.add_argument("--max-batch", type=int, default=16)
    p.add_argument("--pattern", default="bursty",
                   choices=["poisson", "bursty", "diurnal", "heavy-tail"],
                   help="open-loop arrival trace shape")
    p.add_argument("--overload", type=float, default=2.0,
                   help="offered load as a multiple of measured fleet capacity")
    p.add_argument("--queue-limit", type=int, default=128,
                   help="router backlog bound; shed levels are fractions of it")
    p.add_argument("--fault-rate", type=float, default=0.08)
    p.add_argument("--faults", default="seeded", choices=["seeded", "off"])
    p.add_argument("--adaptive", action="store_true",
                   help="attach online tuners to the unloaded/overload fleets "
                        "(the collapse baseline stays static)")
    p.add_argument("--smoke", action="store_true",
                   help="tiny fixed load for CI (shrinks the workload)")
    p.add_argument("-o", "--output", help="write the JSON report here (e.g. BENCH_pr6.json)")
    p.set_defaults(fn=_cmd_fleet_bench)

    p = sub.add_parser("hetero-bench",
                       help="heterogeneous-group scaling and placement benchmark")
    p.add_argument("-b", "--batch", type=int, default=400)
    p.add_argument("-n", "--max-size", type=int, default=256)
    p.add_argument("--seed", type=int, default=11)
    p.add_argument("-p", "--precision", default="d", choices="sdcz")
    p.add_argument("--members", default="k40c+k20x+titan-black+cpu",
                   help='mixed-group member spec, e.g. "k40c*2+k20x+cpu:8"')
    p.add_argument("--chunks-per-member", type=int, default=1,
                   help="placement granularity (1 = one stratum per member)")
    p.add_argument("--smoke", action="store_true",
                   help="CI sweep: only the points the acceptance gate asserts")
    p.add_argument("-o", "--output", help="write the JSON report here (e.g. BENCH_pr7.json)")
    p.set_defaults(fn=_cmd_hetero_bench)

    p = sub.add_parser("hmatrix-bench",
                       help="hierarchical-matrix compression + mixed-op serving benchmark")
    p.add_argument("--points", type=int, default=1024,
                   help="kernel matrix order for the compression demo")
    p.add_argument("--tol", type=float, default=1e-6,
                   help="relative singular-value truncation threshold")
    p.add_argument("-r", "--requests", type=int, default=5760,
                   help="mixed QR/SVD/POTRF requests in the serving comparison")
    p.add_argument("-n", "--max-size", type=int, default=96)
    p.add_argument("-d", "--devices", type=int, default=3,
                   help="simulated devices in the shared group (and segregated servers)")
    p.add_argument("--max-batch", type=int, default=288)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--smoke", action="store_true",
                   help="CI-sized run: smaller kernel matrix and request stream")
    p.add_argument("-o", "--output", help="write the JSON report here (e.g. BENCH_pr8.json)")
    p.set_defaults(fn=_cmd_hmatrix_bench)

    p = sub.add_parser("trace-report", help="bottleneck report from a recorded trace")
    p.add_argument("trace", help="Chrome-trace JSON written by serve-bench or profile --trace")
    p.add_argument("--top", type=int, default=10, help="bottleneck rows to show")
    p.set_defaults(fn=_cmd_trace_report)

    p = sub.add_parser("energy", help="one energy-to-solution bucket")
    p.add_argument("--low", type=int, default=256)
    p.add_argument("--high", type=int, default=512)
    p.add_argument("-b", "--batch", type=int, default=1000)
    p.add_argument("-p", "--precision", default="d", choices="sdcz")
    p.set_defaults(fn=_cmd_energy)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
