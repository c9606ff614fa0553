//! Figure 7 — UTS on the heterogeneous cluster: Scioto split queues vs.
//! the MPI work-stealing implementation vs. the locked ("No Split")
//! queue ablation.
//!
//! Performance is reported in millions of tree nodes processed per second
//! of virtual time. The paper's findings: split queues beat both the MPI
//! implementation (which pays explicit polling) and the locked queue
//! (which loses concurrency to lock contention), and heterogeneity is
//! absorbed transparently.
//!
//! Run: `cargo run --release -p scioto-bench --bin fig7_uts_cluster`
//! Options: `--max-ranks N` (default 64; the event engine sweeps to 1024
//! and beyond), `--only-ranks N` (single sweep point), `--tree
//! small|medium|large`, `--engine auto|threads|events`, `--latency
//! flat|nearfar` (near/far distance tiers), plus the hot-path policy
//! flags `--victim uniform|locality`, `--barrier flat|tree`,
//! `--td-batch on|off` and the `--old-policy` shorthand for the
//! pre-locality baseline triple. `--old-startup` selects the historical
//! two-barriers-per-collective startup protocol (ablation for the
//! coalesced default); the coalesced runs additionally record
//! `split_startup_ns_pNNN` aggregate startup metrics.
//!
//! `--steal-dist` additionally runs the dedicated traced configuration
//! and records the per-steal ring-distance histogram from the analyzer's
//! provenance pass as first-class bench metrics (`steal_dist_dNNNN`
//! buckets plus mean distance and near-steal share), so steal locality
//! can be pinned and diffed like any throughput figure.

use scioto_bench::{
    cluster_rank_sweep, dump_analysis, dump_trace, engine_from_args, obs_requested, only_ranks,
    render_table, run_predict_check, run_race_check, run_replay_check, startup_from_args,
    startup_param, trace_config, Args, BenchOut, LatencyPreset, PolicyFlags,
};
use scioto_sim::{Engine, LatencyModel, Machine, MachineConfig, SpeedModel, StartupMode};
use scioto_uts::mpi_ws::{run_mpi_uts, MpiUtsConfig};
use scioto_uts::scioto_driver::{run_scioto_uts, SciotoUtsConfig};
use scioto_uts::{presets, TreeParams, TreeStats};

#[derive(Clone, Copy)]
struct SimOpts {
    engine: Engine,
    latency: LatencyPreset,
    startup: StartupMode,
}

fn machine(p: usize, policy: PolicyFlags, sim: SimOpts) -> MachineConfig {
    MachineConfig::virtual_time(p)
        .with_latency(sim.latency.apply(LatencyModel::cluster()))
        .with_speed(SpeedModel::hetero_cluster(p))
        .with_barrier(policy.barrier)
        .with_engine(sim.engine)
        .with_startup(sim.startup)
}

fn uts_config(params: TreeParams, policy: PolicyFlags) -> SciotoUtsConfig {
    SciotoUtsConfig {
        victim: Some(policy.victim),
        td_batch: Some(policy.td_batch),
        ..SciotoUtsConfig::new(params)
    }
}

/// (total nodes, makespan ns) → Mnodes/s.
fn rate(nodes: u64, ns: u64) -> f64 {
    nodes as f64 / (ns as f64 / 1e9) / 1e6
}

/// Returns (Mnodes/s, aggregate per-rank startup ns) for one run.
fn scioto_rate(
    p: usize,
    params: TreeParams,
    queue: scioto::QueueKind,
    policy: PolicyFlags,
    sim: SimOpts,
) -> (f64, u64, u64) {
    let out = Machine::run(machine(p, policy, sim), move |ctx| {
        let cfg = SciotoUtsConfig {
            queue,
            ..uts_config(params, policy)
        };
        run_scioto_uts(ctx, &cfg)
    });
    let mut total = TreeStats::default();
    let mut startup_ns = 0u64;
    for (tree, stats) in &out.results {
        total.merge(tree);
        startup_ns += stats.startup_ns;
    }
    (
        rate(total.nodes, out.report.makespan_ns),
        startup_ns,
        out.report.stack_hwm_bytes,
    )
}

fn mpi_rate(p: usize, params: TreeParams, policy: PolicyFlags, sim: SimOpts) -> f64 {
    let out = Machine::run(machine(p, policy, sim), move |ctx| {
        run_mpi_uts(ctx, &MpiUtsConfig::new(params)).0
    });
    let mut total = TreeStats::default();
    for s in &out.results {
        total.merge(s);
    }
    rate(total.nodes, out.report.makespan_ns)
}

fn main() {
    let args = Args::parse();
    let max_p: usize = args.get("max-ranks", 64);
    let tree: String = args.get("tree", "medium".to_string());
    let policy = PolicyFlags::from_args(&args);
    let sim = SimOpts {
        engine: engine_from_args(&args),
        latency: LatencyPreset::from_args(&args),
        startup: startup_from_args(&args),
    };
    let only = only_ranks(&args);
    let params = match tree.as_str() {
        "tiny" => presets::tiny(),
        "small" => presets::small(),
        "medium" => presets::medium(),
        "large" => presets::large(),
        other => panic!("unknown tree preset {other}"),
    };
    let steal_dist = args.has("steal-dist");
    let mut bench = BenchOut::new("fig7_uts_cluster");
    bench.param("max_ranks", max_p);
    bench.param("tree", &tree);
    for (k, v) in policy.params() {
        bench.param(k, v);
    }
    if let Some((k, v)) = sim.latency.param() {
        bench.param(k, v);
    }
    if let Some((k, v)) = startup_param(sim.startup) {
        bench.param(k, v);
    }
    if let Some(o) = only {
        bench.param("only_ranks", o);
    }
    if obs_requested(&args) || steal_dist {
        // Dedicated traced UTS run (`--trace-ranks N`, default 8, on the
        // tiny tree unless `--trace-tree` picks another preset); the
        // throughput sweep below stays untraced.
        let trace_ranks: usize = args.get("trace-ranks", 8);
        let trace_tree: String = args.get("trace-tree", "tiny".to_string());
        let trace_params = match trace_tree.as_str() {
            "tiny" => presets::tiny(),
            "small" => presets::small(),
            "medium" => presets::medium(),
            "large" => presets::large(),
            other => panic!("unknown tree preset {other}"),
        };
        let trace = trace_config(&args);
        let out = Machine::run(
            machine(trace_ranks, policy, sim).with_trace(trace),
            move |ctx| run_scioto_uts(ctx, &uts_config(trace_params, policy)).0,
        );
        dump_trace(&args, &out.report);
        dump_analysis(&args, &out.report);
        run_race_check(&args, &out.report);
        run_predict_check(&args, &out.report);
        run_replay_check(&args, &out.report);
        if steal_dist {
            // Steal-locality metrics from the analyzer's provenance pass.
            // The traced configuration is part of the metric identity, so
            // it rides in the params; only occupied histogram buckets are
            // recorded — an empty bucket turning hot (or vice versa)
            // surfaces as a metric appearing/vanishing, which bench_diff
            // reports as drift.
            bench.param("steal_dist", "on");
            bench.param("trace_ranks", trace_ranks);
            bench.param("trace_tree", &trace_tree);
            let trace = out.report.trace.as_ref().expect("traced run carries a trace");
            let analysis = scioto_analyze::analyze(trace);
            for w in &analysis.warnings {
                eprintln!("steal-dist WARNING: {w}");
            }
            let prov = analysis.provenance;
            for (d, &c) in prov.distance_hist.iter().enumerate() {
                if c > 0 {
                    bench.metric(&format!("steal_dist_d{d:04}"), c as f64);
                }
            }
            bench.metric("steal_dist_mean", prov.mean_ring_distance());
            bench.metric(
                "steal_dist_near_share",
                prov.near_share(scioto_analyze::provenance::NEAR_RADIUS),
            );
        }
    }
    let mut rows = Vec::new();
    for p in cluster_rank_sweep(max_p) {
        if only.is_some_and(|o| o != p) {
            continue;
        }
        eprintln!("running P = {p} ...");
        let (split, startup_ns, stack_hwm) =
            scioto_rate(p, params, scioto::QueueKind::Split, policy, sim);
        let mpi = mpi_rate(p, params, policy, sim);
        let (nosplit, _, _) = scioto_rate(p, params, scioto::QueueKind::Locked, policy, sim);
        bench.metric(&format!("split_mnodes_p{p:03}"), split);
        bench.metric(&format!("mpi_ws_mnodes_p{p:03}"), mpi);
        bench.metric(&format!("nosplit_mnodes_p{p:03}"), nosplit);
        // Aggregate rank-ns of startup for the split run. Printed in both
        // startup modes (the ablation compares them), recorded as a bench
        // metric only under the coalesced default: old-startup runs must
        // diff cleanly against pre-coalescing baselines, which lack it.
        eprintln!("  split startup: {startup_ns} rank-ns aggregate");
        // Host measurement (deepest fiber stack of the split run), kept
        // out of the bench JSON so the pinned baselines stay exact.
        eprintln!("  split fiber-stack high-water: {stack_hwm} bytes");
        if sim.startup == StartupMode::Coalesced {
            bench.metric(&format!("split_startup_ns_p{p:03}"), startup_ns as f64);
        }
        rows.push(vec![
            p.to_string(),
            format!("{split:.2}"),
            format!("{mpi:.2}"),
            format!("{nosplit:.2}"),
        ]);
    }
    bench.write_if_requested(&args);
    print!(
        "{}",
        render_table(
            &format!(
                "Figure 7: UTS throughput on the heterogeneous cluster \
                 (Mnodes/s, {tree} tree)"
            ),
            &["P", "Split-Queues", "MPI-WS", "No Split"],
            &rows,
        )
    );
    println!(
        "\npaper (64 procs): Split-Queues ~72, MPI-WS ~62, No Split ~49 Mnodes/s; \
         split > MPI > no-split at every scale."
    );
}
