//! The four workloads, their set-up-only twins, and the traced iteration.
//!
//! Every machine uses the bench bins' default policy: event-driven fibers
//! (one OS thread whatever the rank count), the heterogeneous cluster's
//! speeds and latencies, tree barrier, locality victims, batched
//! termination detection and the coalesced startup protocol.

use std::collections::BTreeMap;
use std::sync::Arc;

use scioto::{QueueKind, StatsSummary, TaskCollection, TcConfig, VictimPolicy};
use scioto_armci::Armci;
use scioto_ga::Ga;
use scioto_mpi::Comm;
use scioto_scf::{run_scf_parallel, BasisSet, LoadBalance, Molecule, ParallelScfConfig, ScfConfig};
use scioto_sim::{
    BarrierKind, Engine, LatencyModel, Machine, MachineConfig, Report, SpeedModel, StartupMode,
    Trace, TraceConfig,
};
use scioto_tce::{
    run_contraction, BlockSparse, ContractionConfig, SparsityPattern, TceLoadBalance,
};
use scioto_uts::mpi_ws::{run_mpi_uts, MpiUtsConfig};
use scioto_uts::node::NODE_BYTES;
use scioto_uts::scioto_driver::{run_scioto_uts, SciotoUtsConfig};
use scioto_uts::{sequential, TreeParams, TreeStats};

use crate::inputs::Inputs;
use crate::report;
use crate::spans::Spans;

/// Metric values by name.
pub type Values = BTreeMap<String, f64>;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fig 7 configuration, large tree, 8 ranks: owner-side work dominates.
    UtsDeep,
    /// Fig 7 1024-rank near/far point, small tree: starved ranks.
    UtsWide,
    /// Fig 5/6 point at 32 ranks: SCF and TCE, Scioto and counter.
    Apps,
    /// Traced fig 7 run at 64 ranks through the whole analysis pipeline.
    Obs,
}

/// All workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [Workload; 4] = [
    Workload::UtsDeep,
    Workload::UtsWide,
    Workload::Apps,
    Workload::Obs,
];

impl Workload {
    /// Name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::UtsDeep => "uts_deep",
            Workload::UtsWide => "uts_wide",
            Workload::Apps => "apps",
            Workload::Obs => "obs",
        }
    }

    /// Parse a workload name.
    pub fn parse(s: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name() == s)
    }
}

/// Output checks, counted against the operations they cover.
#[derive(Debug, Default)]
pub struct Checks {
    /// Checked operations.
    pub attempted: u64,
    /// Operations whose output was wrong.
    pub failed: u64,
    /// One line per failure.
    pub failures: Vec<String>,
}

impl Checks {
    /// Count one checked operation; record `what` if `ok` is false.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }
}

/// What one untraced iteration measured.
#[derive(Debug, Default)]
pub struct Iteration {
    /// Host seconds of the whole iteration.
    pub host_s: f64,
    /// The process's resident high-water mark in MB when the iteration
    /// ended, before the replay check.
    pub peak_rss_mb: f64,
    /// Virtual-time values and counts: must repeat bit for bit.
    pub exact: Values,
    /// Host-time values of single layers.
    pub host: Values,
}

/// What a set-up round measured.
#[derive(Debug, Default)]
pub struct Setup {
    /// Host seconds to stand up all of the workload's machines.
    pub host_s: f64,
    /// Queue bytes of the headline collection over all ranks, as
    /// computed from the slot size (0 when the workload has none).
    pub queue_bytes: u64,
}

/// A UTS machine and tree.
#[derive(Debug, Clone, Copy)]
pub struct UtsSpec {
    /// Rank count.
    pub ranks: usize,
    /// The tree.
    pub tree: TreeParams,
    /// Near/far latency tiers on top of the cluster model.
    pub nearfar: bool,
}

fn cluster_machine(ranks: usize, latency: LatencyModel) -> MachineConfig {
    MachineConfig::virtual_time(ranks)
        .with_latency(latency)
        .with_speed(SpeedModel::hetero_cluster(ranks))
        .with_barrier(BarrierKind::Tree)
        .with_engine(Engine::Events)
        .with_startup(StartupMode::Coalesced)
}

/// Create a collection under the bins' policy and process it empty.
/// Returns this rank's queue bytes (slot size × capacity).
fn empty_collection(ctx: &scioto_sim::Ctx, armci: &Arc<Armci>, cfg: TcConfig) -> u64 {
    let cfg = cfg.with_victim(VictimPolicy::Locality).with_td_batch(true);
    let tc = TaskCollection::create(ctx, armci, cfg);
    tc.process(ctx);
    (tc.slot_bytes() * cfg.max_tasks) as u64
}

/// A trace configuration whose rings drop nothing.
pub fn lossless_trace() -> TraceConfig {
    TraceConfig::enabled().with_capacity(usize::MAX)
}

impl UtsSpec {
    /// The workload's machine.
    pub fn machine(&self) -> MachineConfig {
        let latency = if self.nearfar {
            LatencyModel::cluster_nearfar()
        } else {
            LatencyModel::cluster()
        };
        cluster_machine(self.ranks, latency)
    }

    /// The Scioto UTS driver configuration of the bins.
    pub fn scioto(&self, queue: QueueKind) -> SciotoUtsConfig {
        SciotoUtsConfig {
            queue,
            victim: Some(VictimPolicy::Locality),
            td_batch: Some(true),
            ..SciotoUtsConfig::new(self.tree)
        }
    }

    /// The collection `run_scioto_uts` creates for `queue`.
    fn tc_config(&self, queue: QueueKind) -> TcConfig {
        let c = self.scioto(queue);
        TcConfig::new(NODE_BYTES, c.chunk, c.max_tasks).with_queue(queue)
    }
}

/// The SCF/TCE point of the apps workload.
#[derive(Debug, Clone)]
pub struct AppsSpec {
    /// Rank count.
    pub ranks: usize,
    /// Hydrogen-chain length.
    pub atoms: usize,
    /// Roothaan iterations (fixed work; no convergence test).
    pub scf_iters: usize,
    /// TCE tiles per dimension.
    pub tiles: usize,
    /// TCE sparsity seeds of A and B.
    pub tce_seeds: (u64, u64),
}

/// SCF energies of the parallel runs must match the sequential reference
/// to this many hartree.
pub const SCF_TOL: f64 = 1e-8;
/// TCE checksums must match the dense reference to this relative error.
pub const TCE_REL_TOL: f64 = 1e-9;

impl AppsSpec {
    /// The machine (flat cluster latency, like the fig 5/6 bin).
    pub fn machine(&self) -> MachineConfig {
        cluster_machine(self.ranks, LatencyModel::cluster())
    }

    /// The basis set.
    pub fn basis(&self) -> BasisSet {
        BasisSet::even_tempered(Molecule::h_chain(self.atoms), 2, 0.4, 3.5)
    }

    /// The SCF iteration parameters: fixed work, no convergence test.
    pub fn scf_config(&self) -> ScfConfig {
        ScfConfig {
            max_iters: self.scf_iters,
            tol: 0.0,
            ..ScfConfig::default()
        }
    }

    /// The parallel SCF configuration of the bin.
    pub fn scf(&self, lb: LoadBalance) -> ParallelScfConfig {
        ParallelScfConfig {
            scf: self.scf_config(),
            lb,
            block: 4,
            chunk: 4,
            victim: Some(VictimPolicy::Locality),
            td_batch: Some(true),
        }
    }

    /// The TCE contraction configuration of the bin.
    pub fn tce(&self, lb: TceLoadBalance) -> ContractionConfig {
        ContractionConfig {
            nbr: self.tiles,
            nbk: self.tiles,
            nbc: self.tiles,
            bs: 16,
            pattern_a: SparsityPattern::standard(self.tce_seeds.0),
            pattern_b: SparsityPattern::standard(self.tce_seeds.1),
            lb,
            chunk: 2,
            iterations: 1,
            victim: Some(VictimPolicy::Locality),
            td_batch: Some(true),
        }
    }
}

/// Sequential ground truths, computed once per benchmark run.
#[derive(Debug, Clone, Copy, Default)]
pub struct Reference {
    /// `count_tree` of the workload's tree.
    pub tree: TreeStats,
    /// `count_tree` of the traced iteration's tree (uts_deep traces a
    /// smaller tree; see [`Bench::traced_spec`]).
    pub traced_tree: TreeStats,
    /// `scf_sequential` energy.
    pub scf_energy: f64,
    /// `reference_checksum` of the TCE contraction.
    pub tce_checksum: f64,
}

/// One benchmark run of one workload: its inputs, spans and checks.
pub struct Bench {
    /// The workload.
    pub workload: Workload,
    /// Generated inputs.
    pub inputs: Inputs,
    /// The benchmark's own spans.
    pub spans: Spans,
    /// Output checks so far.
    pub checks: Checks,
    /// Ground truths.
    pub reference: Reference,
    /// Host times of the reference computations (per-layer metrics).
    pub reference_host: Values,
}

fn mnodes(nodes: u64, ns: u64) -> f64 {
    nodes as f64 / (ns as f64 / 1e9) / 1e6
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Kernel counters of one machine run into `exact`, its host time into
/// `host`.
fn record_sim(it: &mut Iteration, run: &str, report: &Report, secs: f64) {
    it.host.insert(format!("sim.run_s.{run}"), secs);
    let ev = report.events;
    it.exact
        .insert(format!("sim.yields.{run}"), ev.yields as f64);
    it.exact
        .insert(format!("sim.blocks.{run}"), ev.blocks as f64);
    it.exact
        .insert(format!("sim.messages.{run}"), ev.messages as f64);
}

/// Merged task-collection statistics of one run into `exact`.
fn record_core(it: &mut Iteration, run: &str, summary: &StatsSummary) {
    let t = &summary.totals;
    let ranks = summary.ranks.max(1) as f64;
    let fields = [
        ("tasks_executed", t.tasks_executed as f64),
        ("steals_attempted", t.steals_attempted as f64),
        ("steals_succeeded", t.steals_succeeded as f64),
        ("steal_success", t.steal_efficiency()),
        ("tasks_stolen", t.tasks_stolen as f64),
        ("td_waves_max", summary.td_waves_max as f64),
        ("dirty_marks_sent", t.dirty_marks_sent as f64),
        ("dirty_marks_elided", t.dirty_marks_elided as f64),
        ("splits_released", t.splits_released as f64),
        ("splits_reclaimed", t.splits_reclaimed as f64),
        ("startup_rank_ms", t.startup_ns as f64 / ranks / 1e6),
    ];
    for (k, v) in fields {
        it.exact.insert(format!("core.{k}.{run}"), v);
    }
}

fn same_tree(a: &TreeStats, b: &TreeStats) -> bool {
    a.nodes == b.nodes && a.leaves == b.leaves && a.max_depth == b.max_depth
}

/// Host ns per kernel event over all machine runs of an iteration.
fn ns_per_event(it: &mut Iteration) {
    let secs: f64 = it
        .host
        .iter()
        .filter(|(k, _)| k.starts_with("sim.run_s."))
        .map(|(_, v)| v)
        .sum();
    let events: f64 = it
        .exact
        .iter()
        .filter(|(k, _)| {
            k.starts_with("sim.yields.")
                || k.starts_with("sim.blocks.")
                || k.starts_with("sim.messages.")
        })
        .map(|(_, v)| v)
        .sum();
    if events > 0.0 {
        it.host
            .insert("sim.ns_per_event".into(), secs * 1e9 / events);
    }
}

impl Bench {
    /// Generate the inputs and compute the sequential references.
    pub fn new(workload: Workload, inputs: Inputs) -> Bench {
        let mut b = Bench {
            workload,
            inputs,
            spans: Spans::new(),
            checks: Checks::default(),
            reference: Reference::default(),
            reference_host: Values::new(),
        };
        b.compute_references();
        b
    }

    /// The UTS configuration of a UTS or obs workload.
    pub fn uts_spec(&self) -> Option<UtsSpec> {
        let i = &self.inputs;
        match self.workload {
            Workload::UtsDeep => Some(UtsSpec {
                ranks: 8,
                tree: i.large_tree,
                nearfar: false,
            }),
            Workload::UtsWide => Some(UtsSpec {
                ranks: 1024,
                tree: i.small_tree,
                nearfar: true,
            }),
            Workload::Obs => Some(UtsSpec {
                ranks: 64,
                tree: i.small_tree,
                nearfar: false,
            }),
            Workload::Apps => None,
        }
    }

    /// The configuration of the apps workload.
    pub fn apps_spec(&self) -> AppsSpec {
        AppsSpec {
            ranks: 32,
            atoms: 16,
            scf_iters: 8,
            tiles: 48,
            tce_seeds: self.inputs.tce_seeds,
        }
    }

    /// The UTS machine the traced iteration records. uts_deep traces its
    /// 8-rank machine on the ~56k-node tree: the ~1.5M-node tree would
    /// record some 40M events.
    pub fn traced_spec(&self) -> Option<UtsSpec> {
        let mut spec = self.uts_spec()?;
        if self.workload == Workload::UtsDeep {
            spec.tree = self.inputs.small_tree;
        }
        Some(spec)
    }

    fn compute_references(&mut self) {
        if let Some(spec) = self.uts_spec() {
            let tree = spec.tree;
            let (stats, secs) = self
                .spans
                .time("uts.count_tree", |_| sequential::count_tree(&tree));
            self.reference.tree = stats;
            self.reference_host.insert("uts.seq_s".into(), secs);
            self.reference_host
                .insert("uts.ns_per_node".into(), secs * 1e9 / stats.nodes as f64);
            let traced = self
                .traced_spec()
                .expect("UTS workloads trace a UTS machine")
                .tree;
            self.reference.traced_tree = if traced == tree {
                stats
            } else {
                sequential::count_tree(&traced)
            };
        }
        if self.workload == Workload::Apps {
            let spec = self.apps_spec();
            let basis = spec.basis();
            let scf = spec.scf_config();
            let (r, secs) = self.spans.time("scf.scf_sequential", |_| {
                scioto_scf::scf_sequential(&basis, &scf)
            });
            self.reference.scf_energy = r.energy;
            self.reference_host.insert("scf.seq_s".into(), secs);
            let cfg = spec.tce(TceLoadBalance::Scioto);
            let (out, secs) = self.spans.time("tce.reference_checksum", |_| {
                Machine::run(cluster_machine(1, LatencyModel::cluster()), move |ctx| {
                    scioto_tce::contract::reference_checksum(ctx, &cfg)
                })
            });
            self.reference.tce_checksum = out.results[0];
            self.reference_host.insert("tce.ref_s".into(), secs);
        }
    }

    /// One untraced iteration of the workload.
    pub fn iteration(&mut self) -> Iteration {
        let mut it = Iteration::default();
        let mut replay = None;
        let ((), secs) = match self.workload {
            Workload::UtsDeep | Workload::UtsWide => {
                let spec = self.uts_spec().expect("UTS workload");
                self.spans.time("iteration", |sp| {
                    let mut me = Sub {
                        spans: sp,
                        checks: &mut self.checks,
                    };
                    let expect = &self.reference.tree;
                    me.uts_scioto(&mut it, spec, spec.machine(), QueueKind::Split, expect);
                    me.uts_mpi(&mut it, spec, expect);
                    me.uts_scioto(&mut it, spec, spec.machine(), QueueKind::Locked, expect);
                })
            }
            Workload::Apps => {
                let spec = self.apps_spec();
                let reference = self.reference;
                self.spans.time("iteration", |sp| {
                    let mut me = Sub {
                        spans: sp,
                        checks: &mut self.checks,
                    };
                    me.scf(&mut it, &spec, LoadBalance::Scioto, reference.scf_energy);
                    me.scf(
                        &mut it,
                        &spec,
                        LoadBalance::GlobalCounter,
                        reference.scf_energy,
                    );
                    me.tce(
                        &mut it,
                        &spec,
                        TceLoadBalance::Scioto,
                        reference.tce_checksum,
                    );
                    me.tce(
                        &mut it,
                        &spec,
                        TceLoadBalance::GlobalCounter,
                        reference.tce_checksum,
                    );
                })
            }
            Workload::Obs => {
                let spec = self.uts_spec().expect("obs runs UTS");
                let reference = self.reference.tree;
                self.spans.time("iteration", |sp| {
                    let mut me = Sub {
                        spans: sp,
                        checks: &mut self.checks,
                    };
                    replay = me.pipeline(&mut it, spec, &reference);
                })
            }
        };
        it.host_s = secs;
        it.peak_rss_mb = report::peak_rss_mb();
        // The replay check re-exports and re-analyzes the trace. That is the
        // benchmark's work, so it stays out of `host_s` and `peak_rss_mb`.
        if let Some(replay) = replay {
            replay.check(&mut self.checks);
        }
        ns_per_event(&mut it);
        it
    }

    /// Stand up every machine and collection of one iteration, process
    /// nothing, and tear down.
    pub fn setup_round(&mut self) -> Setup {
        let mut queue_bytes = 0u64;
        let workload = self.workload;
        let apps = self.apps_spec();
        let uts = self.uts_spec();
        let ((), host_s) = self.spans.time("setup", |sp| match workload {
            Workload::Apps => {
                let spec = apps;
                let n = spec.basis().len();
                // Both SCF schemes create the same arrays, counter and
                // collection.
                for run in ["scf", "scf_counter"] {
                    let (out, _) = sp.time(&format!("setup.{run}"), |_| {
                        Machine::run(spec.machine(), move |ctx| {
                            let ga = Ga::init(ctx);
                            ga.create(ctx, "density", n, n);
                            ga.create(ctx, "gmatrix", n, n);
                            ga.create_counter(ctx, 0);
                            empty_collection(ctx, ga.armci(), TcConfig::new(16, 4, 1 << 14))
                        })
                    });
                    queue_bytes = out.results.iter().sum();
                }
                for (run, scioto) in [("tce", true), ("tce_counter", false)] {
                    let cfg = spec.tce(TceLoadBalance::Scioto);
                    sp.time(&format!("setup.{run}"), |_| {
                        Machine::run(spec.machine(), move |ctx| {
                            let ga = Ga::init(ctx);
                            let (t, k) = (cfg.nbr, cfg.nbk);
                            BlockSparse::create(ctx, &ga, "A", t, k, cfg.bs, &cfg.pattern_a);
                            BlockSparse::create(ctx, &ga, "B", k, t, cfg.bs, &cfg.pattern_b);
                            BlockSparse::create_dense_zero(ctx, &ga, "C", t, t, cfg.bs);
                            if scioto {
                                let tc_cfg = TcConfig::new(8, cfg.chunk, 1 << 14);
                                empty_collection(ctx, ga.armci(), tc_cfg);
                            } else {
                                ga.create_counter(ctx, 0);
                            }
                        })
                    });
                }
            }
            _ => {
                let spec = uts.expect("UTS workload");
                let traced = workload == Workload::Obs;
                let runs: &[(&str, Option<QueueKind>)] = if traced {
                    &[("split", Some(QueueKind::Split))]
                } else {
                    &[
                        ("split", Some(QueueKind::Split)),
                        ("mpi_ws", None),
                        ("nosplit", Some(QueueKind::Locked)),
                    ]
                };
                for &(run, queue) in runs {
                    let mut machine = spec.machine();
                    if traced {
                        machine = machine.with_trace(lossless_trace());
                    }
                    let (out, _) = sp.time(&format!("setup.{run}"), |_| {
                        Machine::run(machine, move |ctx| match queue {
                            None => {
                                Comm::world(ctx);
                                0
                            }
                            Some(q) => empty_collection(ctx, &Armci::init(ctx), spec.tc_config(q)),
                        })
                    });
                    if run == "split" {
                        queue_bytes = out.results.iter().sum();
                    }
                }
            }
        });
        Setup {
            host_s,
            queue_bytes,
        }
    }

    /// The traced iteration: the workload's headline Scioto machine once
    /// untraced and once with a lossless trace, and the trace analyzed.
    /// Returns trace-layer and blame metrics. The JSONL export is timed by
    /// the obs iterations only: at 1024 ranks the trace holds some 27M
    /// events, 2.6 GB of JSONL.
    pub fn traced_iteration(&mut self) -> Values {
        let mut v = Values::new();
        let (untraced, traced, secs_plain, secs_traced) = match self.traced_spec() {
            Some(spec) => {
                let expect = self.reference.traced_tree;
                let cfg = spec.scioto(QueueKind::Split);
                let run = |sp: &mut Spans, name: &str, machine: MachineConfig| {
                    sp.time(name, |_| {
                        Machine::run(machine, move |ctx| run_scioto_uts(ctx, &cfg).0)
                    })
                };
                let (plain, s0) = run(&mut self.spans, "traced.sim.run.split", spec.machine());
                let (rec, s1) = run(
                    &mut self.spans,
                    "traced.sim.run.split.traced",
                    spec.machine().with_trace(lossless_trace()),
                );
                for out in [&plain, &rec] {
                    let mut total = TreeStats::default();
                    out.results.iter().for_each(|s| total.merge(s));
                    self.checks.check(same_tree(&total, &expect), || {
                        format!("traced-iteration UTS count {total:?} != sequential {expect:?}")
                    });
                }
                (plain.report, rec.report, s0, s1)
            }
            None => {
                let spec = self.apps_spec();
                let basis = spec.basis();
                let cfg = spec.scf(LoadBalance::Scioto);
                let run = |sp: &mut Spans, name: &str, machine: MachineConfig| {
                    let basis = basis.clone();
                    sp.time(name, |_| {
                        Machine::run(machine, move |ctx| {
                            run_scf_parallel(ctx, &basis, &cfg).energy
                        })
                    })
                };
                let (plain, s0) = run(&mut self.spans, "traced.sim.run.scf", spec.machine());
                let (rec, s1) = run(
                    &mut self.spans,
                    "traced.sim.run.scf.traced",
                    spec.machine().with_trace(lossless_trace()),
                );
                let e = self.reference.scf_energy;
                for out in [&plain, &rec] {
                    let got = out.results[0];
                    self.checks.check((got - e).abs() <= SCF_TOL, || {
                        format!("traced-iteration SCF energy {got} vs sequential {e}")
                    });
                }
                (plain.report, rec.report, s0, s1)
            }
        };
        self.checks
            .check(untraced.makespan_ns == traced.makespan_ns, || {
                format!(
                    "tracing moved the virtual makespan: {} ns untraced, {} ns traced",
                    untraced.makespan_ns, traced.makespan_ns
                )
            });
        let trace = traced.trace.expect("traced machine returns a trace");
        let dropped: u64 = trace.dropped.iter().sum();
        self.checks.check(dropped == 0, || {
            format!("lossless trace dropped {dropped} events")
        });
        let (analysis, _) = self
            .spans
            .time("analyze.analyze", |_| scioto_analyze::analyze(&trace));
        v.insert("sim.trace_events".into(), trace.total_events() as f64);
        v.insert("sim.trace_dropped".into(), dropped as f64);
        v.insert("sim.trace_overhead".into(), secs_traced / secs_plain);
        v.extend(blame(&analysis));
        v
    }
}

/// Per-category blame over all ranks, and the critical path, in virtual ms.
fn blame(analysis: &scioto_analyze::AnalysisReport) -> Values {
    let mut total = scioto_analyze::Blame::default();
    for b in &analysis.blame {
        total.merge(b);
    }
    let mut v = Values::new();
    for cat in scioto_analyze::CATEGORIES {
        v.insert(format!("blame.{}_ms", cat.name()), ms(total.get(cat)));
    }
    v.insert(
        "blame.critpath_ms".into(),
        ms(analysis.critical_path.length_ns),
    );
    v
}

/// The obs pipeline's live recording and its replay.
struct Replay {
    jsonl: String,
    analysis: scioto_analyze::AnalysisReport,
    replayed: Trace,
}

impl Replay {
    /// The replayed trace and its analysis must be byte-identical to the
    /// live ones.
    fn check(self, checks: &mut Checks) {
        checks.check(self.replayed.to_jsonl() == self.jsonl, || {
            "replayed trace differs from the live recording".to_string()
        });
        let again = scioto_analyze::analyze(&self.replayed).to_json();
        checks.check(again == self.analysis.to_json(), || {
            "replayed analysis differs from the live analysis".to_string()
        });
    }
}

/// The spans and checks of a [`Bench`], borrowed for one iteration.
struct Sub<'a> {
    spans: &'a mut Spans,
    checks: &'a mut Checks,
}

impl Sub<'_> {
    /// One Scioto UTS run on `machine`; returns its report.
    fn uts_scioto(
        &mut self,
        it: &mut Iteration,
        spec: UtsSpec,
        machine: MachineConfig,
        queue: QueueKind,
        expect: &TreeStats,
    ) -> Report {
        let run = match queue {
            QueueKind::Split => "split",
            QueueKind::Locked => "nosplit",
        };
        let cfg = spec.scioto(queue);
        let (out, secs) = self.spans.time(&format!("sim.run.{run}"), |_| {
            Machine::run(machine, move |ctx| run_scioto_uts(ctx, &cfg))
        });
        let mut total = TreeStats::default();
        let mut stats = Vec::with_capacity(out.results.len());
        for (tree, ps) in &out.results {
            total.merge(tree);
            stats.push(*ps);
        }
        self.checks.check(same_tree(&total, expect), || {
            format!("{run} UTS count {total:?} != sequential {expect:?}")
        });
        let ns = out.report.makespan_ns;
        it.exact
            .insert(format!("vt_{run}_mnodes"), mnodes(total.nodes, ns));
        if queue == QueueKind::Split {
            it.exact
                .insert("sim.imbalance".into(), out.report.imbalance());
        }
        record_sim(it, run, &out.report, secs);
        record_core(it, run, &StatsSummary::from_ranks(&stats));
        out.report
    }

    fn uts_mpi(&mut self, it: &mut Iteration, spec: UtsSpec, expect: &TreeStats) {
        let cfg = MpiUtsConfig::new(spec.tree);
        let (out, secs) = self.spans.time("sim.run.mpi_ws", |_| {
            Machine::run(spec.machine(), move |ctx| run_mpi_uts(ctx, &cfg))
        });
        let mut total = TreeStats::default();
        let (mut req, mut served, mut tokens) = (0u64, 0u64, 0u64);
        for (tree, ws) in &out.results {
            total.merge(tree);
            req += ws.steal_requests;
            served += ws.works_served;
            tokens += ws.token_passes;
        }
        self.checks.check(same_tree(&total, expect), || {
            format!("mpi_ws UTS count {total:?} != sequential {expect:?}")
        });
        let ns = out.report.makespan_ns;
        it.exact
            .insert("vt_mpi_ws_mnodes".into(), mnodes(total.nodes, ns));
        it.exact.insert("mpi.steal_requests".into(), req as f64);
        it.exact.insert("mpi.works_served".into(), served as f64);
        it.exact.insert("mpi.token_passes".into(), tokens as f64);
        record_sim(it, "mpi_ws", &out.report, secs);
    }

    fn scf(&mut self, it: &mut Iteration, spec: &AppsSpec, lb: LoadBalance, expect: f64) {
        let run = match lb {
            LoadBalance::Scioto => "scf",
            LoadBalance::GlobalCounter => "scf_counter",
        };
        let basis = Arc::new(spec.basis());
        let cfg = spec.scf(lb);
        let (out, secs) = self.spans.time(&format!("sim.run.{run}"), |_| {
            Machine::run(spec.machine(), move |ctx| {
                run_scf_parallel(ctx, &basis, &cfg).energy
            })
        });
        let worst = out
            .results
            .iter()
            .map(|e| (e - expect).abs())
            .fold(0.0f64, f64::max);
        self.checks.check(worst <= SCF_TOL, || {
            format!("{run} energy is {worst:e} hartree from scf_sequential (tolerance {SCF_TOL:e})")
        });
        it.exact
            .insert(format!("vt_{run}_ms"), ms(out.report.makespan_ns));
        if lb == LoadBalance::Scioto {
            it.exact
                .insert("sim.imbalance".into(), out.report.imbalance());
        }
        record_sim(it, run, &out.report, secs);
    }

    fn tce(&mut self, it: &mut Iteration, spec: &AppsSpec, lb: TceLoadBalance, expect: f64) {
        let run = match lb {
            TceLoadBalance::Scioto => "tce",
            TceLoadBalance::GlobalCounter => "tce_counter",
        };
        let cfg = spec.tce(lb);
        let (out, secs) = self.spans.time(&format!("sim.run.{run}"), |_| {
            Machine::run(spec.machine(), move |ctx| run_contraction(ctx, &cfg))
        });
        let worst = out
            .results
            .iter()
            .map(|(_, c)| (c - expect).abs() / expect.abs().max(1.0))
            .fold(0.0f64, f64::max);
        self.checks.check(worst <= TCE_REL_TOL, || {
            format!("{run} checksum off reference_checksum by {worst:e} (relative)")
        });
        // Contraction-phase makespan: the slowest rank's span.
        let contract_ns = out
            .results
            .iter()
            .map(|(r, _)| r.contract_ns)
            .max()
            .unwrap_or(0);
        it.exact.insert(format!("vt_{run}_ms"), ms(contract_ns));
        record_sim(it, run, &out.report, secs);
    }

    /// Record a traced run, export and re-parse it, run every analysis on
    /// the re-parsed trace, and replay it. Returns what the replay check
    /// needs, or `None` after a failed step.
    fn pipeline(
        &mut self,
        it: &mut Iteration,
        spec: UtsSpec,
        expect: &TreeStats,
    ) -> Option<Replay> {
        let machine = spec.machine().with_trace(lossless_trace());
        let report = self.uts_scioto(it, spec, machine, QueueKind::Split, expect);
        let trace = report
            .trace
            .as_ref()
            .expect("traced machine returns a trace");
        let dropped: u64 = trace.dropped.iter().sum();
        self.checks.check(dropped == 0, || {
            format!("lossless trace dropped {dropped} events")
        });
        let (jsonl, s) = self.spans.time("sim.to_jsonl", |_| trace.to_jsonl());
        it.host.insert("sim.export_s".into(), s);
        it.exact.insert("trace_mb".into(), jsonl.len() as f64 / 1e6);
        it.exact
            .insert("sim.trace_events".into(), trace.total_events() as f64);
        it.exact.insert("sim.trace_dropped".into(), dropped as f64);

        let (parsed, s) = self
            .spans
            .time("analyze.parse", |_| scioto_analyze::jsonl::parse(&jsonl));
        it.host.insert("analyze.parse_s".into(), s);
        let parsed: Trace = match parsed {
            Ok(t) => t,
            Err(e) => {
                self.checks
                    .check(false, || format!("re-parsing the JSONL export: {e}"));
                return None;
            }
        };
        let (analysis, s) = self
            .spans
            .time("analyze.analyze", |_| scioto_analyze::analyze(&parsed));
        it.host.insert("analyze.analyze_s".into(), s);
        it.exact.extend(blame(&analysis));

        let (hb, s) = self
            .spans
            .time("race.check_trace", |_| scioto_race::check_trace(&parsed));
        it.host.insert("race.hb_s".into(), s);
        self.checks
            .check(hb.as_ref().is_ok_and(|r| r.is_clean()), || {
                format!("happens-before check not clean: {hb:?}")
            });
        let (pr, s) = self
            .spans
            .time("race.predict", |_| scioto_race::predict(&parsed));
        it.host.insert("race.predict_s".into(), s);
        self.checks
            .check(pr.as_ref().is_ok_and(|r| r.is_clean()), || {
                format!("predictive race check not clean: {pr:?}")
            });
        let (dl, s) = self.spans.time("race.check_deadlocks", |_| {
            scioto_race::check_deadlocks(&parsed)
        });
        it.host.insert("race.deadlock_s".into(), s);
        self.checks
            .check(dl.as_ref().is_ok_and(|r| r.is_clean()), || {
                format!("deadlock check not clean: {dl:?}")
            });

        let (prog, s) = self
            .spans
            .time("analyze.lower", |_| scioto_analyze::lower(&parsed));
        it.host.insert("analyze.lower_s".into(), s);
        let prog = match prog {
            Ok(p) => p,
            Err(e) => {
                self.checks
                    .check(false, || format!("lowering the trace for replay: {e}"));
                return None;
            }
        };
        let (replayed, s) = self
            .spans
            .time("sim.run_replay", |_| scioto_sim::run_replay(&prog));
        it.host.insert("sim.replay_s".into(), s);
        Some(Replay {
            jsonl,
            analysis,
            replayed,
        })
    }
}
