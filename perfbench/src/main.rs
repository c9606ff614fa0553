//! `scioto-perfbench --workload NAME [--seed N] [--seconds N] [--trace 0|1]`
//!
//! Runs set-up rounds and timed iterations of one workload back to back in
//! this process for `--seconds`, checks every output, and prints one JSON
//! line per iteration followed by the result line. With `--trace 1` it
//! also runs the traced iteration, prints the per-layer metrics instead of
//! the end-to-end ones, and writes the benchmark's spans as JSONL.

use std::time::Instant;

use scioto_perfbench::cli;
use scioto_perfbench::inputs::Inputs;
use scioto_perfbench::report::{self, median};
use scioto_perfbench::workloads::{Bench, Setup, Values};

/// Timed iterations per run at least, however long they take; `host_s`
/// is their median.
const MIN_ITERS: usize = 2;
/// Set-up rounds per run at least; `setup_s` is their median.
const MIN_SETUPS: usize = 3;
/// Cheap set-ups repeat until their total reaches this many seconds (or
/// [`MAX_SETUPS`] rounds), so the median of a millisecond set-up is steady.
/// The extra rounds run after the iterations: a time-dependent number of
/// rounds before them would make the allocator's history, and with it the
/// resident high-water mark, differ from run to run.
const SETUP_SECONDS: f64 = 1.0;
/// Upper bound on set-up rounds per run.
const MAX_SETUPS: usize = 200;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match cli::parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n{}", cli::USAGE);
            std::process::exit(2);
        }
    };
    let name = opts.workload.name();
    let mut bench = Bench::new(opts.workload, Inputs::from_seed(opts.seed));
    eprintln!("{name}: inputs {:?}", bench.inputs);

    let start = Instant::now();
    let mut iters = Vec::new();
    let mut setups = Vec::new();
    // `peak_rss_mb` is the median of the iterations' peaks (each with its
    // set-up round): single `obs` iterations have peaked ~100 MB above the
    // others, so the median is steadier than the process's peak.
    let mut per_iteration_peaks = true;
    loop {
        bench.spans.set_iteration(iters.len() as u32);
        per_iteration_peaks &= report::reset_peak_rss();
        let setup = bench.setup_round();
        let it = bench.iteration();
        println!(
            "{{\"iteration\": {}, \"host_s\": {:?}, \"setup_s\": {:?}, \"peak_rss_mb\": {:?}}}",
            iters.len(),
            it.host_s,
            setup.host_s,
            it.peak_rss_mb
        );
        setups.push(setup);
        iters.push(it);
        if iters.len() >= MIN_ITERS && start.elapsed().as_secs_f64() >= opts.seconds as f64 {
            break;
        }
    }
    let setup_total = |s: &[Setup]| s.iter().map(|x| x.host_s).sum::<f64>();
    while setups.len() < MIN_SETUPS
        || (setup_total(&setups) < SETUP_SECONDS && setups.len() < MAX_SETUPS)
    {
        let setup = bench.setup_round();
        println!(
            "{{\"setup_round\": {}, \"setup_s\": {:?}}}",
            setups.len(),
            setup.host_s
        );
        setups.push(setup);
    }
    report::check_determinism(&iters, &mut bench.checks);

    let host_s = median(&iters.iter().map(|it| it.host_s).collect::<Vec<_>>());
    let setup_s = median(&setups.iter().map(|s| s.host_s).collect::<Vec<_>>());
    let line = if opts.trace {
        bench.spans.set_iteration(iters.len() as u32);
        let traced = bench.traced_iteration();
        let values = report::layer_values(&iters, &setups, &bench.reference_host, &traced);
        let path = format!("{}/out/spans_{name}.jsonl", env!("CARGO_MANIFEST_DIR"));
        write_spans(&path, &bench.spans.to_jsonl());
        report::result_line(&bench.checks, &report::per_layer(), &values)
    } else {
        let mut values = Values::new();
        values.insert("host_s".into(), host_s);
        values.insert("setup_s".into(), setup_s);
        let peak = if per_iteration_peaks {
            median(&iters.iter().map(|it| it.peak_rss_mb).collect::<Vec<_>>())
        } else {
            report::peak_rss_mb()
        };
        values.insert("peak_rss_mb".into(), peak);
        report::result_line(&bench.checks, &report::end_to_end(), &values)
    };
    for f in &bench.checks.failures {
        eprintln!("FAILED: {f}");
    }
    eprintln!(
        "{name}: {} iterations, host_s median {host_s:.4}, setup_s median {setup_s:.4}, \
         {} checks, {} failed",
        iters.len(),
        bench.checks.attempted,
        bench.checks.failed
    );
    println!("{line}");
}

fn write_spans(path: &str, body: &str) {
    if let Some(dir) = std::path::Path::new(path).parent() {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("warning: cannot create {}: {e}", dir.display());
        }
    }
    match std::fs::write(path, body) {
        Ok(()) => eprintln!("spans written to {path}"),
        Err(e) => eprintln!("warning: writing spans to {path}: {e}"),
    }
}
