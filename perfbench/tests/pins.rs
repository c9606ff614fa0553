//! Cross-checks of the benchmark's configurations against the pinned
//! figure baselines, and bit-for-bit determinism of everything the
//! benchmark treats as exact. Run with `cargo test --release`: the
//! 1024-rank pin takes about half a minute in release mode.

use scioto_perfbench::inputs::Inputs;
use scioto_perfbench::workloads::{Bench, Workload};
use scioto_uts::presets;

/// The metric `key` of a pinned `BENCH_*.json`, as it is written there.
fn pinned(file: &str, key: &str) -> String {
    let path = format!("{}/../results/baselines/{file}", env!("CARGO_MANIFEST_DIR"));
    let body = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {path}: {e}"));
    let pat = format!("\"{key}\":");
    let at = body
        .find(&pat)
        .unwrap_or_else(|| panic!("{key} not in {file}"))
        + pat.len();
    body[at..]
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '.')
        .collect()
}

fn assert_pin(bench: &mut Bench, file: &str, p: usize) {
    let it = bench.iteration();
    assert_eq!(bench.checks.failed, 0, "{:?}", bench.checks.failures);
    for run in ["split", "mpi_ws", "nosplit"] {
        let got = format!("{:.6}", it.exact[&format!("vt_{run}_mnodes")]);
        let key = format!("{run}_mnodes_p{p:03}");
        assert_eq!(got, pinned(file, &key), "{key} of {file}");
    }
}

#[test]
fn uts_wide_reproduces_the_1024_rank_nearfar_pin() {
    let mut bench = Bench::new(Workload::UtsWide, Inputs::presets());
    assert_pin(&mut bench, "BENCH_fig7_1024_nearfar.json", 1024);
}

#[test]
fn uts_deep_on_the_small_tree_reproduces_the_fig7_p008_pin() {
    let inputs = Inputs {
        large_tree: presets::small(),
        ..Inputs::presets()
    };
    let mut bench = Bench::new(Workload::UtsDeep, inputs);
    assert_pin(&mut bench, "BENCH_fig7.json", 8);
}

#[test]
fn apps_at_the_presets_reproduces_the_fig5_fig6_bin_at_32_ranks() {
    // `fig5_fig6_apps --only-ranks 32 --json-out`: scf_ns_p032,
    // scf_orig_ns_p032, tce_ns_p032, tce_orig_ns_p032. No baseline file
    // pins this point, so the values are the bin's, copied here.
    let mut bench = Bench::new(Workload::Apps, Inputs::presets());
    let it = bench.iteration();
    assert_eq!(bench.checks.failed, 0, "{:?}", bench.checks.failures);
    for (run, ns) in [
        ("scf", 85_419_069u64),
        ("scf_counter", 86_473_716),
        ("tce", 6_027_637),
        ("tce_counter", 7_249_861),
    ] {
        let key = format!("vt_{run}_ms");
        assert_eq!(it.exact[&key], ns as f64 / 1e6, "{key}");
    }
}

#[test]
fn exact_values_repeat_bit_for_bit() {
    // The apps and obs iterations, and a traced iteration, each twice.
    for workload in [Workload::Apps, Workload::Obs] {
        let mut bench = Bench::new(workload, Inputs::from_seed(Some(5)));
        let a = bench.iteration();
        let b = bench.iteration();
        assert!(!a.exact.is_empty());
        for (k, v) in &a.exact {
            assert_eq!(v.to_bits(), b.exact[k].to_bits(), "{k} of {workload:?}");
        }
        assert_eq!(bench.checks.failed, 0, "{:?}", bench.checks.failures);
    }
    let inputs = Inputs {
        large_tree: presets::small(),
        ..Inputs::from_seed(Some(5))
    };
    let mut bench = Bench::new(Workload::UtsDeep, inputs);
    let a = bench.traced_iteration();
    let b = bench.traced_iteration();
    // Everything but the host-time ratio is exact.
    for (k, v) in a.iter().filter(|(k, _)| *k != "sim.trace_overhead") {
        assert_eq!(v.to_bits(), b[k].to_bits(), "traced {k}");
    }
    assert_eq!(a["sim.trace_dropped"], 0.0);
    assert_eq!(bench.checks.failed, 0, "{:?}", bench.checks.failures);
}
