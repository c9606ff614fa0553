//! The seed tables hold what they claim, and the catalog in the code is
//! the one `BENCHMARK.json` lists.

use scioto_perfbench::inputs::{Inputs, LARGE_NODES, LARGE_TREE_SEEDS};
use scioto_perfbench::report::{end_to_end, per_layer};
use scioto_perfbench::workloads::WORKLOADS;
use scioto_uts::sequential::{count_tree, count_tree_bounded};
use scioto_uts::{presets, TreeParams};

#[test]
fn large_tree_table_is_within_two_percent_of_the_preset() {
    assert_eq!(count_tree(&presets::large()).nodes, LARGE_NODES);
    let hi = LARGE_NODES + LARGE_NODES / 50;
    for &seed in &LARGE_TREE_SEEDS {
        let params = TreeParams {
            seed,
            ..presets::large()
        };
        let (s, done) = count_tree_bounded(&params, hi + 1);
        assert!(done, "seed {seed}: more than {hi} nodes");
        let ratio = s.nodes as f64 / LARGE_NODES as f64;
        assert!(
            (ratio - 1.0).abs() <= 0.02,
            "seed {seed}: {} nodes",
            s.nodes
        );
    }
}

#[test]
fn seeds_are_deterministic_and_default_to_presets() {
    assert_eq!(Inputs::from_seed(None), Inputs::presets());
    for s in [0, 1, 2, 99, u64::MAX] {
        let i = Inputs::from_seed(Some(s));
        assert_eq!(i, Inputs::from_seed(Some(s)));
        assert_eq!(i.small_tree, presets::small());
    }
    let distinct: std::collections::BTreeSet<u32> = (0..64)
        .map(|s| Inputs::from_seed(Some(s)).large_tree.seed)
        .collect();
    assert!(
        distinct.len() > 8,
        "seeds barely vary the tree: {distinct:?}"
    );
}

#[test]
fn benchmark_json_lists_the_catalog() {
    let path = format!("{}/../BENCHMARK.json", env!("CARGO_MANIFEST_DIR"));
    let body = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {path}: {e}"));
    let squash: String = body.split_whitespace().collect();
    let e2e = end_to_end();
    let pl = per_layer();
    for m in e2e.iter().chain(&pl) {
        let entry = format!(
            "{{\"name\":\"{}\",\"unit\":\"{}\",\"better\":\"{}\"",
            m.name, m.unit, m.better
        );
        assert!(squash.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for w in WORKLOADS {
        assert!(squash.contains(&format!("{{\"name\":\"{}\",\"why\":", w.name())));
    }
    let names = squash.matches("{\"name\":").count();
    assert_eq!(
        names,
        e2e.len() + pl.len() + WORKLOADS.len(),
        "extra entries"
    );
}
