//! Workload inputs generated from the benchmark seed.
//!
//! The seed picks the root seed of the large UTS tree and the TCE
//! sparsity seeds; the program under test receives only the resulting
//! `TreeParams` and configurations. Without a seed the inputs are the
//! repository presets, which is what the pinned baselines were recorded on.
//!
//! A UTS tree's size swings over orders of magnitude with its root seed,
//! which would make host time follow the seed rather than the code. The
//! large tree's root seed is therefore drawn from a fixed table of seeds
//! whose trees lie within 2% of the preset's node count (same depth
//! cut-off, same branching factor); `tests/inputs.rs` recounts every entry.
//!
//! The small tree stays the preset whatever the seed. `uts_wide` must be
//! the pinned 1024-rank configuration, and at 64–1024 ranks over ~56k
//! nodes the run is governed by the tree's own critical path: 17 trees
//! within 2% of the preset's size spread 2.78–3.77 virtual ms for the
//! 64-rank Split run, more than the benchmark's bounds allow.

use scioto_uts::{presets, TreeParams};

/// Root seeds of `presets::large()`-shaped trees (b0 = 4, depth 12) with
/// 1,471,167–1,524,083 nodes; the preset has 1,497,557.
pub const LARGE_TREE_SEEDS: [u32; 16] = [
    1232, 1337, 1695, 3396, 3985, 4056, 5348, 5702, 5822, 6021, 6131, 6505, 7701, 9580, 9660, 10056,
];

/// Node count of `presets::large()`.
pub const LARGE_NODES: u64 = 1_497_557;

/// The generated inputs of one benchmark run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Inputs {
    /// The ~1.5M-node tree of `uts_deep`.
    pub large_tree: TreeParams,
    /// The ~56k-node tree of `uts_wide`, `obs` and the traced `uts_deep`
    /// iteration (always `presets::small()`).
    pub small_tree: TreeParams,
    /// Sparsity seeds of the TCE operands A and B.
    pub tce_seeds: (u64, u64),
}

/// SplitMix64: a seed-to-index mixer with good avalanche.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Inputs {
    /// The repository presets (the inputs of every pinned baseline).
    pub fn presets() -> Inputs {
        Inputs {
            large_tree: presets::large(),
            small_tree: presets::small(),
            tce_seeds: (11, 23),
        }
    }

    /// Inputs for `seed`; `None` gives [`Inputs::presets`].
    pub fn from_seed(seed: Option<u64>) -> Inputs {
        let Some(seed) = seed else {
            return Inputs::presets();
        };
        let pick = mix(seed ^ 1) % LARGE_TREE_SEEDS.len() as u64;
        Inputs {
            large_tree: TreeParams {
                seed: LARGE_TREE_SEEDS[pick as usize],
                ..presets::large()
            },
            small_tree: presets::small(),
            tce_seeds: (mix(seed ^ 2), mix(seed ^ 3)),
        }
    }
}
