//! Set-up memory at scale. Kept in its own test binary so the process's
//! resident high-water mark (VmHWM) measures this test alone.
//!
//! Each rank's queue patch at the UTS default `max_tasks = 1 << 17` is
//! ~5.2 MiB and each fiber stack 1 MiB, ~26 GB in all at 4096 ranks. That
//! memory is committed page by page as it is written, so standing the
//! machine up and running an empty phase must stay far below it, also
//! when earlier machines in the same process have freed theirs (heap
//! buffers the allocator hands out again must be zeroed in full, which
//! is what took the fig7 1024-rank point to 6.45 GB).
#![cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]

use std::sync::Arc;

use scioto::{TaskCollection, TcConfig};
use scioto_armci::Armci;
use scioto_sim::{Engine, Machine, MachineConfig};

/// This process's resident high-water mark in bytes.
fn vm_hwm_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("reading /proc/self/status");
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .expect("VmHWM line");
    let kib: u64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .expect("VmHWM value in kB");
    kib * 1024
}

/// Stand up `ranks` ranks with a UTS-shaped task collection and run an
/// empty phase on the event engine.
fn empty_setup(ranks: usize) {
    // The UTS driver's queue shape: 24-byte node bodies, chunk 10.
    let cfg = TcConfig::new(24, 10, 1 << 17);
    let out = Machine::run(
        MachineConfig::virtual_time(ranks).with_engine(Engine::Events),
        move |ctx| {
            let armci = Armci::init(ctx);
            let tc = TaskCollection::create(ctx, &armci, cfg);
            let _h = tc.register(ctx, Arc::new(|_| {}));
            tc.process(ctx).tasks_executed
        },
    );
    assert_eq!(out.results.iter().sum::<u64>(), 0);
}

#[test]
fn setup_at_4096_ranks_stays_under_1_gb() {
    // Three back-to-back 256-rank set-ups first: with heap-backed slots
    // and stacks the third reuses freed memory and zeroes ~1.6 GB of it,
    // so this check fails there before the 4096-rank round could need
    // ~26 GB.
    for _ in 0..3 {
        empty_setup(256);
    }
    let hwm = vm_hwm_bytes();
    assert!(
        hwm < 256 << 20,
        "repeated 256-rank set-up peaked at {} MB resident (budget 256 MB)",
        hwm >> 20
    );
    empty_setup(4096);
    let hwm = vm_hwm_bytes();
    assert!(
        hwm < 1 << 30,
        "4096-rank set-up peaked at {} MB resident (budget 1 GB)",
        hwm >> 20
    );
}
