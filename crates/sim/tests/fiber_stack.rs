//! Fiber stacks on the event engine: the high-water mark reported on
//! `Report`, and the guard page that turns an overflow into SIGSEGV.
//! Both need mapped stacks, which exist on Linux only.
#![cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]

use std::hint::black_box;

use scioto_sim::{Ctx, Engine, Machine, MachineConfig};

const STACK: usize = 256 * 1024;

/// Grow the stack about `bytes` below the caller's frame, then unwind.
/// Depth is decided by frame address, not by a count, so the same call
/// reaches the same depth in debug and release builds.
fn grow_stack(bytes: usize) -> u64 {
    let marker = 0u8;
    let here = black_box(&marker) as *const u8 as usize;
    descend(here.saturating_sub(bytes))
}

/// Recurse in ~1 KiB frames until a frame lies below `limit`. Not a tail
/// call (the sum is taken after the call returns), and the frame is
/// opaque to the optimizer, so every level really occupies stack.
#[inline(never)]
fn descend(limit: usize) -> u64 {
    let frame = black_box([1u8; 1024]);
    if black_box(&frame) as *const [u8; 1024] as usize <= limit {
        return frame[0] as u64;
    }
    descend(limit) + frame[7] as u64
}

/// Run 4 ranks on `STACK`-byte fibers. Every rank but 2 returns at
/// once; rank 2 first waits for them to finish, then grows its stack by
/// `bytes`. Returns the run's stack high-water mark.
fn run_with_rank2_growing(bytes: usize) -> u64 {
    let cfg = MachineConfig::virtual_time(4)
        .with_engine(Engine::Events)
        .with_stack_size(STACK);
    let out = Machine::run(cfg, move |ctx: &Ctx| {
        if ctx.rank() == 2 {
            ctx.compute(1_000);
            ctx.yield_point();
            grow_stack(bytes);
        }
    });
    out.report.stack_hwm_bytes
}

#[test]
fn stack_hwm_is_bounded_and_grows_with_recursion() {
    let shallow = run_with_rank2_growing(8 * 1024);
    let deep = run_with_rank2_growing(128 * 1024);
    assert!(shallow > 0, "a run touches at least its bootstrap page");
    assert!(
        deep <= STACK as u64,
        "hwm {deep} exceeds the {STACK}-byte stack"
    );
    assert!(
        deep >= shallow + 100 * 1024,
        "deeper recursion must report more stack: {shallow} -> {deep}"
    );
}

#[test]
fn thread_engine_reports_no_stack_hwm() {
    let out = Machine::run(
        MachineConfig::virtual_time(2).with_engine(Engine::Threads),
        |ctx| ctx.rank(),
    );
    assert_eq!(out.report.stack_hwm_bytes, 0);
}

/// Set in the re-executed child of `overflowing_rank_dies_on_its_guard_page`.
const CHILD_ENV: &str = "SCIOTO_FIBER_OVERFLOW_CHILD";

#[test]
fn overflowing_rank_dies_on_its_guard_page() {
    use std::os::unix::process::ExitStatusExt;
    use std::process::Command;

    const SIGSEGV: i32 = 11;
    const NAME: &str = "overflowing_rank_dies_on_its_guard_page";
    if std::env::var_os(CHILD_ENV).is_some() {
        // Child: rank 2 runs 32 KiB past the end of its stack. Below it
        // lies the guard page, then rank 1's stack; rank 1 has finished,
        // so without the guard the overflow would corrupt nothing live
        // and this run would complete.
        run_with_rank2_growing(STACK + 32 * 1024);
        println!("overflow went undetected");
        return;
    }
    let out = Command::new(std::env::current_exe().expect("test binary path"))
        .args([NAME, "--exact", "--nocapture", "--test-threads=1"])
        .env(CHILD_ENV, "1")
        .output()
        .expect("re-executing the test binary");
    assert_eq!(
        out.status.signal(),
        Some(SIGSEGV),
        "child must die by SIGSEGV, got {:?}; stdout:\n{}\nstderr:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}
