//! Deterministic, dependency-free primitives shared by every Scioto crate.
//!
//! The reproduction's claims are only checkable if every run is
//! bit-reproducible from a single seed (see EXPERIMENTS.md), and only
//! buildable if a clean checkout compiles with **no registry access**.
//! This crate supplies the two things the workspace previously pulled from
//! crates.io:
//!
//! * [`rng`] — a SplitMix64-seeded xoshiro256** generator with the small
//!   surface the codebase actually uses (`gen_range`, `gen_f64`,
//!   `shuffle`, per-stream derivation), replacing `rand`;
//! * [`sync`] — thin `Mutex` / `RwLock` / `Condvar` wrappers over
//!   `std::sync` with the poison-free, guard-returning API the code was
//!   written against, replacing `parking_lot`.
//!
//! Per-rank streams are derived by hashing `(seed, stream_id)` through
//! SplitMix64 ([`Rng::stream`]) so that distinct seeds can never collide
//! across ranks — unlike the earlier `seed ^ rank * CONST` XOR-mix, which
//! mapped `(seed = CONST, rank = 0)` and `(seed = 0, rank = 1)` to the
//! same state.
//!
//! A third module, [`clock`], exists for the one place determinism ends:
//! the concurrent (real-thread) execution mode needs real timestamps,
//! and [`clock::MonoClock`] is the single sanctioned wall-clock source —
//! see the `wallclock` lint in `scioto-race`.
//!
//! A fourth, [`pages`], supplies [`pages::ZeroedBytes`]: zero-filled
//! buffers that the kernel commits page by page on first touch, used for
//! the per-rank memory that grows with the rank count (ARMCI segments,
//! fiber stacks).

pub mod clock;
pub mod pages;
pub mod rng;
pub mod sync;

pub use clock::MonoClock;
pub use rng::{Rng, SplitMix64};
