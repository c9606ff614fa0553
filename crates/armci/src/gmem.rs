//! Remotely accessible memory segments and contiguous put/get/acc.

use std::collections::HashMap;
use std::sync::Arc;

use scioto_det::pages::ZeroedBytes;
use scioto_det::sync::Mutex;

use scioto_sim::{Ctx, RemoteOpKind, TraceEvent, VLock};

use crate::world::Armci;

/// One collectively allocated region: `bytes` bytes on *every* rank.
pub(crate) struct Segment {
    /// Per-rank backing store: one page-aligned part per rank of a single
    /// mapping that commits memory as it is written (small segments stay
    /// on the heap; see `scioto_det::pages`). The mutex serializes raw
    /// accesses (an accumulate must be atomic with respect to other
    /// accumulates, as in ARMCI); in virtual-time mode it is never
    /// contended.
    pub(crate) data: Vec<Mutex<ZeroedBytes>>,
    /// Per-word RMW service queues: the target adapter processes atomic
    /// RMWs on one location serially (`LatencyModel::rmw_service` each),
    /// so a hot word — a shared counter — has bounded throughput.
    pub(crate) hot_words: Mutex<HashMap<(usize, usize), Arc<VLock>>>,
}

impl Segment {
    pub(crate) fn hot_word(&self, rank: usize, offset: usize) -> Arc<VLock> {
        self.hot_words
            .lock()
            .entry((rank, offset))
            .or_insert_with(|| Arc::new(VLock::new()))
            .clone()
    }
}

/// Portable handle to a collectively allocated memory region.
///
/// A `Gmem` names `len()` bytes of remotely accessible memory on *each*
/// rank; locations are addressed as `(rank, byte offset)`. Handles are plain
/// `Copy` values (like ARMCI pointers exchanged at allocation time) and can
/// be stored inside task bodies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Gmem {
    pub(crate) id: usize,
    pub(crate) len: usize,
}

impl Gmem {
    /// Bytes allocated per rank.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the per-rank region is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl Armci {
    /// Collectively allocate `bytes` bytes of remotely accessible,
    /// zero-initialized memory on every rank.
    ///
    /// Barrier-free under the default coalesced startup protocol: rank 0
    /// publishes the segment through the collective log and the handle is
    /// valid the moment a rank receives it (the backing store is built
    /// before publication). Batch several allocations under one
    /// [`Ctx::collective_epoch`] to pay a single commit barrier.
    pub fn malloc(&self, ctx: &Ctx, bytes: usize) -> Gmem {
        let n = self.nranks;
        let handle = ctx.collective(|| {
            let seg = Arc::new(Segment {
                data: ZeroedBytes::parts(n, bytes)
                    .into_iter()
                    .map(Mutex::new)
                    .collect(),
                hot_words: Mutex::new(HashMap::new()),
            });
            let mut segs = self.segments.write();
            segs.push(seg);
            Gmem {
                id: segs.len() - 1,
                len: bytes,
            }
        });
        *handle
    }

    pub(crate) fn segment(&self, g: Gmem) -> Arc<Segment> {
        let segs = self.segments.read();
        segs.get(g.id)
            .unwrap_or_else(|| panic!("invalid Gmem handle {}", g.id))
            .clone()
    }

    fn check_bounds(&self, g: Gmem, rank: usize, offset: usize, len: usize) {
        assert!(
            rank < self.nranks,
            "rank {rank} out of range (nranks = {})",
            self.nranks
        );
        assert!(
            offset.checked_add(len).is_some_and(|end| end <= g.len),
            "access [{offset}, {offset}+{len}) out of bounds for segment of {} bytes",
            g.len
        );
    }

    /// Cost of a one-sided data transfer of `len` bytes to/from `target`.
    pub(crate) fn xfer_cost(&self, ctx: &Ctx, target: usize, len: usize) -> u64 {
        if target == ctx.rank() {
            ctx.latency().local_get + (ctx.latency().per_byte * len as f64 * 0.125) as u64
        } else {
            ctx.latency().xfer_to(ctx.rank(), target, self.nranks, len)
        }
    }

    /// One-sided contiguous put: copy `src` into `(rank, offset)`.
    pub fn put(&self, ctx: &Ctx, g: Gmem, rank: usize, offset: usize, src: &[u8]) {
        self.put_impl(ctx, g, rank, offset, src, false);
    }

    /// A put the split-queue protocol declares *atomic*: same cost and
    /// semantics as [`Armci::put`], but the trace marks the written words
    /// as protocol-atomic so the race checker pairs them with the
    /// target's own lock-free index publishes instead of flagging them.
    pub fn put_atomic(&self, ctx: &Ctx, g: Gmem, rank: usize, offset: usize, src: &[u8]) {
        self.put_impl(ctx, g, rank, offset, src, true);
    }

    fn put_impl(&self, ctx: &Ctx, g: Gmem, rank: usize, offset: usize, src: &[u8], atomic: bool) {
        self.check_bounds(g, rank, offset, src.len());
        ctx.yield_point();
        ctx.trace(|| TraceEvent::RemoteOp {
            kind: RemoteOpKind::Put,
            target: rank as u32,
            seg: g.id as u32,
            offset: offset as u64,
            bytes: src.len() as u32,
            atomic,
        });
        let seg = self.segment(g);
        seg.data[rank].lock()[offset..offset + src.len()].copy_from_slice(src);
        ctx.charge_net(self.xfer_cost(ctx, rank, src.len()));
    }

    /// One-sided contiguous get: copy `(rank, offset)` into `dst`.
    pub fn get(&self, ctx: &Ctx, g: Gmem, rank: usize, offset: usize, dst: &mut [u8]) {
        self.get_impl(ctx, g, rank, offset, dst, false);
    }

    /// A get the split-queue protocol declares *atomic* (see
    /// [`Armci::put_atomic`]): reads words that a lock-free writer may be
    /// publishing concurrently, which the protocol tolerates by design.
    pub fn get_atomic(&self, ctx: &Ctx, g: Gmem, rank: usize, offset: usize, dst: &mut [u8]) {
        self.get_impl(ctx, g, rank, offset, dst, true);
    }

    fn get_impl(&self, ctx: &Ctx, g: Gmem, rank: usize, offset: usize, dst: &mut [u8], atomic: bool) {
        self.check_bounds(g, rank, offset, dst.len());
        ctx.yield_point();
        ctx.trace(|| TraceEvent::RemoteOp {
            kind: RemoteOpKind::Get,
            target: rank as u32,
            seg: g.id as u32,
            offset: offset as u64,
            bytes: dst.len() as u32,
            atomic,
        });
        let seg = self.segment(g);
        dst.copy_from_slice(&seg.data[rank].lock()[offset..offset + dst.len()]);
        ctx.charge_net(self.xfer_cost(ctx, rank, dst.len()));
    }

    /// Atomic accumulate of f64 values: `dest[i] += scale * src[i]`.
    /// `offset` is in bytes and must be 8-byte aligned.
    pub fn acc_f64(
        &self,
        ctx: &Ctx,
        g: Gmem,
        rank: usize,
        offset: usize,
        scale: f64,
        src: &[f64],
    ) {
        let len = src.len() * 8;
        self.check_bounds(g, rank, offset, len);
        assert_eq!(offset % 8, 0, "acc_f64 offset must be 8-byte aligned");
        ctx.yield_point();
        ctx.trace(|| TraceEvent::RemoteOp {
            kind: RemoteOpKind::Acc,
            target: rank as u32,
            seg: g.id as u32,
            offset: offset as u64,
            bytes: len as u32,
            atomic: true,
        });
        let seg = self.segment(g);
        let mut data = seg.data[rank].lock();
        for (i, v) in src.iter().enumerate() {
            let o = offset + i * 8;
            let cur = f64::from_le_bytes(data[o..o + 8].try_into().expect("8 bytes"));
            data[o..o + 8].copy_from_slice(&(cur + scale * v).to_le_bytes());
        }
        drop(data);
        ctx.charge_net(self.xfer_cost(ctx, rank, len));
    }

    /// Atomic accumulate of i64 values: `dest[i] += scale * src[i]`.
    pub fn acc_i64(
        &self,
        ctx: &Ctx,
        g: Gmem,
        rank: usize,
        offset: usize,
        scale: i64,
        src: &[i64],
    ) {
        let len = src.len() * 8;
        self.check_bounds(g, rank, offset, len);
        assert_eq!(offset % 8, 0, "acc_i64 offset must be 8-byte aligned");
        ctx.yield_point();
        ctx.trace(|| TraceEvent::RemoteOp {
            kind: RemoteOpKind::Acc,
            target: rank as u32,
            seg: g.id as u32,
            offset: offset as u64,
            bytes: len as u32,
            atomic: true,
        });
        let seg = self.segment(g);
        let mut data = seg.data[rank].lock();
        for (i, v) in src.iter().enumerate() {
            let o = offset + i * 8;
            let cur = i64::from_le_bytes(data[o..o + 8].try_into().expect("8 bytes"));
            data[o..o + 8].copy_from_slice(&cur.wrapping_add(scale.wrapping_mul(*v)).to_le_bytes());
        }
        drop(data);
        ctx.charge_net(self.xfer_cost(ctx, rank, len));
    }

    /// Run `f` with mutable access to this rank's own portion of the
    /// segment. Charges only local software overhead; intended for
    /// owner-private initialization (setup that happens before any
    /// concurrency, so it emits no access record — shared-protocol
    /// accesses must go through [`Armci::with_local_range_mut`]).
    pub fn with_local_mut<R>(&self, ctx: &Ctx, g: Gmem, f: impl FnOnce(&mut [u8]) -> R) -> R {
        let seg = self.segment(g);
        let mut data = seg.data[ctx.rank()].lock();
        f(&mut data)
    }

    /// Run `f` with read access to this rank's own portion of the segment.
    pub fn with_local<R>(&self, ctx: &Ctx, g: Gmem, f: impl FnOnce(&[u8]) -> R) -> R {
        let seg = self.segment(g);
        let data = seg.data[ctx.rank()].lock();
        f(&data)
    }

    /// Owner-side read of `[offset, offset + len)` of this rank's own
    /// portion, recorded in the trace as a `LocalAccess` so the race
    /// checker can pair owner accesses against remote thieves. `atomic`
    /// marks single-word protocol accesses (lock-free index reads) the
    /// queue discipline declares safe against concurrent atomic writers.
    pub fn with_local_range<R>(
        &self,
        ctx: &Ctx,
        g: Gmem,
        offset: usize,
        len: usize,
        atomic: bool,
        f: impl FnOnce(&[u8]) -> R,
    ) -> R {
        self.check_bounds(g, ctx.rank(), offset, len);
        // Order-only instant: the race checker needs the access's position
        // in the rank's timeline, never a duration from its stamp — so the
        // hot per-word protocol path skips the wall-clock query.
        ctx.trace_instant(|| TraceEvent::LocalAccess {
            seg: g.id as u32,
            offset: offset as u64,
            bytes: len as u32,
            write: false,
            atomic,
        });
        let seg = self.segment(g);
        let data = seg.data[ctx.rank()].lock();
        f(&data[offset..offset + len])
    }

    /// Owner-side write access to `[offset, offset + len)` of this rank's
    /// own portion, recorded as a `LocalAccess` write (see
    /// [`Armci::with_local_range`]).
    pub fn with_local_range_mut<R>(
        &self,
        ctx: &Ctx,
        g: Gmem,
        offset: usize,
        len: usize,
        atomic: bool,
        f: impl FnOnce(&mut [u8]) -> R,
    ) -> R {
        self.check_bounds(g, ctx.rank(), offset, len);
        // Order-only instant: the race checker needs the access's position
        // in the rank's timeline, never a duration from its stamp — so the
        // hot per-word protocol path skips the wall-clock query.
        ctx.trace_instant(|| TraceEvent::LocalAccess {
            seg: g.id as u32,
            offset: offset as u64,
            bytes: len as u32,
            write: true,
            atomic,
        });
        let seg = self.segment(g);
        let mut data = seg.data[ctx.rank()].lock();
        f(&mut data[offset..offset + len])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scioto_sim::{LatencyModel, Machine, MachineConfig};

    #[test]
    fn put_get_roundtrip_across_ranks() {
        let out = Machine::run(MachineConfig::virtual_time(4), |ctx| {
            let armci = Armci::init(ctx);
            let g = armci.malloc(ctx, 64);
            let me = ctx.rank();
            let next = (me + 1) % ctx.nranks();
            // Write my rank into my right neighbour's memory.
            armci.put(ctx, g, next, 0, &[me as u8; 8]);
            armci.barrier(ctx);
            let mut buf = [0u8; 8];
            armci.get(ctx, g, me, 0, &mut buf);
            buf[0] as usize
        });
        // Rank r holds the id of its left neighbour.
        assert_eq!(out.results, vec![3, 0, 1, 2]);
    }

    #[test]
    fn acc_f64_accumulates_from_all_ranks() {
        let out = Machine::run(MachineConfig::virtual_time(8), |ctx| {
            let armci = Armci::init(ctx);
            let g = armci.malloc(ctx, 16);
            armci.acc_f64(ctx, g, 0, 8, 2.0, &[1.0]);
            armci.barrier(ctx);
            let mut buf = [0u8; 8];
            armci.get(ctx, g, 0, 8, &mut buf);
            f64::from_le_bytes(buf)
        });
        for v in out.results {
            assert_eq!(v, 16.0); // 8 ranks × scale 2.0 × 1.0
        }
    }

    #[test]
    fn acc_i64_accumulates() {
        let out = Machine::run(MachineConfig::virtual_time(5), |ctx| {
            let armci = Armci::init(ctx);
            let g = armci.malloc(ctx, 8);
            armci.acc_i64(ctx, g, 0, 0, 1, &[ctx.rank() as i64]);
            armci.barrier(ctx);
            armci.read_i64(ctx, g, 0, 0)
        });
        for v in out.results {
            assert_eq!(v, 1 + 2 + 3 + 4);
        }
    }

    #[test]
    fn remote_ops_cost_more_than_local() {
        let out = Machine::run(
            MachineConfig::virtual_time(2).with_latency(LatencyModel::cluster()),
            |ctx| {
                let armci = Armci::init(ctx);
                let g = armci.malloc(ctx, 1024);
                let t0 = ctx.now();
                let buf = [0u8; 1024];
                armci.put(ctx, g, ctx.rank(), 0, &buf);
                let local = ctx.now() - t0;
                let t1 = ctx.now();
                armci.put(ctx, g, (ctx.rank() + 1) % 2, 0, &buf);
                let remote = ctx.now() - t1;
                (local, remote)
            },
        );
        for (local, remote) in out.results {
            assert!(
                remote > 4 * local,
                "remote put ({remote} ns) should dwarf local put ({local} ns)"
            );
        }
    }

    #[test]
    fn separate_segments_are_independent() {
        let out = Machine::run(MachineConfig::virtual_time(2), |ctx| {
            let armci = Armci::init(ctx);
            let a = armci.malloc(ctx, 8);
            let b = armci.malloc(ctx, 8);
            if ctx.rank() == 0 {
                armci.put(ctx, a, 0, 0, &1i64.to_le_bytes());
                armci.put(ctx, b, 0, 0, &2i64.to_le_bytes());
            }
            armci.barrier(ctx);
            (armci.read_i64(ctx, a, 0, 0), armci.read_i64(ctx, b, 0, 0))
        });
        assert!(out.results.iter().all(|&(x, y)| x == 1 && y == 2));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn oob_put_panics() {
        Machine::run(MachineConfig::virtual_time(1), |ctx| {
            let armci = Armci::init(ctx);
            let g = armci.malloc(ctx, 8);
            armci.put(ctx, g, 0, 4, &[0u8; 8]);
        });
    }

    #[test]
    fn with_local_mut_gives_owner_access() {
        let out = Machine::run(MachineConfig::virtual_time(3), |ctx| {
            let armci = Armci::init(ctx);
            let g = armci.malloc(ctx, 4);
            armci.with_local_mut(ctx, g, |bytes| bytes[0] = ctx.rank() as u8);
            armci.barrier(ctx);
            // Everyone reads rank 2's first byte.
            let mut b = [0u8; 1];
            armci.get(ctx, g, 2, 0, &mut b);
            b[0]
        });
        assert_eq!(out.results, vec![2, 2, 2]);
    }

    #[test]
    fn zero_byte_segment_is_valid_and_empty() {
        let out = Machine::run(MachineConfig::virtual_time(2), |ctx| {
            let armci = Armci::init(ctx);
            let g = armci.malloc(ctx, 0);
            armci.put(ctx, g, 1 - ctx.rank(), 0, &[]);
            (g.is_empty(), armci.with_local(ctx, g, |b| b.len()))
        });
        assert_eq!(out.results, vec![(true, 0), (true, 0)]);
    }

    /// Every one-sided op round-trips on both backings: heap segments
    /// (below the mapping threshold) and mapped ones (at and above it).
    #[test]
    fn ops_round_trip_on_heap_and_mapped_segments() {
        use scioto_det::pages::MAP_THRESHOLD;
        for bytes in [16, MAP_THRESHOLD - 8, MAP_THRESHOLD, 4 * MAP_THRESHOLD] {
            let out = Machine::run(MachineConfig::virtual_time(3), move |ctx| {
                let armci = Armci::init(ctx);
                let g = armci.malloc(ctx, bytes);
                let me = ctx.rank();
                let last = bytes - 8;
                let untouched = armci.read_i64(ctx, g, (me + 1) % 3, last);
                armci.barrier(ctx);
                // Rank r owns word 0 on rank r's right neighbour; every
                // rank accumulates into the last word of rank 0.
                armci.put(ctx, g, (me + 1) % 3, 0, &(me as i64 + 10).to_le_bytes());
                armci.acc_i64(ctx, g, 0, last, 2, &[me as i64 + 1]);
                let before = armci.fetch_add_i64(ctx, g, 2, last, 1);
                armci.barrier(ctx);
                let mut word = [0u8; 8];
                armci.get(ctx, g, me, 0, &mut word);
                (
                    untouched,
                    i64::from_le_bytes(word),
                    before,
                    armci.read_i64(ctx, g, 0, last),
                )
            });
            for (me, &(untouched, word, before, acc)) in out.results.iter().enumerate() {
                assert_eq!(untouched, 0, "{bytes} B: fresh memory must read 0");
                assert_eq!(word, (me as i64 + 2) % 3 + 10, "{bytes} B: put/get");
                assert!(
                    (0..3).contains(&before),
                    "{bytes} B: fetch_add saw {before}"
                );
                assert_eq!(acc, 2 * (1 + 2 + 3), "{bytes} B: acc_i64");
            }
        }
    }

    /// A mapped segment costs resident memory only where it is written:
    /// 256 ranks x 64 MiB reserves 16 GiB, and two words per rank commit
    /// two pages per rank.
    #[cfg(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))]
    #[test]
    fn mapped_segment_residency_is_proportional_to_use() {
        const P: usize = 256;
        const BYTES: usize = 64 << 20;
        let out = Machine::run(MachineConfig::virtual_time(P), |ctx| {
            let armci = Armci::init(ctx);
            let g = armci.malloc(ctx, BYTES);
            let me = ctx.rank();
            armci.put(ctx, g, me, 0, &[1u8; 8]);
            armci.put(ctx, g, me, BYTES - 8, &[2u8; 8]);
            armci.barrier(ctx);
            let resident = armci.segment(g).data[me].lock().resident_pages();
            // Reads below may map the shared zero page, which mincore
            // counts: every rank samples its residency first.
            armci.barrier(ctx);
            let mut mid = [0xffu8; 64];
            armci.get(ctx, g, (me + 1) % P, BYTES / 2, &mut mid);
            let mut ends = [0u8; 16];
            armci.get(ctx, g, (me + 1) % P, 0, &mut ends[..8]);
            armci.get(ctx, g, (me + 1) % P, BYTES - 8, &mut ends[8..]);
            (resident, mid, ends)
        });
        for (r, (resident, mid, ends)) in out.results.iter().enumerate() {
            assert!(
                matches!(resident, Some(1..=2)),
                "rank {r}: {resident:?} resident pages for two written words"
            );
            assert!(
                mid.iter().all(|&b| b == 0),
                "rank {r}: untouched bytes must read 0"
            );
            assert_eq!(ends[..8], [1; 8]);
            assert_eq!(ends[8..], [2; 8]);
        }
    }
}
