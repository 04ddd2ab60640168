//! The buddy allocator core: split, coalesce, steal.

use std::fmt;

use hh_sim::addr::Pfn;
use hh_sim::snap::{Dec, Enc, SnapError};
use hh_trace::Tracer;

use crate::frame_table::{FreeArea, FreeStacks};
use crate::pcp::{PcpCache, PcpConfig};
use crate::report::{OrderCounts, PageTypeInfo};
use crate::MigrateType;

/// `MAX_ORDER` on x86-64: orders 0..=10 exist, the largest block is
/// 2^10 pages = 4 MiB (§2.3 of the paper).
pub const MAX_ORDER: u8 = 11;

/// Allocation failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocError {
    /// No block of sufficient order in any migration type.
    OutOfMemory {
        /// The order that could not be satisfied.
        order: u8,
    },
    /// Requested order ≥ [`MAX_ORDER`].
    OrderTooLarge {
        /// The requested order.
        order: u8,
    },
    /// A transient failure injected by [`AllocJitter`]. The allocator
    /// state is untouched; the caller may simply retry.
    Transient,
}

impl fmt::Display for AllocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AllocError::OutOfMemory { order } => {
                write!(f, "out of memory allocating an order-{order} block")
            }
            AllocError::OrderTooLarge { order } => {
                write!(f, "order {order} exceeds MAX_ORDER ({MAX_ORDER})")
            }
            AllocError::Transient => write!(f, "transient allocation jitter"),
        }
    }
}

/// Deterministic allocation jitter: fails a configurable fraction of
/// [`BuddyAllocator::alloc_page`] calls with [`AllocError::Transient`]
/// before any allocator state changes.
///
/// The decision for call `n` is a pure function of `(seed, n)`, so a
/// jittered allocator remains bit-reproducible: the same seed and the
/// same call sequence always fail the same calls, independent of worker
/// count or wall-clock time.
#[derive(Debug, Clone)]
pub struct AllocJitter {
    seed: u64,
    rate: f64,
    calls: u64,
}

impl AllocJitter {
    /// Creates a jitter source failing ~`rate` of page allocations.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= rate <= 1.0`.
    pub fn new(seed: u64, rate: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&rate),
            "jitter rate {rate} out of range"
        );
        Self {
            seed,
            rate,
            calls: 0,
        }
    }

    /// The number of jitter decisions drawn so far. Part of a machine
    /// snapshot: the decision for call `n` is pure in `(seed, n)`, so
    /// restoring the call counter resumes the fault stream exactly.
    pub fn calls(&self) -> u64 {
        self.calls
    }

    /// Restores the decision counter captured by [`AllocJitter::calls`].
    pub fn set_calls(&mut self, calls: u64) {
        self.calls = calls;
    }

    /// Draws the next decision: `true` means this call fails.
    fn trips(&mut self) -> bool {
        if self.rate <= 0.0 {
            return false;
        }
        self.calls += 1;
        let x = hh_sim::rng::SplitMix64::new(
            self.seed ^ self.calls.wrapping_mul(0x9e37_79b9_7f4a_7c15),
        )
        .next();
        // 53 uniform mantissa bits, the same construction SimRng uses.
        ((x >> 11) as f64) * (1.0 / (1u64 << 53) as f64) < self.rate
    }
}

impl std::error::Error for AllocError {}

/// Free failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FreeError {
    /// The block was not allocated (double free or bad base/order).
    NotAllocated {
        /// Base frame of the rejected block.
        base: Pfn,
    },
    /// The block was allocated with a different order.
    WrongOrder {
        /// Base frame of the rejected block.
        base: Pfn,
        /// The order it was allocated with.
        allocated_order: u8,
    },
}

impl fmt::Display for FreeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FreeError::NotAllocated { base } => {
                write!(f, "freeing unallocated block at frame {base}")
            }
            FreeError::WrongOrder {
                base,
                allocated_order,
            } => {
                write!(
                    f,
                    "block at frame {base} was allocated at order {allocated_order}"
                )
            }
        }
    }
}

impl std::error::Error for FreeError {}

/// Lifetime counters, exposed for experiments and ablations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AllocStats {
    /// Successful allocations.
    pub allocs: u64,
    /// Frees.
    pub frees: u64,
    /// Block splits performed while allocating.
    pub splits: u64,
    /// Buddy merges performed while freeing.
    pub merges: u64,
    /// Allocations served by stealing from the fallback migration type.
    pub steals: u64,
    /// Order-0 allocations served from the PCP cache without touching
    /// the buddy lists.
    pub pcp_hits: u64,
    /// PCP refills from the buddy lists.
    pub pcp_refills: u64,
}

/// A plain-data image of a [`BuddyAllocator`]'s state: frames, free
/// lists, allocated blocks, the PCP cache and lifetime stats —
/// everything except the tracer handle and jitter source, which are
/// per-instantiation concerns.
///
/// The image is sparse: it lists blocks, not frames, so it costs memory
/// in proportion to the blocks it holds and a restored allocator only
/// materializes the per-frame chunks those blocks touch.
///
/// Snapshots exist so campaign grids can pay for boot-time noise once
/// per scenario and stamp out per-cell allocators with
/// [`BuddyAllocator::from_snapshot`] instead of replaying the whole
/// allocation sequence for every cell. Unlike the allocator itself
/// (whose tracer holds an `Rc`), a snapshot is `Send + Sync`, so one
/// snapshot can seed allocators on many worker threads.
#[derive(Debug, Clone)]
pub struct BuddySnapshot {
    frames: u64,
    free: FreeStacks,
    /// `(base, order, mt)` of every allocated block, by ascending base.
    allocated: Vec<(u64, u8, MigrateType)>,
    pcp: PcpCache,
    stats: AllocStats,
}

impl BuddySnapshot {
    /// Total frames the snapshotted zone manages.
    pub fn total_frames(&self) -> u64 {
        self.frames
    }

    /// `(base, order, mt)` of every free block, by ascending base: the
    /// free index of the encoding, derived from the free lists.
    fn free_index(&self) -> Vec<(u64, u8, MigrateType)> {
        let mut index: Vec<(u64, u8, MigrateType)> = Vec::new();
        for mt in MigrateType::ALL {
            for (order, list) in self.free[mt.index()].iter().enumerate() {
                index.extend(list.iter().map(|&pfn| (pfn, order as u8, mt)));
            }
        }
        index.sort_unstable_by_key(|e| e.0);
        index
    }

    /// Serializes the snapshot into the machine-snapshot byte stream.
    ///
    /// Free lists are written in stack order (bottom→top) so the LIFO
    /// reuse order — the property hammer-plan physical layout depends
    /// on — survives the round trip. Then come two block indexes, free
    /// blocks and allocated blocks, each sorted by base PFN so identical
    /// states always produce identical bytes; the free index repeats
    /// what the lists say, which the decoder checks.
    pub fn encode_into(&self, enc: &mut Enc) {
        enc.u64(self.frames);
        for per_order in &self.free {
            for list in per_order {
                enc.u64(list.len() as u64);
                for &pfn in list {
                    enc.u64(pfn);
                }
            }
        }
        for index in [&self.free_index(), &self.allocated] {
            enc.u64(index.len() as u64);
            for &(pfn, order, mt) in index.iter() {
                enc.u64(pfn);
                enc.u8(order);
                enc.u8(mt.index() as u8);
            }
        }
        let pcp_config = self.pcp.config();
        enc.u64(pcp_config.high as u64);
        enc.u64(pcp_config.batch as u64);
        for mt in MigrateType::ALL {
            let lane = self.pcp.lane(mt);
            enc.u64(lane.len() as u64);
            for &pfn in lane {
                enc.u64(pfn);
            }
        }
        let s = self.stats;
        for v in [
            s.allocs,
            s.frees,
            s.splits,
            s.merges,
            s.steals,
            s.pcp_hits,
            s.pcp_refills,
        ] {
            enc.u64(v);
        }
    }

    /// Decodes a snapshot written by [`BuddySnapshot::encode_into`].
    ///
    /// Nothing is allocated in proportion to the zone size the stream
    /// claims; all storage is bounded by the stream's own length.
    ///
    /// # Errors
    ///
    /// Typed [`SnapError`]s for truncation and structural corruption:
    /// blocks reaching beyond the zone or misaligned for their order,
    /// unsorted index keys, unknown migrate-type tags, any frame owned
    /// twice (a PFN on two free lists or two PCP lanes, both free and
    /// allocated, or inside another block), and a free index that
    /// disagrees with the free lists. Never panics on corrupt input, so
    /// an accepted snapshot restores an allocator that hands out every
    /// frame at most once.
    pub fn decode(dec: &mut Dec<'_>) -> Result<Self, SnapError> {
        let frames = dec.u64()?;
        if frames == 0 {
            return Err(SnapError::Corrupt("zero-frame buddy zone"));
        }
        let fits = |pfn: u64, order: u8| pfn < frames && frames - pfn >= 1u64 << order;
        let mut free: FreeStacks = Default::default();
        for per_order in free.iter_mut() {
            for (order, list) in per_order.iter_mut().enumerate() {
                let count = dec.count(8)?;
                list.reserve_exact(count);
                for _ in 0..count {
                    let pfn = dec.u64()?;
                    if !fits(pfn, order as u8) {
                        return Err(SnapError::Corrupt("free-list pfn beyond zone"));
                    }
                    list.push(pfn);
                }
            }
        }
        let mut indexes: [Vec<(u64, u8, MigrateType)>; 2] = Default::default();
        for index in indexes.iter_mut() {
            let count = dec.count(10)?;
            index.reserve_exact(count);
            for _ in 0..count {
                let pfn = dec.u64()?;
                let order = dec.u8()?;
                let mt = mt_from_tag(dec.u8()?)?;
                if order >= MAX_ORDER {
                    return Err(SnapError::Corrupt("block order beyond MAX_ORDER"));
                }
                if index.last().is_some_and(|&(prev, _, _)| prev >= pfn) {
                    return Err(SnapError::Corrupt(
                        "block index keys not strictly increasing",
                    ));
                }
                if !fits(pfn, order) {
                    return Err(SnapError::Corrupt("block index pfn beyond zone"));
                }
                index.push((pfn, order, mt));
            }
        }
        let [free_index, allocated] = indexes;
        let high = dec.u64()?;
        let batch = dec.u64()?;
        let mut pcp = PcpCache::new(PcpConfig {
            high: usize::try_from(high).map_err(|_| SnapError::Corrupt("pcp high overflow"))?,
            batch: usize::try_from(batch).map_err(|_| SnapError::Corrupt("pcp batch overflow"))?,
        });
        for mt in MigrateType::ALL {
            let count = dec.count(8)?;
            for _ in 0..count {
                let pfn = dec.u64()?;
                if pfn >= frames {
                    return Err(SnapError::Corrupt("pcp pfn beyond zone"));
                }
                pcp.push_free(mt, pfn);
            }
        }
        let mut scalars = [0u64; 7];
        for slot in scalars.iter_mut() {
            *slot = dec.u64()?;
        }
        let stats = AllocStats {
            allocs: scalars[0],
            frees: scalars[1],
            splits: scalars[2],
            merges: scalars[3],
            steals: scalars[4],
            pcp_hits: scalars[5],
            pcp_refills: scalars[6],
        };
        let snap = Self {
            frames,
            free,
            allocated,
            pcp,
            stats,
        };
        snap.check_ownership()?;
        if snap.free_index() != free_index {
            return Err(SnapError::Corrupt(
                "free index disagrees with the free lists",
            ));
        }
        Ok(snap)
    }

    /// Checks that every block is aligned to its order and that no frame
    /// belongs to two owners: free blocks, allocated blocks and PCP
    /// pages must tile disjoint frame ranges.
    fn check_ownership(&self) -> Result<(), SnapError> {
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
        enum Owner {
            Free,
            Allocated,
            Pcp,
        }
        let mut spans: Vec<(u64, u8, Owner)> = Vec::new();
        for per_order in &self.free {
            for (order, list) in per_order.iter().enumerate() {
                spans.extend(list.iter().map(|&pfn| (pfn, order as u8, Owner::Free)));
            }
        }
        spans.extend(
            self.allocated
                .iter()
                .map(|&(pfn, order, _)| (pfn, order, Owner::Allocated)),
        );
        for mt in MigrateType::ALL {
            spans.extend(self.pcp.lane(mt).iter().map(|&pfn| (pfn, 0, Owner::Pcp)));
        }
        spans.sort_unstable();
        // Sorted and disjoint so far, so the last span reaches furthest.
        let mut last: Option<(u64, Owner)> = None;
        for (pfn, order, owner) in spans {
            if pfn & ((1u64 << order) - 1) != 0 {
                return Err(SnapError::Corrupt("block misaligned for its order"));
            }
            if let Some((end, holder)) = last {
                if pfn < end {
                    return Err(SnapError::Corrupt(
                        match (holder.min(owner), holder.max(owner)) {
                            (Owner::Free, Owner::Free) => "pfn on two free lists",
                            (Owner::Pcp, Owner::Pcp) => "pfn in two pcp lanes",
                            (Owner::Free, Owner::Allocated) => "pfn both free and allocated",
                            (Owner::Allocated, Owner::Allocated) => "overlapping allocated blocks",
                            (Owner::Free, Owner::Pcp) => "pcp pfn inside a free block",
                            (_, _) => "pcp pfn inside an allocated block",
                        },
                    ));
                }
            }
            // Blocks fit the zone (checked while decoding): no overflow.
            last = Some((pfn + (1u64 << order), owner));
        }
        Ok(())
    }
}

fn mt_from_tag(tag: u8) -> Result<MigrateType, SnapError> {
    match tag {
        0 => Ok(MigrateType::Unmovable),
        1 => Ok(MigrateType::Movable),
        _ => Err(SnapError::Corrupt("unknown migrate-type tag")),
    }
}

/// A single-zone buddy allocator with two migration types and a per-CPU
/// pageset cache.
///
/// See the [crate documentation](crate) for the modelled behaviours.
#[derive(Debug, Clone)]
pub struct BuddyAllocator {
    frames: u64,
    /// The free lists and the per-frame table: O(1) buddy lookup during
    /// coalescing, double-free detection and pinned-type accounting.
    area: FreeArea,
    pcp: PcpCache,
    stats: AllocStats,
    tracer: Tracer,
    jitter: Option<AllocJitter>,
}

impl BuddyAllocator {
    /// Creates an allocator managing `frames` page frames, all initially
    /// free and `Movable` (boot-time pageblocks default to movable).
    ///
    /// # Panics
    ///
    /// Panics if `frames` is zero.
    pub fn new(frames: u64) -> Self {
        Self::with_pcp(frames, PcpConfig::default())
    }

    /// Creates an allocator with an explicit PCP configuration (use
    /// [`PcpConfig::disabled`] for the ablation without the cache).
    ///
    /// # Panics
    ///
    /// Panics if `frames` is zero.
    pub fn with_pcp(frames: u64, pcp: PcpConfig) -> Self {
        assert!(frames > 0, "empty zone");
        let mut this = Self {
            frames,
            area: FreeArea::new(frames),
            pcp: PcpCache::new(pcp),
            stats: AllocStats::default(),
            tracer: Tracer::off(),
            jitter: None,
        };
        // Seed the free lists with maximal aligned blocks.
        let mut base = 0u64;
        while base < frames {
            let mut order = MAX_ORDER - 1;
            loop {
                let size = 1u64 << order;
                if base.is_multiple_of(size) && base + size <= frames {
                    break;
                }
                order -= 1;
            }
            this.area.push(base, order, MigrateType::Movable);
            base += 1u64 << order;
        }
        this
    }

    /// Captures the allocator's current state as a thread-shareable
    /// [`BuddySnapshot`]. The tracer and jitter source are not part of
    /// the snapshot.
    pub fn snapshot(&self) -> BuddySnapshot {
        BuddySnapshot {
            frames: self.frames,
            free: self.area.stacks().clone(),
            allocated: self.area.allocated_blocks(),
            pcp: self.pcp.clone(),
            stats: self.stats,
        }
    }

    /// Rebuilds an allocator from a snapshot, bit-identical to the
    /// snapshotted one apart from instrumentation: the restored
    /// allocator starts with [`Tracer::off`] and no jitter — attach
    /// both afterwards if needed.
    ///
    /// The per-frame table gets a directory entry for every 32 frames
    /// of the snapshot's zone, so check [`BuddySnapshot::total_frames`]
    /// against the expected geometry before restoring a decoded one.
    pub fn from_snapshot(snap: &BuddySnapshot) -> Self {
        let mut area = FreeArea::new(snap.frames);
        area.load(&snap.free, &snap.allocated);
        Self {
            frames: snap.frames,
            area,
            pcp: snap.pcp.clone(),
            stats: snap.stats,
            tracer: Tracer::off(),
            jitter: None,
        }
    }

    /// Restores the allocator's page state — free lists (including
    /// their LIFO order), the free/allocated blocks and the per-CPU
    /// caches — to `snap`, keeping the live instrumentation (stats,
    /// tracer, jitter) untouched.
    ///
    /// This is the abort-rollback primitive: an abandoned attack
    /// attempt frees every page it took, so the *count* comes back on
    /// its own, but interleaved split/coalesce traffic leaves the free
    /// lists in a different LIFO order — and buddy allocation order is
    /// exactly what hammer-plan physical layout depends on. Restoring
    /// the snapshot makes a later attempt's allocations independent of
    /// the aborted attempt's fault stream.
    ///
    /// # Panics
    ///
    /// If `snap` came from a zone of a different size.
    pub fn restore_free_state(&mut self, snap: &BuddySnapshot) {
        assert_eq!(
            self.frames, snap.frames,
            "free-state snapshot is from a different zone"
        );
        self.area.load(&snap.free, &snap.allocated);
        self.pcp.clone_from(&snap.pcp);
    }

    /// An order-sensitive digest of the free state: every free list's
    /// PFN sequence (per migratetype and order) and every per-CPU cache
    /// list, folded in iteration order. Two allocators with the same
    /// free pages in a different LIFO order digest differently — the
    /// property [`restore_free_state`](Self::restore_free_state) exists
    /// to protect.
    pub fn free_state_digest(&self) -> u64 {
        // FNV-1a over (tag, pfn) words; tags separate list boundaries
        // so moving a page between lists always changes the digest.
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut fold = |word: u64| {
            h ^= word;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        };
        for (mt, per_order) in self.area.stacks().iter().enumerate() {
            for (order, list) in per_order.iter().enumerate() {
                fold(0x1000_0000 | (mt as u64) << 8 | order as u64);
                for &pfn in list {
                    fold(pfn);
                }
            }
        }
        for mt in MigrateType::ALL {
            fold(0x2000_0000 | mt.index() as u64);
            for &pfn in self.pcp.lane(mt) {
                fold(pfn);
            }
        }
        h
    }

    /// Attaches an instrumentation handle; allocations, frees, splits,
    /// merges and exhaustions are reported to it from now on. Clones of
    /// a traced allocator share the same sink.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Installs (or clears) deterministic allocation jitter on the
    /// [`alloc_page`](Self::alloc_page) path — the page-table/EPT/IOPT
    /// allocations the paper's steering stages lean on. Bulk block
    /// allocations (`alloc`) are never jittered, so VM provisioning
    /// stays reliable.
    pub fn set_alloc_jitter(&mut self, jitter: Option<AllocJitter>) {
        self.jitter = jitter;
    }

    /// The installed jitter source, if any. Its draw counter is part of
    /// a machine snapshot (decisions are pure in `(seed, call index)`).
    pub fn alloc_jitter(&self) -> Option<&AllocJitter> {
        self.jitter.as_ref()
    }

    /// Mutable access to the installed jitter source (snapshot restore
    /// puts the draw counter back).
    pub fn alloc_jitter_mut(&mut self) -> Option<&mut AllocJitter> {
        self.jitter.as_mut()
    }

    /// A clone for machine forking: all page state, stats and the
    /// jitter stream position carry over; the fork gets a detached
    /// tracer so its churn reports nowhere until one is attached.
    pub fn fork(&self) -> Self {
        Self {
            frames: self.frames,
            area: self.area.clone(),
            pcp: self.pcp.clone(),
            stats: self.stats,
            tracer: Tracer::off(),
            jitter: self.jitter.clone(),
        }
    }

    /// Total frames managed.
    pub fn total_frames(&self) -> u64 {
        self.frames
    }

    /// Lifetime counters.
    pub fn stats(&self) -> AllocStats {
        self.stats
    }

    /// Total free pages, including pages parked in the PCP cache.
    pub fn free_pages(&self) -> u64 {
        self.area.pages() + self.pcp.total_pages()
    }

    /// Allocates a block of `2^order` contiguous, aligned frames of the
    /// given migration type.
    ///
    /// Follows the kernel's path: smallest sufficient block of the
    /// requested type first (splitting as needed), then stealing from the
    /// fallback type, largest block first.
    ///
    /// # Errors
    ///
    /// [`AllocError::OrderTooLarge`] for orders ≥ [`MAX_ORDER`];
    /// [`AllocError::OutOfMemory`] when both types are exhausted.
    pub fn alloc(&mut self, order: u8, mt: MigrateType) -> Result<Pfn, AllocError> {
        if order >= MAX_ORDER {
            return Err(AllocError::OrderTooLarge { order });
        }
        let base = self.rmqueue(order, mt)?;
        self.area.mark_allocated(base, order, mt);
        self.stats.allocs += 1;
        self.tracer.buddy_alloc(order);
        Ok(Pfn::new(base))
    }

    /// Allocates one order-0 page through the PCP cache, the path kernel
    /// page-table (and so EPT/IOPT) allocations take.
    ///
    /// # Errors
    ///
    /// [`AllocError::OutOfMemory`] when the cache cannot be refilled.
    pub fn alloc_page(&mut self, mt: MigrateType) -> Result<Pfn, AllocError> {
        if let Some(jitter) = &mut self.jitter {
            if jitter.trips() {
                self.tracer
                    .fault_injected("buddy_alloc", "allocation jitter");
                return Err(AllocError::Transient);
            }
        }
        if let Some(base) = self.pcp.pop(mt) {
            self.stats.pcp_hits += 1;
            self.area.mark_allocated(base, 0, mt);
            self.stats.allocs += 1;
            self.tracer.buddy_alloc(0);
            return Ok(Pfn::new(base));
        }
        // Refill a batch, then retry once.
        let batch = self.pcp.batch();
        if batch > 0 {
            let mut refilled = 0;
            for _ in 0..batch {
                match self.rmqueue(0, mt) {
                    Ok(base) => {
                        self.pcp.push_free(mt, base);
                        refilled += 1;
                    }
                    Err(_) => break,
                }
            }
            if refilled > 0 {
                self.stats.pcp_refills += 1;
            }
            if let Some(base) = self.pcp.pop(mt) {
                self.stats.pcp_hits += 1;
                self.area.mark_allocated(base, 0, mt);
                self.stats.allocs += 1;
                self.tracer.buddy_alloc(0);
                return Ok(Pfn::new(base));
            }
        }
        // PCP disabled or empty zone: direct path.
        self.alloc(0, mt)
    }

    /// Frees a block previously returned by [`Self::alloc`] (or
    /// [`Self::alloc_page`] when freeing at order 0 without the cache).
    ///
    /// # Panics
    ///
    /// Panics on double free or order mismatch — allocator-contract
    /// violations are simulation bugs, not recoverable conditions. Use
    /// [`Self::try_free`] for a checked variant.
    pub fn free(&mut self, base: Pfn, order: u8) {
        if let Err(e) = self.try_free(base, order) {
            panic!("{e}");
        }
    }

    /// Checked variant of [`Self::free`].
    ///
    /// # Errors
    ///
    /// [`FreeError::NotAllocated`] or [`FreeError::WrongOrder`] on
    /// contract violations.
    pub fn try_free(&mut self, base: Pfn, order: u8) -> Result<(), FreeError> {
        let Some((allocated_order, mt)) = self.area.allocated(base.index()) else {
            return Err(FreeError::NotAllocated { base });
        };
        if allocated_order != order {
            return Err(FreeError::WrongOrder {
                base,
                allocated_order,
            });
        }
        self.area.unmark_allocated(base.index());
        self.stats.frees += 1;
        self.tracer.buddy_free(order);
        self.coalesce_and_insert(base.index(), order, mt);
        Ok(())
    }

    /// Frees one order-0 page through the PCP cache.
    ///
    /// # Panics
    ///
    /// Panics on double free or if the page was not allocated at order 0.
    pub fn free_page(&mut self, base: Pfn) {
        let Some((allocated_order, mt)) = self.area.allocated(base.index()) else {
            panic!("freeing unallocated page at frame {base}");
        };
        assert_eq!(
            allocated_order, 0,
            "free_page on an order-{allocated_order} block"
        );
        self.area.unmark_allocated(base.index());
        self.stats.frees += 1;
        self.tracer.buddy_free(0);
        if self.pcp.enabled() {
            self.pcp.push_free(mt, base.index());
            // Drain overflow back into the buddy lists, most recently
            // cached page first.
            for _ in 0..self.pcp.overflow(mt) {
                let page = self.pcp.pop(mt).expect("overflow counts cached pages");
                self.coalesce_and_insert(page, 0, mt);
            }
        } else {
            self.coalesce_and_insert(base.index(), 0, mt);
        }
    }

    /// Re-types an *allocated* block, modelling VFIO pinning guest memory
    /// as `MIGRATE_UNMOVABLE` (§2.6). Affects which list the block joins
    /// when freed.
    ///
    /// # Panics
    ///
    /// Panics if the block is not allocated at `order`.
    pub fn set_migrate_type(&mut self, base: Pfn, order: u8, mt: MigrateType) {
        let (allocated_order, _) = self
            .area
            .allocated(base.index())
            .unwrap_or_else(|| panic!("set_migrate_type on unallocated frame {base}"));
        assert_eq!(allocated_order, order, "order mismatch in set_migrate_type");
        self.area.mark_allocated(base.index(), order, mt);
    }

    /// Splits an *allocated* block into `2^order` individually allocated
    /// order-0 pages, modelling a THP split: the memory stays owned, but
    /// each 4 KiB page can now be freed independently (the virtio-balloon
    /// path, §6).
    ///
    /// # Panics
    ///
    /// Panics if the block is not allocated at `order`.
    pub fn split_allocated(&mut self, base: Pfn, order: u8) {
        let Some((allocated_order, mt)) = self.area.allocated(base.index()) else {
            panic!("split_allocated on unallocated frame {base}");
        };
        assert_eq!(allocated_order, order, "order mismatch in split_allocated");
        for i in 0..1u64 << order {
            self.area.mark_allocated(base.index() + i, 0, mt);
        }
    }

    /// A `/proc/pagetypeinfo`-style snapshot of the free lists.
    ///
    /// The PCP cache is reported separately, mirroring how the real file
    /// shows buddy lists only.
    pub fn pagetypeinfo(&self) -> PageTypeInfo {
        let mut info = PageTypeInfo::default();
        for mt in MigrateType::ALL {
            let counts = OrderCounts {
                counts: std::array::from_fn(|order| self.area.list(mt, order).len() as u64),
            };
            match mt {
                MigrateType::Unmovable => info.unmovable = counts,
                MigrateType::Movable => info.movable = counts,
            }
        }
        info.pcp_pages[0] = self.pcp.pages(MigrateType::Unmovable);
        info.pcp_pages[1] = self.pcp.pages(MigrateType::Movable);
        info
    }

    /// The paper's "noise pages" metric: free pages sitting in
    /// small-order (order < 9) blocks of the given migration type,
    /// including PCP-cached pages. These are the pages an EPT allocation
    /// would consume *before* touching a released order-9 sub-block.
    pub fn small_order_free_pages(&self, mt: MigrateType) -> u64 {
        let buddy: u64 = (0..9)
            .map(|order| (self.area.list(mt, order).len() as u64) << order)
            .sum();
        buddy + self.pcp.pages(mt)
    }

    /// Returns `true` if a free block of exactly (base, order) exists.
    pub fn is_free_block(&self, base: Pfn, order: u8) -> bool {
        self.area
            .free_block(base.index())
            .is_some_and(|(o, _)| o == order)
    }

    /// Internal: smallest-first allocation with fallback stealing.
    fn rmqueue(&mut self, order: u8, mt: MigrateType) -> Result<u64, AllocError> {
        // 1. Own lists, smallest sufficient order first.
        for o in order..MAX_ORDER {
            if let Some(base) = self.area.pop(mt, o) {
                self.expand(base, o, order, mt);
                return Ok(base);
            }
        }
        // 2. Steal from the fallback type, LARGEST block first (the
        //    kernel steals big to reduce future fallbacks).
        let fb = mt.fallback();
        for o in (order..MAX_ORDER).rev() {
            if let Some(base) = self.area.pop(fb, o) {
                self.stats.steals += 1;
                // Stolen remainder joins the requesting type's lists.
                self.expand(base, o, order, mt);
                return Ok(base);
            }
        }
        self.tracer.buddy_exhausted(order);
        Err(AllocError::OutOfMemory { order })
    }

    /// Splits `base` (a block of `from_order`) down to `to_order`,
    /// returning the upper halves to `mt`'s free lists.
    fn expand(&mut self, base: u64, from_order: u8, to_order: u8, mt: MigrateType) {
        let mut order = from_order;
        while order > to_order {
            order -= 1;
            self.stats.splits += 1;
            self.tracer.buddy_split(order + 1);
            let upper = base + (1u64 << order);
            self.area.push(upper, order, mt);
        }
    }

    /// Frees with maximal buddy coalescing.
    fn coalesce_and_insert(&mut self, mut base: u64, mut order: u8, mt: MigrateType) {
        while order < MAX_ORDER - 1 {
            // The kernel merges across migration types (the merged block
            // takes the type of the page being freed); requiring equal
            // order is the buddy invariant.
            if self.area.take(base ^ (1u64 << order), order).is_none() {
                break;
            }
            self.stats.merges += 1;
            self.tracer.buddy_merge(order + 1);
            base &= !(1u64 << order);
            order += 1;
        }
        self.area.push(base, order, mt);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frames(mib: u64) -> u64 {
        mib << 20 >> 12
    }

    #[test]
    fn fresh_zone_is_all_free_and_movable() {
        let b = BuddyAllocator::new(frames(64));
        assert_eq!(b.free_pages(), frames(64));
        let info = b.pagetypeinfo();
        assert_eq!(info.unmovable.total_pages(), 0);
        assert_eq!(info.movable.total_pages(), frames(64));
        // 64 MiB / 4 MiB max blocks = 16 order-10 blocks.
        assert_eq!(info.movable.counts[10], 16);
    }

    #[test]
    fn alloc_free_roundtrip_restores_state() {
        let mut b = BuddyAllocator::new(frames(16));
        let before = b.pagetypeinfo();
        let p = b.alloc(3, MigrateType::Movable).unwrap();
        assert_eq!(b.free_pages(), frames(16) - 8);
        b.free(p, 3);
        assert_eq!(b.pagetypeinfo(), before, "coalescing must fully restore");
    }

    #[test]
    fn blocks_are_aligned() {
        let mut b = BuddyAllocator::new(frames(16));
        for order in 0..MAX_ORDER {
            let p = b.alloc(order, MigrateType::Movable).unwrap();
            assert_eq!(p.index() % (1 << order), 0, "order {order} misaligned");
        }
    }

    #[test]
    fn smallest_sufficient_block_is_preferred() {
        let mut b = BuddyAllocator::new(frames(16));
        // Create a free order-0 block of the right type by alloc+free.
        let small = b.alloc(0, MigrateType::Unmovable).unwrap();
        b.free(small, 0);
        // The next order-0 unmovable alloc must reuse it rather than
        // splitting another large movable block.
        let again = b.alloc(0, MigrateType::Unmovable).unwrap();
        assert_eq!(again, small);
    }

    #[test]
    fn lifo_reuse_of_released_blocks() {
        let mut b = BuddyAllocator::new(frames(64));
        // Allocate two buddy pairs; free one block of each pair so the
        // freed blocks cannot coalesce with each other.
        let a = b.alloc(9, MigrateType::Unmovable).unwrap();
        let _a_buddy = b.alloc(9, MigrateType::Unmovable).unwrap();
        let c = b.alloc(9, MigrateType::Unmovable).unwrap();
        let _c_buddy = b.alloc(9, MigrateType::Unmovable).unwrap();
        b.free(a, 9);
        b.free(c, 9);
        // c was freed last → reused first.
        assert_eq!(b.alloc(9, MigrateType::Unmovable).unwrap(), c);
        assert_eq!(b.alloc(9, MigrateType::Unmovable).unwrap(), a);
    }

    #[test]
    fn unmovable_steals_from_movable_when_empty() {
        let mut b = BuddyAllocator::new(frames(16));
        assert_eq!(b.stats().steals, 0);
        let _p = b.alloc(0, MigrateType::Unmovable).unwrap();
        assert_eq!(b.stats().steals, 1);
        // Remainder of the stolen max-order block is now unmovable.
        assert!(b.pagetypeinfo().unmovable.total_pages() > 0);
        // Subsequent unmovable allocs need no further stealing.
        let _q = b.alloc(0, MigrateType::Unmovable).unwrap();
        assert_eq!(b.stats().steals, 1);
    }

    #[test]
    fn steal_takes_largest_block() {
        let mut b = BuddyAllocator::new(frames(64));
        let before = b.pagetypeinfo().movable.counts[10];
        let _p = b.alloc(0, MigrateType::Unmovable).unwrap();
        let after = b.pagetypeinfo().movable.counts[10];
        assert_eq!(after, before - 1, "steal should come from order-10");
    }

    #[test]
    fn oom_is_reported() {
        let mut b = BuddyAllocator::new(frames(1)); // 256 frames
        let mut held = Vec::new();
        loop {
            match b.alloc(0, MigrateType::Movable) {
                Ok(p) => held.push(p),
                Err(AllocError::OutOfMemory { order: 0 }) => break,
                Err(e) => panic!("unexpected {e}"),
            }
        }
        assert_eq!(held.len(), 256);
    }

    #[test]
    fn order_too_large() {
        let mut b = BuddyAllocator::new(frames(16));
        assert_eq!(
            b.alloc(MAX_ORDER, MigrateType::Movable),
            Err(AllocError::OrderTooLarge { order: MAX_ORDER })
        );
    }

    #[test]
    fn double_free_detected() {
        let mut b = BuddyAllocator::new(frames(16));
        let p = b.alloc(0, MigrateType::Movable).unwrap();
        b.free(p, 0);
        assert!(matches!(
            b.try_free(p, 0),
            Err(FreeError::NotAllocated { .. })
        ));
    }

    #[test]
    fn wrong_order_free_detected() {
        let mut b = BuddyAllocator::new(frames(16));
        let p = b.alloc(2, MigrateType::Movable).unwrap();
        assert!(matches!(
            b.try_free(p, 3),
            Err(FreeError::WrongOrder {
                allocated_order: 2,
                ..
            })
        ));
        b.free(p, 2);
    }

    #[test]
    fn pcp_caches_order0_traffic() {
        let mut b = BuddyAllocator::new(frames(16));
        let p = b.alloc_page(MigrateType::Unmovable).unwrap();
        b.free_page(p);
        let q = b.alloc_page(MigrateType::Unmovable).unwrap();
        // LIFO through the PCP: same page back.
        assert_eq!(q, p);
        assert!(b.stats().pcp_hits >= 2);
    }

    #[test]
    fn pcp_pages_count_as_free_and_as_noise() {
        let mut b = BuddyAllocator::new(frames(16));
        let p = b.alloc_page(MigrateType::Unmovable).unwrap();
        b.free_page(p);
        assert_eq!(b.free_pages(), frames(16));
        assert!(b.small_order_free_pages(MigrateType::Unmovable) > 0);
    }

    #[test]
    fn disabled_pcp_goes_straight_to_buddy() {
        let mut b = BuddyAllocator::with_pcp(frames(16), PcpConfig::disabled());
        let p = b.alloc_page(MigrateType::Movable).unwrap();
        b.free_page(p);
        assert_eq!(b.stats().pcp_hits, 0);
        assert_eq!(b.free_pages(), frames(16));
    }

    #[test]
    fn set_migrate_type_redirects_free() {
        let mut b = BuddyAllocator::new(frames(64));
        let p = b.alloc(9, MigrateType::Movable).unwrap();
        b.set_migrate_type(p, 9, MigrateType::Unmovable);
        b.free(p, 9);
        // The order-9 block now sits on the unmovable list — exactly the
        // state Page Steering engineers for released sub-blocks.
        let info = b.pagetypeinfo();
        assert!(info.unmovable.counts[9] >= 1 || info.unmovable.counts[10] >= 1);
    }

    #[test]
    fn small_order_metric_ignores_order9_plus() {
        let mut b = BuddyAllocator::new(frames(64));
        let p = b.alloc(9, MigrateType::Movable).unwrap();
        b.set_migrate_type(p, 9, MigrateType::Unmovable);
        b.free(p, 9);
        // Freshly freed order-9 block: no *small-order* unmovable pages
        // (merging may promote it to order 10; either way ≥ 9).
        assert_eq!(b.small_order_free_pages(MigrateType::Unmovable), 0);
    }

    #[test]
    fn allocator_reports_to_an_attached_tracer() {
        use hh_trace::{Counter, TraceMode, Tracer};
        let mut b = BuddyAllocator::new(frames(16));
        let tracer = Tracer::new(TraceMode::Metrics);
        b.set_tracer(tracer.clone());
        // Order-0 alloc from a fresh order-10 block: ten splits.
        let p = b.alloc(0, MigrateType::Movable).unwrap();
        b.free(p, 0);
        tracer.inspect(|sink| {
            let m = sink.metrics();
            assert_eq!(m.get(Counter::BuddyAllocs), 1);
            assert_eq!(m.get(Counter::BuddyFrees), 1);
            assert_eq!(m.get(Counter::BuddySplits), 10);
            assert_eq!(m.get(Counter::BuddyMerges), 10);
            assert_eq!(m.get(Counter::BuddyExhaustions), 0);
        });
        // Exhaustion is reported when no list can satisfy the order.
        for _ in 0..4 {
            b.alloc(10, MigrateType::Movable).unwrap();
        }
        assert!(b.alloc(10, MigrateType::Movable).is_err());
        tracer.inspect(|sink| {
            assert_eq!(sink.metrics().get(Counter::BuddyExhaustions), 1);
        });
    }

    #[test]
    fn snapshot_roundtrip_is_bit_identical_and_send() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<BuddySnapshot>();

        let mut b = BuddyAllocator::new(frames(16));
        // Dirty the state: allocations across orders and types, a PCP
        // round-trip, and a held page so `allocated` is non-empty.
        let held = b.alloc(3, MigrateType::Unmovable).unwrap();
        let p = b.alloc_page(MigrateType::Movable).unwrap();
        b.free_page(p);

        let snap = b.snapshot();
        let mut restored = BuddyAllocator::from_snapshot(&snap);
        assert_eq!(restored.pagetypeinfo(), b.pagetypeinfo());
        assert_eq!(restored.free_pages(), b.free_pages());
        assert_eq!(restored.stats(), b.stats());
        // Same state ⇒ same future decisions: the next allocations on
        // both allocators return the same frames.
        for order in [0u8, 2, 9] {
            assert_eq!(
                restored.alloc(order, MigrateType::Movable),
                b.alloc(order, MigrateType::Movable),
                "order-{order} alloc diverged after snapshot restore"
            );
        }
        assert_eq!(
            restored.alloc_page(MigrateType::Unmovable),
            b.alloc_page(MigrateType::Unmovable)
        );
        b.free(held, 3);
    }

    #[test]
    fn restore_free_state_recovers_lifo_order_not_just_counts() {
        let mut b = BuddyAllocator::new(frames(8));
        // Stir the lists so they are not in freshly-carved order.
        let held: Vec<_> = (0..6)
            .map(|_| b.alloc(2, MigrateType::Movable).unwrap())
            .collect();
        for p in held.iter().rev() {
            b.free(*p, 2);
        }
        let snap = b.snapshot();
        let digest = b.free_state_digest();

        // An alloc/free round trip restores the page *count* but not
        // the LIFO order (remove() swap-removes; coalescing re-pushes)
        // — the situation an aborted attempt leaves behind.
        let a1 = b.alloc(0, MigrateType::Movable).unwrap();
        let a2 = b.alloc(4, MigrateType::Unmovable).unwrap();
        b.free(a1, 0);
        b.free(a2, 4);
        assert_eq!(b.free_pages(), snap.total_frames());
        assert_ne!(
            b.free_state_digest(),
            digest,
            "the digest must be order-sensitive or this test is vacuous"
        );

        b.restore_free_state(&snap);
        assert_eq!(b.free_state_digest(), digest);
        // Same state ⇒ same future decisions.
        let mut reference = BuddyAllocator::from_snapshot(&snap);
        for order in [0u8, 2, 4] {
            assert_eq!(
                b.alloc(order, MigrateType::Movable),
                reference.alloc(order, MigrateType::Movable),
                "order-{order} alloc diverged after free-state restore"
            );
        }
    }

    #[test]
    fn snapshot_binary_encoding_is_canonical_and_round_trips() {
        let mut b = BuddyAllocator::new(frames(16));
        // Dirty every serialized component: held blocks, PCP lanes,
        // split/steal traffic.
        let _held = b.alloc(3, MigrateType::Unmovable).unwrap();
        let p = b.alloc_page(MigrateType::Movable).unwrap();
        b.free_page(p);
        let snap = b.snapshot();

        let mut enc = Enc::new();
        snap.encode_into(&mut enc);
        let bytes = enc.into_bytes();
        let mut dec = Dec::new(&bytes);
        let decoded = BuddySnapshot::decode(&mut dec).unwrap();
        dec.finish().unwrap();

        let restored = BuddyAllocator::from_snapshot(&decoded);
        assert_eq!(restored.free_state_digest(), b.free_state_digest());
        assert_eq!(restored.stats(), b.stats());
        assert_eq!(restored.free_pages(), b.free_pages());

        // Canonical: decoding and re-encoding reproduces the bytes.
        let mut enc2 = Enc::new();
        decoded.encode_into(&mut enc2);
        assert_eq!(enc2.into_bytes(), bytes);
    }

    #[test]
    fn corrupt_snapshot_bytes_are_typed_errors_not_panics() {
        let b = BuddyAllocator::new(frames(8));
        let mut enc = Enc::new();
        b.snapshot().encode_into(&mut enc);
        let bytes = enc.into_bytes();

        // Every truncation point decodes to an error, never a panic.
        for len in 0..bytes.len() {
            let mut dec = Dec::new(&bytes[..len]);
            assert!(
                BuddySnapshot::decode(&mut dec).is_err(),
                "truncation at {len} must fail"
            );
        }

        // An out-of-zone PFN in the first non-empty free list.
        let mut evil = bytes.clone();
        // frames(8) zone: first populated list entry follows some empty
        // list counts; find the first nonzero count and poison its pfn.
        let mut off = 8; // skip frames
        loop {
            let count = u64::from_le_bytes(evil[off..off + 8].try_into().unwrap());
            off += 8;
            if count > 0 {
                evil[off..off + 8].copy_from_slice(&u64::MAX.to_le_bytes());
                break;
            }
        }
        let mut dec = Dec::new(&evil);
        assert_eq!(
            BuddySnapshot::decode(&mut dec).err(),
            Some(SnapError::Corrupt("free-list pfn beyond zone"))
        );
    }

    #[test]
    fn exhaustive_alloc_free_is_balanced() {
        let mut b = BuddyAllocator::new(frames(8));
        let mut held = Vec::new();
        for order in [0u8, 1, 2, 3, 0, 5, 0, 7, 2] {
            held.push((b.alloc(order, MigrateType::Unmovable).unwrap(), order));
        }
        for (p, order) in held.drain(..) {
            b.free(p, order);
        }
        assert_eq!(b.free_pages(), frames(8));
        // Everything coalesced back to maximal blocks (possibly under
        // either migration type after stealing).
        let info = b.pagetypeinfo();
        let max_blocks = info.unmovable.counts[10] + info.movable.counts[10];
        assert_eq!(max_blocks, frames(8) >> 10);
    }

    /// Encodes a snapshot stream field by field, so tests can state
    /// inconsistent images the allocator itself never produces.
    fn raw_stream(
        frames: u64,
        free: &[(MigrateType, u8, &[u64])],
        free_index: &[(u64, u8, MigrateType)],
        allocated: &[(u64, u8, MigrateType)],
        pcp: [&[u64]; 2],
    ) -> Vec<u8> {
        let mut enc = Enc::new();
        enc.u64(frames);
        for mt in MigrateType::ALL {
            for order in 0..MAX_ORDER {
                let list: &[u64] = free
                    .iter()
                    .find(|&&(m, o, _)| m == mt && o == order)
                    .map_or(&[], |&(_, _, l)| l);
                enc.u64(list.len() as u64);
                for &pfn in list {
                    enc.u64(pfn);
                }
            }
        }
        for index in [free_index, allocated] {
            enc.u64(index.len() as u64);
            for &(pfn, order, mt) in index {
                enc.u64(pfn);
                enc.u8(order);
                enc.u8(mt.index() as u8);
            }
        }
        let config = PcpConfig::standard();
        enc.u64(config.high as u64);
        enc.u64(config.batch as u64);
        for lane in pcp {
            enc.u64(lane.len() as u64);
            for &pfn in lane {
                enc.u64(pfn);
            }
        }
        for _ in 0..7 {
            enc.u64(0);
        }
        enc.into_bytes()
    }

    fn decode_err(bytes: &[u8]) -> Option<SnapError> {
        BuddySnapshot::decode(&mut Dec::new(bytes)).err()
    }

    /// Regression: PFN 0 on both the unmovable and the movable order-10
    /// list once decoded cleanly, and the restored allocator handed out
    /// `Pfn(0)` twice across five order-10 allocations.
    #[test]
    fn pfn_on_two_free_lists_is_rejected() {
        use MigrateType::{Movable, Unmovable};
        let bytes = raw_stream(
            frames(16),
            &[(Movable, 10, &[3072, 2048, 1024, 0]), (Unmovable, 10, &[0])],
            &[
                (0, 10, Movable),
                (1024, 10, Movable),
                (2048, 10, Movable),
                (3072, 10, Movable),
            ],
            &[],
            [&[], &[]],
        );
        assert_eq!(
            decode_err(&bytes),
            Some(SnapError::Corrupt("pfn on two free lists"))
        );
    }

    #[test]
    fn every_double_ownership_and_index_lie_is_a_typed_error() {
        use MigrateType::{Movable, Unmovable};
        let zone = frames(8); // two order-10 blocks: 0 and 1024
        let index = [(0, 10, Movable), (1024, 10, Movable)];
        let lists: &[(MigrateType, u8, &[u64])] = &[(Movable, 10, &[0, 1024])];
        // The consistent image decodes.
        let good = raw_stream(zone, lists, &index, &[], [&[], &[]]);
        assert_eq!(decode_err(&good), None);

        let cases: [(Vec<u8>, &str); 9] = [
            (
                raw_stream(
                    zone,
                    &[(Movable, 10, &[1024])],
                    &[(1024, 10, Movable)],
                    &[],
                    [&[7], &[7]],
                ),
                "pfn in two pcp lanes",
            ),
            (
                raw_stream(zone, lists, &index, &[(1024, 0, Unmovable)], [&[], &[]]),
                "pfn both free and allocated",
            ),
            (
                raw_stream(zone, lists, &index, &[], [&[], &[1500]]),
                "pcp pfn inside a free block",
            ),
            (
                raw_stream(
                    zone,
                    &[(Movable, 10, &[1024])],
                    &[(1024, 10, Movable)],
                    &[(0, 9, Movable)],
                    [&[], &[3]],
                ),
                "pcp pfn inside an allocated block",
            ),
            (
                raw_stream(
                    zone,
                    &[(Movable, 10, &[1024])],
                    &[(1024, 10, Movable)],
                    &[(0, 9, Movable), (256, 0, Movable)],
                    [&[], &[]],
                ),
                "overlapping allocated blocks",
            ),
            (
                raw_stream(
                    zone,
                    &[(Movable, 10, &[1024])],
                    &[(1024, 10, Movable)],
                    &[(zone, 0, Movable)],
                    [&[], &[]],
                ),
                "block index pfn beyond zone",
            ),
            (
                raw_stream(zone, lists, &[(0, 10, Movable)], &[], [&[], &[]]),
                "free index disagrees with the free lists",
            ),
            (
                raw_stream(
                    zone,
                    lists,
                    &[(0, 10, Movable), (1024, 10, Unmovable)],
                    &[],
                    [&[], &[]],
                ),
                "free index disagrees with the free lists",
            ),
            (
                raw_stream(
                    zone,
                    &[(Movable, 10, &[1024]), (Movable, 9, &[256])],
                    &[(256, 9, Movable), (1024, 10, Movable)],
                    &[],
                    [&[], &[]],
                ),
                "block misaligned for its order",
            ),
        ];
        for (bytes, why) in cases {
            assert_eq!(decode_err(&bytes), Some(SnapError::Corrupt(why)), "{why}");
        }
    }

    #[test]
    fn the_zone_size_word_allocates_nothing_by_itself() {
        // A stream claiming a 2^60-frame zone decodes without reserving
        // anything in proportion to it, so a caller can reject the size
        // (as `Host::from_snapshot_state` does against the geometry)
        // before `from_snapshot` builds the table.
        let bytes = raw_stream(1 << 60, &[], &[], &[], [&[], &[]]);
        let snap = BuddySnapshot::decode(&mut Dec::new(&bytes)).unwrap();
        assert_eq!(snap.total_frames(), 1 << 60);
    }

    /// Any mutation of a real snapshot either fails to decode or
    /// restores an allocator in which every frame has at most one owner
    /// and which never hands the same frame out twice.
    #[test]
    fn mutated_snapshots_error_or_restore_single_ownership() {
        let zone = frames(4);
        let mut b = BuddyAllocator::new(zone);
        let mut held = Vec::new();
        for order in [0u8, 3, 0, 1, 0, 2] {
            held.push(b.alloc(order, MigrateType::Unmovable).unwrap());
        }
        let thp = b.alloc(9, MigrateType::Movable).unwrap();
        b.split_allocated(thp, 9);
        let pages: Vec<Pfn> = (0..20)
            .map(|_| b.alloc_page(MigrateType::Movable).unwrap())
            .collect();
        for &p in pages.iter().step_by(3) {
            b.free_page(p);
        }
        let snap = b.snapshot();
        let mut enc = Enc::new();
        snap.encode_into(&mut enc);
        let pristine = enc.into_bytes();

        let (mut accepted, mut rejected) = (0, 0);
        hh_sim::check::cases(0xb0de, 512, |rng| {
            let pick_mt = |rng: &mut hh_sim::rng::SimRng| MigrateType::ALL[rng.gen_range(0..2)];
            let bytes = if rng.gen_bool(0.3) {
                // Byte-level damage anywhere in the stream.
                let mut bytes = pristine.clone();
                let at = rng.gen_range(0..bytes.len() - 8);
                match rng.gen_range(0u32..3) {
                    0 => bytes[at] ^= 1 << rng.gen_range(0u32..8),
                    1 => {
                        let word = rng.gen_range(0..zone + 2);
                        bytes[at..at + 8].copy_from_slice(&word.to_le_bytes());
                    }
                    _ => {
                        let from = rng.gen_range(0..bytes.len() - 8);
                        bytes.copy_within(from..from + 8, at);
                    }
                }
                bytes
            } else {
                // Structural damage that keeps the stream well formed:
                // blocks added, dropped, moved or duplicated, with a
                // free index that usually agrees with the lists.
                let mut free = snap.free.clone();
                let mut allocated = snap.allocated.clone();
                let mut pcp = MigrateType::ALL.map(|mt| snap.pcp.lane(mt).to_vec());
                for _ in 0..rng.gen_range(1usize..3) {
                    let order = rng.gen_range(0..MAX_ORDER);
                    let base = rng.gen_range(0..zone) & !((1u64 << order) - 1);
                    let mt = pick_mt(rng);
                    let list = &mut free[mt.index()][order as usize];
                    match rng.gen_range(0u32..6) {
                        0 => list.push(base),
                        1 => pcp[mt.index()].push(base),
                        2 => allocated.push((base, order, mt)),
                        3 if !list.is_empty() => {
                            let at = rng.gen_range(0..list.len());
                            list.remove(at);
                        }
                        4 if !list.is_empty() => {
                            let at = rng.gen_range(0..list.len());
                            let moved = list.remove(at);
                            free[mt.fallback().index()][order as usize].push(moved);
                        }
                        5 if !list.is_empty() => {
                            let dup = list[rng.gen_range(0..list.len())];
                            if rng.gen_bool(0.5) {
                                pcp[mt.index()].push(dup);
                            } else {
                                free[mt.fallback().index()][order as usize].push(dup);
                            }
                        }
                        _ => {}
                    }
                }
                allocated.sort_unstable_by_key(|e| e.0);
                allocated.dedup_by_key(|e| e.0);
                let mut index = BuddySnapshot {
                    free: free.clone(),
                    ..snap.clone()
                }
                .free_index();
                index.dedup_by_key(|e| e.0);
                if rng.gen_bool(0.2) {
                    index = snap.free_index();
                }
                let mut lists = Vec::new();
                for mt in MigrateType::ALL {
                    for (order, list) in free[mt.index()].iter().enumerate() {
                        lists.push((mt, order as u8, list.as_slice()));
                    }
                }
                raw_stream(zone, &lists, &index, &allocated, [&pcp[0], &pcp[1]])
            };
            let Ok(decoded) = BuddySnapshot::decode(&mut Dec::new(&bytes)) else {
                rejected += 1;
                return;
            };
            accepted += 1;
            let mut restored = BuddyAllocator::from_snapshot(&decoded);
            let mut owners = vec![0u8; zone as usize];
            let mut own = |base: u64, order: u8| {
                for f in base..base + (1 << order) {
                    owners[f as usize] += 1;
                }
            };
            for mt in MigrateType::ALL {
                for order in 0..MAX_ORDER {
                    for &base in restored.area.list(mt, order as usize) {
                        own(base, order);
                    }
                }
                for &pfn in restored.pcp.lane(mt) {
                    own(pfn, 0);
                }
            }
            let allocated = restored.area.allocated_blocks();
            for &(base, order, _) in &allocated {
                own(base, order);
            }
            assert!(owners.iter().all(|&n| n <= 1), "a frame has two owners");
            // Drain every free frame: each comes out once, never from
            // inside an allocated block, and the count matches.
            let free = restored.free_pages();
            let mut handed = vec![false; zone as usize];
            for &(base, order, _) in &allocated {
                handed[base as usize..(base + (1 << order)) as usize].fill(true);
            }
            let mut drained = 0;
            loop {
                let p = match restored.alloc_page(MigrateType::Movable) {
                    Ok(p) => p,
                    Err(_) => match restored.alloc(0, MigrateType::Unmovable) {
                        Ok(p) => p,
                        Err(_) => break,
                    },
                };
                assert!(!handed[p.index() as usize], "frame {p} handed out twice");
                handed[p.index() as usize] = true;
                drained += 1;
            }
            assert_eq!(drained, free);
        });
        assert!(
            accepted > 100 && rejected > 100,
            "accepted {accepted}, rejected {rejected}"
        );
    }
}
