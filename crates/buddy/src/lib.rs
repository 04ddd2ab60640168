//! A behavioural model of the Linux buddy page allocator.
//!
//! HyperHammer's *Page Steering* (§4.2 of the paper) is entirely an
//! attack on allocator behaviour:
//!
//! * EPT and IOPT pages are **order-0 `MIGRATE_UNMOVABLE`** allocations;
//! * freed virtio-mem sub-blocks enter the free lists as **order-9
//!   blocks**;
//! * the allocator prefers the **smallest block** that satisfies a
//!   request, so the attacker must exhaust small-order blocks ("noise
//!   pages") before its released order-9 blocks are split for EPT pages;
//! * order-0 traffic flows through the **per-CPU pageset (PCP)** cache
//!   first, which is one of the noise sources the paper's spraying step
//!   must drown out (§4.2.3);
//! * when a migration type's lists are exhausted the kernel **steals**
//!   from the other type, largest block first.
//!
//! This crate implements those mechanics faithfully (single-zone,
//! single-node) so the paper's reuse ratios (Table 2) and noise-page
//! dynamics (Figure 3) *emerge* from allocator behaviour instead of being
//! scripted.
//!
//! # Metadata layout
//!
//! Every alloc and free goes through a per-frame table, not a hash map.
//! An entry is a tag byte (free or allocated, order, migratetype) plus
//! the `u32` position of a free block in its free-list stack, so buddy
//! lookup, coalescing removal and double-free detection are each one
//! array access. Free lists and PCP lanes are plain `Vec<u64>` stacks
//! with the kernel's LIFO order. The free-page count is kept as blocks
//! come and go.
//!
//! Entries sit in 32-frame chunks that are only allocated once a frame
//! in them is written, handed out from fixed 5 KiB slabs. A campaign
//! builds one allocator per cell, so memory per allocator matters as
//! much as speed. On the `server_micro` workload (a campaign server
//! running `micro` cells) these designs were measured (the first two
//! rows over six alternating pairs, the last two on earlier prototypes):
//!
//! | design | server peak RSS |
//! |---|---|
//! | hash maps (before) | 11.2–11.7 MiB |
//! | 32-frame chunks in 5 KiB slabs (this one) | 11.2–11.6 MiB |
//! | 32-frame chunks in 10 KiB slabs | 11.1–13.0 MiB |
//! | 64-frame chunks in one doubling `Vec`, one `Box` each or 20 KiB slabs | 11.3–13.0 MiB |
//! | flat per-frame `Vec`s sized by the zone | 12.9–14.4 MiB |
//! | `Arc`-shared 1024-frame copy-on-write chunks | 14.2–14.4 MiB |
//!
//! Arrays sized by the zone cost 320 KiB per `micro` cell whether used
//! or not; glibc's per-thread arenas then keep that memory after the
//! cell ends. Same-size slabs are reused cell after cell instead.
//! [`BuddySnapshot`] is sparse (free lists, allocated blocks, PCP
//! lanes), so a campaign template stays small and a restored `micro`
//! allocator touches only the chunks its blocks live in.
//!
//! # Example
//!
//! ```
//! use hh_buddy::{BuddyAllocator, MigrateType};
//!
//! // 64 MiB zone.
//! let mut buddy = BuddyAllocator::new(64 << 20 >> 12);
//! let ept_page = buddy.alloc(0, MigrateType::Unmovable)?;
//! let thp = buddy.alloc(9, MigrateType::Movable)?;
//! buddy.free(ept_page, 0);
//! buddy.free(thp, 9);
//! assert_eq!(buddy.free_pages(), 64 << 20 >> 12);
//! # Ok::<(), hh_buddy::AllocError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod allocator;
mod frame_table;
mod pcp;
mod report;

pub use allocator::{
    AllocError, AllocJitter, AllocStats, BuddyAllocator, BuddySnapshot, FreeError, MAX_ORDER,
};
pub use pcp::PcpConfig;
pub use report::{OrderCounts, PageTypeInfo};

/// Page migration types the paper's attack distinguishes (§2.4).
///
/// Linux has more (RECLAIMABLE, CMA, ISOLATE…); the attack only depends
/// on the UNMOVABLE/MOVABLE split: EPT/IOPT pages are unmovable, guest
/// RAM is movable until VFIO pins it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MigrateType {
    /// `MIGRATE_UNMOVABLE`: kernel allocations that cannot relocate
    /// (page tables, IOPTs, EPTs, pinned DMA buffers).
    Unmovable,
    /// `MIGRATE_MOVABLE`: regular anonymous/file memory.
    Movable,
}

impl MigrateType {
    /// Both migration types, in free-list index order.
    pub const ALL: [MigrateType; 2] = [MigrateType::Unmovable, MigrateType::Movable];

    /// Free-list index of the type.
    #[inline]
    pub(crate) fn index(self) -> usize {
        match self {
            MigrateType::Unmovable => 0,
            MigrateType::Movable => 1,
        }
    }

    /// The fallback type the kernel steals from when this type's lists
    /// are exhausted.
    pub fn fallback(self) -> MigrateType {
        match self {
            MigrateType::Unmovable => MigrateType::Movable,
            MigrateType::Movable => MigrateType::Unmovable,
        }
    }
}

impl std::fmt::Display for MigrateType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MigrateType::Unmovable => write!(f, "Unmovable"),
            MigrateType::Movable => write!(f, "Movable"),
        }
    }
}
