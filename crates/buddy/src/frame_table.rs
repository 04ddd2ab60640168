//! Per-frame allocator metadata and the LIFO free lists it indexes.
//!
//! The kernel's `free_area` lists are intrusive doubly-linked lists with
//! head insertion and head removal, giving LIFO reuse (recently freed
//! blocks are allocated first) plus O(1) removal of an arbitrary block
//! when its buddy coalesces. [`FreeArea`] reproduces both properties
//! with one `Vec<u64>` stack per (migratetype, order) and a
//! [`FrameTable`] that records, for every block base, whether it heads
//! a free or an allocated block, its order and migratetype, and (for a
//! free block) its position in its stack.
//!
//! LIFO reuse is load-bearing for the reproduction: Page Steering counts
//! on the hypervisor re-using the sub-blocks the VM *just* released.
//!
//! # Layout
//!
//! An entry is a tag byte plus a `u32` stack slot. Entries sit in
//! 32-frame chunks (32 tags, then 32 slots: 160 bytes). A chunk is
//! handed out the first time a frame in it is written; a chunk that was
//! never written reads as all zero, and tag 0 means "heads no block"
//! (block interiors and PCP-cached pages). So a zone costs a 4-byte
//! directory entry per 32 frames plus 160 bytes per chunk its blocks
//! have actually touched: a dense `tiny` zone ends up with every chunk,
//! while a sparsely used one stays small.
//!
//! Chunks come from fixed-size slabs of 32 (5 KiB), not from one
//! growing vector or one box each. Every cell of a campaign builds and
//! drops a table; same-size slabs are what the heap reuses cell after
//! cell without fragmenting, which keeps a long-running campaign
//! server's resident memory flat. Flat per-zone arrays, a doubling
//! chunk vector, one box per chunk and 64-frame chunks in 20 KiB slabs
//! all measured higher server peak RSS (see the crate docs).

use crate::allocator::MAX_ORDER;
use crate::MigrateType;

const CHUNK_SHIFT: u32 = 5;
const CHUNK_MASK: u64 = (1 << CHUNK_SHIFT) - 1;
const CHUNK_FRAMES: usize = 1 << CHUNK_SHIFT;

/// Tag bit: the frame heads a free block on a buddy list.
const FREE: u8 = 0x80;
/// Tag bit: the frame heads an allocated block.
const ALLOCATED: u8 = 0x40;
/// Tag bit: the block is `Movable` (clear: `Unmovable`).
const MOVABLE: u8 = 0x10;
/// Tag bits holding the block order.
const ORDER: u8 = 0x0f;

fn tag(kind: u8, order: u8, mt: MigrateType) -> u8 {
    let mt_bit = match mt {
        MigrateType::Unmovable => 0,
        MigrateType::Movable => MOVABLE,
    };
    kind | mt_bit | order
}

fn untag(tag: u8) -> (u8, MigrateType) {
    let mt = if tag & MOVABLE != 0 {
        MigrateType::Movable
    } else {
        MigrateType::Unmovable
    };
    (tag & ORDER, mt)
}

#[derive(Debug, Clone, Copy)]
struct Chunk {
    tags: [u8; CHUNK_FRAMES],
    slots: [u32; CHUNK_FRAMES],
}

impl Chunk {
    const ZERO: Chunk = Chunk {
        tags: [0; CHUNK_FRAMES],
        slots: [0; CHUNK_FRAMES],
    };
}

/// Chunks per slab.
const SLAB_CHUNKS: usize = 32;

/// Lazily chunked per-frame entries: `(tag, slot)` per page frame.
///
/// Chunks are handed out in first-write order from fixed-size slabs,
/// and the directory maps a chunk number to its position in them.
#[derive(Debug, Clone)]
pub(crate) struct FrameTable {
    /// Chunk number → 1 + its position in the slabs, or 0 if never
    /// written.
    dir: Vec<u32>,
    slabs: Vec<Box<[Chunk; SLAB_CHUNKS]>>,
    /// Chunks handed out so far.
    used: u32,
}

impl FrameTable {
    /// An all-zero table for a zone of `frames` frames.
    fn new(frames: u64) -> Self {
        Self {
            dir: vec![0; frames.div_ceil(CHUNK_FRAMES as u64) as usize],
            slabs: Vec::new(),
            used: 0,
        }
    }

    #[inline]
    fn chunk(&self, pfn: u64) -> Option<&Chunk> {
        match self.dir.get((pfn >> CHUNK_SHIFT) as usize) {
            Some(&k) if k != 0 => {
                let k = k as usize - 1;
                Some(&self.slabs[k / SLAB_CHUNKS][k % SLAB_CHUNKS])
            }
            _ => None,
        }
    }

    #[inline]
    fn chunk_mut(&mut self, pfn: u64) -> &mut Chunk {
        let i = (pfn >> CHUNK_SHIFT) as usize;
        if self.dir[i] == 0 {
            if (self.used as usize).is_multiple_of(SLAB_CHUNKS) {
                self.slabs.push(Box::new([Chunk::ZERO; SLAB_CHUNKS]));
            }
            self.used += 1;
            self.dir[i] = self.used;
        }
        let k = self.dir[i] as usize - 1;
        &mut self.slabs[k / SLAB_CHUNKS][k % SLAB_CHUNKS]
    }

    #[inline]
    fn tag(&self, pfn: u64) -> u8 {
        self.chunk(pfn)
            .map_or(0, |c| c.tags[(pfn & CHUNK_MASK) as usize])
    }

    #[inline]
    fn slot(&self, pfn: u64) -> u32 {
        self.chunk(pfn)
            .map_or(0, |c| c.slots[(pfn & CHUNK_MASK) as usize])
    }

    #[inline]
    fn set(&mut self, pfn: u64, tag: u8, slot: u32) {
        let c = self.chunk_mut(pfn);
        let j = (pfn & CHUNK_MASK) as usize;
        c.tags[j] = tag;
        c.slots[j] = slot;
    }

    #[inline]
    fn set_tag(&mut self, pfn: u64, tag: u8) {
        self.chunk_mut(pfn).tags[(pfn & CHUNK_MASK) as usize] = tag;
    }

    #[inline]
    fn set_slot(&mut self, pfn: u64, slot: u32) {
        self.chunk_mut(pfn).slots[(pfn & CHUNK_MASK) as usize] = slot;
    }

    /// Tags every frame "heads no block", keeping the chunks allocated.
    fn clear(&mut self) {
        for chunk in self.slabs.iter_mut().flat_map(|slab| slab.iter_mut()) {
            chunk.tags = [0; CHUNK_FRAMES];
        }
    }
}

/// The buddy free lists plus the per-frame table indexing them and the
/// allocated blocks.
#[derive(Debug, Clone)]
pub(crate) struct FreeArea {
    /// `stacks[migratetype][order]`, bottom to top; the top is the most
    /// recently freed block.
    stacks: FreeStacks,
    table: FrameTable,
    /// Pages in all free blocks, kept as blocks come and go.
    pages: u64,
}

/// `[migratetype][order]` stacks of free block bases.
pub(crate) type FreeStacks = [[Vec<u64>; MAX_ORDER as usize]; 2];

impl FreeArea {
    /// An empty area (no free blocks, nothing allocated) for a zone of
    /// `frames` frames.
    pub fn new(frames: u64) -> Self {
        Self {
            stacks: Default::default(),
            table: FrameTable::new(frames),
            pages: 0,
        }
    }

    /// Rebuilds the area from free stacks and `(base, order, mt)`
    /// allocated blocks, reusing this area's memory.
    pub fn load(&mut self, stacks: &FreeStacks, allocated: &[(u64, u8, MigrateType)]) {
        self.table.clear();
        self.stacks.clone_from(stacks);
        self.pages = 0;
        for mt in MigrateType::ALL {
            for (order, stack) in stacks[mt.index()].iter().enumerate() {
                let order = order as u8;
                for (slot, &base) in stack.iter().enumerate() {
                    self.table.set(base, tag(FREE, order, mt), slot as u32);
                }
                self.pages += (stack.len() as u64) << order;
            }
        }
        for &(base, order, mt) in allocated {
            self.table.set_tag(base, tag(ALLOCATED, order, mt));
        }
    }

    /// The free stacks (snapshot hook).
    pub fn stacks(&self) -> &FreeStacks {
        &self.stacks
    }

    /// One free stack, bottom to top.
    pub fn list(&self, mt: MigrateType, order: usize) -> &[u64] {
        &self.stacks[mt.index()][order]
    }

    /// Pages in all free blocks.
    pub fn pages(&self) -> u64 {
        self.pages
    }

    /// Pushes a free block to the top of its stack.
    ///
    /// # Panics
    ///
    /// Panics if the block is already free (double free).
    pub fn push(&mut self, base: u64, order: u8, mt: MigrateType) {
        assert!(
            self.table.tag(base) & FREE == 0,
            "block {base:#x} already on free list"
        );
        let stack = &mut self.stacks[mt.index()][order as usize];
        // A stack never holds more blocks than the zone has frames, and
        // zones stay far below 2^32 frames.
        self.table
            .set(base, tag(FREE, order, mt), stack.len() as u32);
        stack.push(base);
        self.pages += 1 << order;
    }

    /// Pops the most recently freed block of `(mt, order)`.
    pub fn pop(&mut self, mt: MigrateType, order: u8) -> Option<u64> {
        let base = self.stacks[mt.index()][order as usize].pop()?;
        self.table.set_tag(base, 0);
        self.pages -= 1 << order;
        Some(base)
    }

    /// Removes the free block of exactly `order` at `base` (the buddy
    /// coalescing path), moving the top of its stack into the hole.
    /// Returns its migratetype, or `None` (and changes nothing) if no
    /// such free block exists.
    pub fn take(&mut self, base: u64, order: u8) -> Option<MigrateType> {
        let t = self.table.tag(base);
        if t & FREE == 0 || t & ORDER != order {
            return None;
        }
        let (_, mt) = untag(t);
        let slot = self.table.slot(base);
        let stack = &mut self.stacks[mt.index()][order as usize];
        stack.swap_remove(slot as usize);
        if let Some(&moved) = stack.get(slot as usize) {
            self.table.set_slot(moved, slot);
        }
        self.table.set_tag(base, 0);
        self.pages -= 1 << order;
        Some(mt)
    }

    /// Order and migratetype of the free block headed by `base`.
    pub fn free_block(&self, base: u64) -> Option<(u8, MigrateType)> {
        let t = self.table.tag(base);
        (t & FREE != 0).then(|| untag(t))
    }

    /// Order and migratetype of the allocated block headed by `base`.
    pub fn allocated(&self, base: u64) -> Option<(u8, MigrateType)> {
        let t = self.table.tag(base);
        (t & ALLOCATED != 0).then(|| untag(t))
    }

    /// Records an allocated block at `base`.
    pub fn mark_allocated(&mut self, base: u64, order: u8, mt: MigrateType) {
        self.table.set_tag(base, tag(ALLOCATED, order, mt));
    }

    /// Forgets the allocated block at `base`.
    pub fn unmark_allocated(&mut self, base: u64) {
        self.table.set_tag(base, 0);
    }

    /// Every allocated block as `(base, order, mt)`, by ascending base.
    pub fn allocated_blocks(&self) -> Vec<(u64, u8, MigrateType)> {
        let mut out = Vec::new();
        for (i, &k) in self.table.dir.iter().enumerate() {
            if k == 0 {
                continue;
            }
            let k = k as usize - 1;
            let chunk = &self.table.slabs[k / SLAB_CHUNKS][k % SLAB_CHUNKS];
            for (j, &t) in chunk.tags.iter().enumerate() {
                if t & ALLOCATED != 0 {
                    let (order, mt) = untag(t);
                    out.push(((i << CHUNK_SHIFT | j) as u64, order, mt));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MT: MigrateType = MigrateType::Movable;

    #[test]
    fn lifo_order() {
        let mut fa = FreeArea::new(1 << 12);
        fa.push(1, 0, MT);
        fa.push(2, 0, MT);
        fa.push(3, 0, MT);
        assert_eq!(fa.pop(MT, 0), Some(3));
        assert_eq!(fa.pop(MT, 0), Some(2));
        assert_eq!(fa.pop(MT, 0), Some(1));
        assert_eq!(fa.pop(MT, 0), None);
    }

    #[test]
    fn remove_middle_keeps_index_consistent() {
        let mut fa = FreeArea::new(1 << 12);
        for i in 0..10 {
            fa.push(i, 0, MT);
        }
        assert_eq!(fa.take(4, 0), Some(MT));
        assert_eq!(fa.take(4, 0), None);
        assert_eq!(fa.free_block(4), None);
        assert_eq!(fa.list(MT, 0).len(), 9);
        // Every remaining block is still indexed at its stack position…
        for (slot, &base) in fa.list(MT, 0).iter().enumerate() {
            assert_eq!(fa.table.slot(base), slot as u32);
        }
        // …and poppable exactly once.
        let mut seen = Vec::new();
        while let Some(b) = fa.pop(MT, 0) {
            seen.push(b);
        }
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3, 5, 6, 7, 8, 9]);
        assert_eq!(fa.pages(), 0);
    }

    #[test]
    fn remove_head() {
        let mut fa = FreeArea::new(1 << 12);
        fa.push(10, 0, MT);
        fa.push(20, 0, MT);
        assert_eq!(fa.take(20, 0), Some(MT));
        assert_eq!(fa.pop(MT, 0), Some(10));
    }

    #[test]
    #[should_panic(expected = "already on free list")]
    fn double_push_panics() {
        let mut fa = FreeArea::new(1 << 12);
        fa.push(7, 0, MT);
        fa.push(7, 0, MT);
    }

    #[test]
    fn untouched_chunks_read_as_zero_and_stay_unallocated() {
        let mut fa = FreeArea::new(1 << 12);
        // Beyond the zone, and inside it before any write.
        assert_eq!(fa.free_block(1 << 30), None);
        assert_eq!(fa.allocated(130), None);
        assert!(fa.table.slabs.is_empty(), "reads must not allocate");
        fa.mark_allocated(130, 2, MigrateType::Unmovable);
        assert_eq!(fa.table.used, 1);
        assert_eq!(fa.allocated(130), Some((2, MigrateType::Unmovable)));
        assert_eq!(
            fa.allocated_blocks(),
            vec![(130, 2, MigrateType::Unmovable)]
        );
    }
}
