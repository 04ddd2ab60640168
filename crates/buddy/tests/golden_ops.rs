//! A pinned golden for the allocator's observable behaviour.
//!
//! A seeded random sequence of every public mutating operation (block
//! and page allocation at every order and migration type, both free
//! paths, rejected frees, re-typing, THP splits, snapshot and free-state
//! restore) runs on a 16 MiB zone. After each operation every returned
//! PFN or error and the order-sensitive `free_state_digest()` are folded
//! into one `u64`; at the end the lifetime stats and the encoded
//! snapshot bytes are folded in too. The expected constants were
//! recorded with the hash-map allocator that preceded the per-frame
//! table, so any change to allocation order, LIFO reuse, coalescing or
//! the snapshot encoding shows up here, including on paths the campaign
//! fixtures never reach.

use hh_buddy::{
    AllocError, BuddyAllocator, BuddySnapshot, FreeError, MigrateType, PcpConfig, MAX_ORDER,
};
use hh_sim::addr::Pfn;
use hh_sim::rng::SimRng;
use hh_sim::snap::{Dec, Enc};

const FRAMES: u64 = 16 << 20 >> 12;
const OPS: usize = 4000;

/// FNV-1a over 64-bit words.
struct Fold(u64);

impl Fold {
    fn word(&mut self, w: u64) {
        self.0 ^= w;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }

    fn alloc(&mut self, r: Result<Pfn, AllocError>) -> Option<Pfn> {
        match r {
            Ok(p) => {
                self.word(p.index());
                Some(p)
            }
            Err(AllocError::OutOfMemory { order }) => {
                self.word(0xe000 | order as u64);
                None
            }
            Err(AllocError::OrderTooLarge { order }) => {
                self.word(0xe100 | order as u64);
                None
            }
            Err(AllocError::Transient) => {
                self.word(0xe200);
                None
            }
        }
    }

    fn free_err(&mut self, r: Result<(), FreeError>) {
        match r {
            Ok(()) => panic!("a free the sequence expects to be rejected succeeded"),
            Err(FreeError::NotAllocated { base }) => self.word(0xf000_0000 ^ base.index()),
            Err(FreeError::WrongOrder {
                base,
                allocated_order,
            }) => self.word(0xf100_0000 ^ base.index() << 4 ^ allocated_order as u64),
        }
    }
}

fn mt(rng: &mut SimRng) -> MigrateType {
    if rng.gen_bool(0.5) {
        MigrateType::Unmovable
    } else {
        MigrateType::Movable
    }
}

/// Mostly small orders, so the zone does not run dry at once, with
/// every order (and the first invalid one) reachable.
fn order(rng: &mut SimRng) -> u8 {
    if rng.gen_bool(0.8) {
        rng.gen_range(0u8..4)
    } else {
        rng.gen_range(0u8..MAX_ORDER + 1)
    }
}

fn take<T>(rng: &mut SimRng, v: &mut Vec<T>) -> Option<T> {
    (!v.is_empty()).then(|| {
        let i = rng.gen_range(0..v.len());
        v.swap_remove(i)
    })
}

/// A snapshot with the blocks and pages held when it was taken.
type Saved = (BuddySnapshot, Vec<(Pfn, u8)>, Vec<Pfn>);

fn run(pcp: PcpConfig, seed: u64) -> u64 {
    let mut rng = SimRng::seed_from(seed);
    let mut b = BuddyAllocator::with_pcp(FRAMES, pcp);
    // Blocks held at their allocation order, and order-0 pages (from
    // `alloc_page` or a split block).
    let mut blocks: Vec<(Pfn, u8)> = Vec::new();
    let mut pages: Vec<Pfn> = Vec::new();
    let mut saved: Option<Saved> = None;
    let mut h = Fold(0xcbf2_9ce4_8422_2325);
    for _ in 0..OPS {
        let op = rng.gen_range(0u32..100);
        h.word(op as u64);
        match op {
            0..=22 => {
                let o = order(&mut rng);
                let t = mt(&mut rng);
                if let Some(p) = h.alloc(b.alloc(o, t)) {
                    blocks.push((p, o));
                }
            }
            23..=42 => {
                let t = mt(&mut rng);
                if let Some(p) = h.alloc(b.alloc_page(t)) {
                    pages.push(p);
                }
            }
            43..=62 => {
                if let Some((p, o)) = take(&mut rng, &mut blocks) {
                    b.free(p, o);
                }
            }
            63..=80 => {
                if let Some(p) = take(&mut rng, &mut pages) {
                    // Split pages and PCP pages free through either path.
                    if rng.gen_bool(0.7) {
                        b.free_page(p);
                    } else {
                        b.free(p, 0);
                    }
                }
            }
            81..=84 => {
                if let Some(&(p, o)) = blocks.last() {
                    h.free_err(b.try_free(p, (o + 1) % MAX_ORDER));
                    if o > 0 {
                        h.free_err(b.try_free(Pfn::new(p.index() + 1), 0));
                    }
                }
            }
            85..=89 => {
                if !blocks.is_empty() {
                    let (p, o) = blocks[rng.gen_range(0..blocks.len())];
                    b.set_migrate_type(p, o, mt(&mut rng));
                }
            }
            90..=93 => {
                if let Some((p, o)) = take(&mut rng, &mut blocks) {
                    b.split_allocated(p, o);
                    pages.extend((0..1u64 << o).map(|i| Pfn::new(p.index() + i)));
                }
            }
            94..=96 => saved = Some((b.snapshot(), blocks.clone(), pages.clone())),
            _ => {
                if let Some((snap, held_blocks, held_pages)) = &saved {
                    b.restore_free_state(snap);
                    blocks.clone_from(held_blocks);
                    pages.clone_from(held_pages);
                }
            }
        }
        h.word(b.free_state_digest());
        h.word(b.free_pages());
    }
    let s = b.stats();
    for v in [
        s.allocs,
        s.frees,
        s.splits,
        s.merges,
        s.steals,
        s.pcp_hits,
        s.pcp_refills,
    ] {
        h.word(v);
    }
    let mut enc = Enc::new();
    b.snapshot().encode_into(&mut enc);
    let bytes = enc.into_bytes();
    for chunk in bytes.chunks(8) {
        let mut w = [0u8; 8];
        w[..chunk.len()].copy_from_slice(chunk);
        h.word(u64::from_le_bytes(w));
    }
    let decoded = BuddySnapshot::decode(&mut Dec::new(&bytes)).expect("own snapshot decodes");
    assert_eq!(
        BuddyAllocator::from_snapshot(&decoded).free_state_digest(),
        b.free_state_digest()
    );
    // Drain what is left so the end state is covered too.
    for (p, o) in blocks {
        b.free(p, o);
    }
    for p in pages {
        b.free_page(p);
    }
    assert_eq!(b.free_pages(), FRAMES);
    h.word(b.free_state_digest());
    h.0
}

#[test]
fn seeded_op_sequence_matches_pinned_digest_with_standard_pcp() {
    assert_eq!(
        run(PcpConfig::standard(), 0x601d_0001),
        17_569_821_259_608_287_082
    );
}

#[test]
fn seeded_op_sequence_matches_pinned_digest_without_pcp() {
    assert_eq!(
        run(PcpConfig::disabled(), 0x601d_0002),
        14_072_258_031_425_257_475
    );
}
