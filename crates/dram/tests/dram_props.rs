//! Property-based tests on the DRAM model's invariants, driven by the
//! deterministic `hh_sim::check` harness.

use hh_dram::geometry::{BankFunction, DramGeometry, ROW_SPAN};
use hh_dram::store::SparseStore;
use hh_dram::{DimmProfile, DramDevice, HammerPattern};
use hh_sim::check;
use hh_sim::Hpa;

/// (bank, row, column-within-slice) is a faithful decomposition:
/// distinct addresses never collide on all three coordinates.
#[test]
fn address_decomposition_is_injective() {
    check::cases(0xd4a1, check::DEFAULT_CASES, |rng| {
        let a = rng.gen_range(0u64..32 << 20) & !63;
        let b = rng.gen_range(0u64..32 << 20) & !63;
        if a == b {
            return;
        }
        let g = DramGeometry::new(BankFunction::xeon_e2124(), 32 << 20);
        let (ha, hb) = (Hpa::new(a), Hpa::new(b));
        let same_all = g.bank_of(ha) == g.bank_of(hb)
            && g.row_of(ha) == g.row_of(hb)
            && a % ROW_SPAN != b % ROW_SPAN; // same row+bank, different line: fine
                                             // Only assert true injectivity at identical in-row offsets.
        if g.row_of(ha) == g.row_of(hb) && a % ROW_SPAN == b % ROW_SPAN {
            panic!("same row and offset implies same address");
        }
        let _ = same_all;
    });
}

/// Each row slice for a bank has the same size: the row span divided
/// evenly by the bank count.
#[test]
fn slices_partition_rows() {
    check::cases(0xd4a2, 64, |rng| {
        let row = rng.gen_range(0u64..64);
        let g = DramGeometry::new(BankFunction::core_i3_10100(), 32 << 20);
        let per_bank = (ROW_SPAN / 64) / u64::from(g.bank_count());
        let mut total = 0usize;
        for bank in 0..g.bank_count() {
            let n = g.slice_addrs(bank, row).count();
            assert_eq!(n as u64, per_bank, "bank {bank} row {row}");
            total += n;
        }
        assert_eq!(total as u64, ROW_SPAN / 64);
    });
}

/// Hammering never flips a bit in the aggressor rows themselves, and
/// every flip lands within two rows of an aggressor, in its bank.
#[test]
fn flips_are_local_to_victim_rows() {
    check::cases(0xd4a3, 24, |rng| {
        let seed = rng.gen_range(0u64..64);
        let victim_row = rng.gen_range(4u64..60);
        let mut dev = DramDevice::new(DimmProfile::test_profile(32 << 20), seed);
        dev.fill(Hpa::new(0), 32 << 20, 0xff);
        for bank in 0..4 {
            let pattern = HammerPattern::single_sided_for(dev.geometry(), bank, victim_row);
            let aggressor_rows: Vec<u64> = pattern
                .aggressors()
                .iter()
                .map(|&a| dev.geometry().row_of(a))
                .collect();
            let result = dev.hammer(&pattern, 500_000);
            for flip in &result.flips {
                assert!(!aggressor_rows.contains(&flip.row), "flip in aggressor row");
                assert!(
                    aggressor_rows.iter().any(|&r| flip.row.abs_diff(r) <= 2),
                    "flip {} rows away",
                    aggressor_rows
                        .iter()
                        .map(|&r| flip.row.abs_diff(r))
                        .min()
                        .unwrap()
                );
                assert_eq!(flip.bank, bank);
            }
        }
    });
}

/// The flip journal and the backing store agree: every journaled flip
/// is visible in memory at the recorded location with the recorded
/// direction (until something overwrites it).
#[test]
fn journal_matches_store() {
    check::cases(0xd4a4, 8, |rng| {
        let seed = rng.gen_range(0u64..32);
        let mut dev = DramDevice::new(DimmProfile::test_profile(16 << 20), seed);
        dev.fill(Hpa::new(0), 16 << 20, 0xff);
        for row in (3..40).step_by(7) {
            for bank in 0..8 {
                let p = HammerPattern::single_sided_for(dev.geometry(), bank, row);
                dev.hammer(&p, 450_000);
            }
        }
        // Journal entries whose cell was not hit twice must match memory.
        let mut seen = std::collections::HashSet::new();
        let journal: Vec<_> = dev.flip_journal().to_vec();
        for f in journal.iter().rev() {
            if !seen.insert((f.hpa, f.bit)) {
                continue; // earlier flip at same cell was overwritten
            }
            let byte = dev.store().read_u8(f.hpa);
            assert_eq!((byte >> f.bit) & 1, f.direction.target_bit());
        }
    });
}

/// Store `fill` is equivalent to writing every byte.
#[test]
fn fill_equals_bytewise_writes() {
    check::cases(0xd4a5, 64, |rng| {
        let start = rng.gen_range(0u64..0x2000);
        let len = rng.gen_range(1u64..0x1000);
        let value = rng.gen_range(0u64..256) as u8;
        let mut a = SparseStore::new(0x4000);
        let mut b = SparseStore::new(0x4000);
        let len = len.min(0x4000 - start);
        a.fill(Hpa::new(start), len, value);
        for i in 0..len {
            b.write_u8(Hpa::new(start + i), value);
        }
        for i in 0..0x4000u64 {
            assert_eq!(a.read_u8(Hpa::new(i)), b.read_u8(Hpa::new(i)));
        }
    });
}

/// u64 accessors agree with byte accessors at every alignment.
#[test]
fn u64_accessors_match_bytes() {
    check::cases(0xd4a6, check::DEFAULT_CASES, |rng| {
        let addr = rng.gen_range(0u64..0x3ff8);
        let value = rng.next_u64();
        let mut s = SparseStore::new(0x4000);
        s.write_u64(Hpa::new(addr), value);
        let mut bytes = [0u8; 8];
        for (i, b) in bytes.iter_mut().enumerate() {
            *b = s.read_u8(Hpa::new(addr + i as u64));
        }
        assert_eq!(u64::from_le_bytes(bytes), value);
        assert_eq!(s.read_u64(Hpa::new(addr)), value);
    });
}

/// Puts page 0 of `mem` into one of the store's page forms: absent,
/// uniform, patched or dense.
fn shape_page(rng: &mut hh_sim::SimRng, mem: &mut SparseStore) -> &'static str {
    let page = hh_sim::PAGE_SIZE;
    match rng.gen_range(0u32..4) {
        0 => "absent",
        1 => {
            mem.fill(Hpa::new(0), page, rng.gen_range(0u64..256) as u8);
            "uniform"
        }
        2 => {
            mem.fill(Hpa::new(0), page, rng.gen_range(0u64..256) as u8);
            for _ in 0..rng.gen_range(1u64..40) {
                let value = rng.gen_range(0u64..256) as u8;
                mem.write_u8(Hpa::new(rng.gen_range(0..page)), value);
            }
            "patched"
        }
        _ => {
            let mut bytes = Box::new([0u8; hh_sim::PAGE_SIZE as usize]);
            rng.fill_bytes(bytes.as_mut_slice());
            mem.write_page(Hpa::new(0), bytes);
            "dense"
        }
    }
}

fn encoded(mem: &SparseStore) -> Vec<u8> {
    let mut enc = hh_sim::snap::Enc::new();
    mem.encode_into(&mut enc);
    enc.into_bytes()
}

/// `reset_page_with_word` and whole-page `fill` give the same store, in
/// memory and encoded, as a `fill` + `write_u64` sequence onto a page
/// shared with a fork (which takes the fresh-allocation path), from
/// every page form; a page a fork sibling shares is never touched.
#[test]
fn page_resets_equal_fill_then_write_from_every_page_form() {
    check::cases(0xd4b0, check::DEFAULT_CASES, |rng| {
        let page = hh_sim::PAGE_SIZE;
        let mut mem = SparseStore::new(4 * page);
        let form = shape_page(rng, &mut mem);
        // Page 1 keeps an unrelated patch so a slot mix-up shows.
        mem.write_u8(Hpa::new(page + 3), 0x7e);
        let sibling = rng.gen_bool(0.5).then(|| mem.clone());
        let sibling_bytes = sibling.as_ref().map(encoded);

        let fill = if rng.gen_bool(0.3) {
            0
        } else {
            rng.gen_range(0u64..256) as u8
        };
        let offset = rng.gen_range(0..page - 7);
        // Some word bytes equal the fill, so the compact form must drop
        // exactly those.
        let word = u64::from_le_bytes(std::array::from_fn(|_| {
            if rng.gen_bool(0.4) {
                fill
            } else {
                rng.gen_range(0u64..256) as u8
            }
        }));

        let mut reference = mem.clone();
        let pin = reference.clone();
        reference.fill(Hpa::new(0), page, fill);
        reference.write_u64(Hpa::new(offset), word);
        drop(pin);

        let mut reset = mem.clone();
        drop(mem);
        reset.reset_page_with_word(Hpa::new(0), fill, offset as u16, word);
        assert_eq!(reset, reference, "reset_page_with_word from a {form} page");
        assert_eq!(encoded(&reset), encoded(&reference), "{form} page bytes");
        assert_eq!(reset.resident_pages(), reference.resident_pages());

        let mut filled = reset.clone();
        let pin = filled.clone();
        filled.fill(Hpa::new(0), page, fill);
        let mut filled_in_place = pin;
        drop(reset);
        filled_in_place.fill(Hpa::new(0), page, fill);
        assert_eq!(
            filled, filled_in_place,
            "whole-page fill after a {form} reset"
        );

        if let (Some(sibling), Some(bytes)) = (sibling, sibling_bytes) {
            assert_eq!(
                encoded(&sibling),
                bytes,
                "fork sibling of a {form} page changed"
            );
        }
    });
}
