//! Corruption-injection suite: every tampered file fails **closed**.
//!
//! Attacks are deterministic — byte positions come from the pure
//! [`salted_pick`] hash (seed × class salt), never from ambient
//! randomness — and cover each block class of the format: the manifest
//! (flips, truncations at every byte, version bumps with *valid*
//! checksums), the data file (header flips, body flips across every
//! block, cross-directory transplants, truncation), and the WAL (flips,
//! torn tails, double-written tails). The required outcome everywhere is
//! a typed [`StoreError`] from [`Store::open`] — never a panic, and
//! never a silently wrong graph.

use std::fs;
use std::path::{Path, PathBuf};

use spanner_graph::generators;
use spanner_store::blocks::{encode_blocks, HEADER_SALT};
use spanner_store::checksum::{checksum, salted_pick};
use spanner_store::manifest::{Manifest, DATA_SALT, MANIFEST_LEN, MANIFEST_SALT};
use spanner_store::wal::{encode_record, Edit, RECORD_LEN};
use spanner_store::{scratch_dir, DynamicStore, SnapshotMeta, Store, StoreError};

/// A saved snapshot with a non-empty WAL, payload large enough to span
/// several 4 KiB blocks.
fn fixture(tag: &str) -> PathBuf {
    let dir = scratch_dir(tag);
    let csr = generators::connected_gnm_csr(600, 2000, 23);
    let spanner: Vec<(u32, u32)> = csr
        .forward_edges()
        .filter(|(e, _, _)| e.0 % 2 == 0)
        .map(|(_, a, b)| (a.0, b.0))
        .collect();
    let meta = SnapshotMeta {
        k: 2,
        seed: 23,
        routing: false,
    };
    let mut store = DynamicStore::create(&dir, &csr, &spanner, meta).expect("create fixture");
    assert!(store.insert(0, 599).expect("insert"));
    assert!(store.delete(0, 599).expect("delete"));
    assert_eq!(store.wal_len(), 2);
    dir
}

/// Opens must fail with a typed error — any variant, but an error.
fn assert_fails_closed(dir: &Path, context: &str) -> StoreError {
    match Store::open(dir) {
        Ok(_) => panic!("{context}: tampered snapshot opened successfully"),
        Err(e) => e,
    }
}

fn flip_byte(path: &Path, at: usize) {
    let mut bytes = fs::read(path).expect("read for tampering");
    bytes[at] ^= 0x5A;
    fs::write(path, bytes).expect("write tampered");
}

#[test]
fn manifest_byte_flips_fail_closed() {
    let dir = fixture("cor-man");
    let path = dir.join("MANIFEST");
    let pristine = fs::read(&path).expect("read manifest");
    assert_eq!(pristine.len(), MANIFEST_LEN);
    for seed in 0..32u64 {
        let at = salted_pick(seed, 0x01, pristine.len());
        flip_byte(&path, at);
        let err = assert_fails_closed(&dir, "manifest flip");
        assert!(
            matches!(
                err,
                StoreError::BadMagic { .. }
                    | StoreError::Checksum { .. }
                    | StoreError::Version { .. }
            ),
            "manifest flip at {at}: unexpected {err}"
        );
        fs::write(&path, &pristine).expect("restore");
    }
    Store::open(&dir).expect("restored manifest loads");
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn manifest_truncated_mid_write_fails_closed() {
    let dir = fixture("cor-mantrunc");
    let path = dir.join("MANIFEST");
    let pristine = fs::read(&path).expect("read manifest");
    for cut in 0..pristine.len() {
        fs::write(&path, &pristine[..cut]).expect("truncate");
        let err = assert_fails_closed(&dir, "manifest truncation");
        assert!(
            matches!(
                err,
                StoreError::BadMagic { .. } | StoreError::Truncated { what: "manifest" }
            ),
            "cut {cut}: unexpected {err}"
        );
    }
    fs::write(&path, &pristine).expect("restore");
    Store::open(&dir).expect("restored manifest loads");
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn data_file_flips_fail_closed_in_every_block() {
    let dir = fixture("cor-data");
    let path = dir.join("blocks-1.dat");
    let pristine = fs::read(&path).expect("read data");
    assert!(pristine.len() > 4104 * 3, "fixture should span 3+ blocks");
    // One deterministic flip inside every 4 KiB block record, plus the
    // header.
    let records = (pristine.len() - 32) / 4104;
    for index in 0..=records {
        let (lo, hi) = if index == 0 {
            (0, 32)
        } else {
            (32 + (index - 1) * 4104, 32 + index * 4104)
        };
        let at = lo + salted_pick(index as u64, 0x02, hi - lo);
        flip_byte(&path, at);
        let err = assert_fails_closed(&dir, "data flip");
        // A header flip may land on the magic bytes (BadMagic) or any
        // other header byte (Checksum); body flips are always Checksum.
        assert!(
            matches!(err, StoreError::Checksum { .. })
                || (index == 0 && matches!(err, StoreError::BadMagic { .. })),
            "flip at {at} (block record {index}): unexpected {err}"
        );
        fs::write(&path, &pristine).expect("restore");
    }
    Store::open(&dir).expect("restored data loads");
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn data_file_truncation_fails_closed() {
    let dir = fixture("cor-datatrunc");
    let path = dir.join("blocks-1.dat");
    let pristine = fs::read(&path).expect("read data");
    for seed in 0..16u64 {
        let cut = salted_pick(seed, 0x03, pristine.len());
        fs::write(&path, &pristine[..cut]).expect("truncate");
        let err = assert_fails_closed(&dir, "data truncation");
        assert!(
            matches!(err, StoreError::Truncated { what: "data file" }),
            "cut {cut}: unexpected {err}"
        );
    }
    fs::write(&path, &pristine).expect("restore");
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn transplanted_data_file_fails_closed() {
    // Two directories, both at generation 1, different graphs: the
    // foreign data file is internally pristine, but it is not the file
    // the manifest committed to.
    let dir_a = fixture("cor-transa");
    let dir_b = scratch_dir("cor-transb");
    let csr = generators::grid_csr(20, 20);
    let meta = SnapshotMeta {
        k: 2,
        seed: 1,
        routing: false,
    };
    Store::save(&dir_b, &csr, &[], meta).expect("save b");
    fs::copy(dir_b.join("blocks-1.dat"), dir_a.join("blocks-1.dat")).expect("transplant");
    let err = assert_fails_closed(&dir_a, "transplanted data file");
    assert!(
        matches!(
            err,
            StoreError::Checksum { .. } | StoreError::Truncated { what: "data file" }
        ),
        "unexpected {err}"
    );
    fs::remove_dir_all(&dir_a).ok();
    fs::remove_dir_all(&dir_b).ok();
}

#[test]
fn wal_flips_and_double_written_tail_fail_closed() {
    let dir = fixture("cor-wal");
    let path = dir.join("wal-1.log");
    let pristine = fs::read(&path).expect("read wal");
    assert_eq!(pristine.len(), 2 * RECORD_LEN);
    // Deterministic byte flips.
    for seed in 0..16u64 {
        let at = salted_pick(seed, 0x04, pristine.len());
        flip_byte(&path, at);
        let err = assert_fails_closed(&dir, "wal flip");
        assert!(matches!(err, StoreError::Wal { .. }), "flip {at}: {err}");
        fs::write(&path, &pristine).expect("restore");
    }
    // Double-written tail: the last record appended twice (a retried
    // write). The duplicate carries a checksum for index 1, lands at
    // index 2, and must poison the log.
    let mut doubled = pristine.clone();
    doubled.extend_from_slice(&pristine[RECORD_LEN..]);
    fs::write(&path, &doubled).expect("double tail");
    let err = assert_fails_closed(&dir, "double-written tail");
    assert!(
        matches!(&err, StoreError::Wal { detail } if detail.starts_with("record 2")),
        "unexpected {err}"
    );
    // Torn tail: a partial final record.
    fs::write(&path, &pristine[..pristine.len() - 5]).expect("tear tail");
    let err = assert_fails_closed(&dir, "torn tail");
    assert!(
        matches!(&err, StoreError::Wal { detail } if detail.contains("torn tail")),
        "unexpected {err}"
    );
    fs::write(&path, &pristine).expect("restore");
    let state = Store::open(&dir).expect("restored wal loads");
    assert_eq!(state.edits.len(), 2);
    fs::remove_dir_all(&dir).ok();
}

/// The WAL's only size-bearing fields are a record's endpoints, which name
/// nodes. A checksum-valid tail record at the right index that claims the
/// largest canonical endpoints decodes (the codec does not know n), so the
/// replay must reject it with a typed error instead of growing any
/// per-node state to 2^32 entries.
#[test]
fn forged_wal_tail_sizes_are_typed_errors_not_allocations() {
    let dir = fixture("cor-forged-wal");
    let path = dir.join("wal-1.log");
    let pristine = fs::read(&path).expect("read wal");
    let huge = u32::MAX - 1;
    for edit in [Edit::Insert(0, huge), Edit::Delete(huge - 1, huge)] {
        let mut forged = pristine.clone();
        forged.extend_from_slice(&encode_record(edit, 1, 2));
        fs::write(&path, &forged).expect("forge tail");
        let state = Store::open(&dir).expect("a checksum-valid record decodes");
        assert_eq!(state.edits.last(), Some(&edit));
        match DynamicStore::open(&dir) {
            Ok(_) => panic!("{edit:?}: forged WAL tail replayed"),
            Err(err) => assert!(
                matches!(&err, StoreError::Wal { detail }
                    if detail.starts_with("record 2") && detail.contains("out of range")),
                "{edit:?}: unexpected {err}"
            ),
        }
    }
    fs::write(&path, &pristine).expect("restore");
    DynamicStore::open(&dir).expect("restored wal replays");
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn missing_wal_after_commit_fails_closed() {
    let dir = fixture("cor-nowal");
    fs::remove_file(dir.join("wal-1.log")).expect("remove wal");
    let err = assert_fails_closed(&dir, "missing wal");
    assert!(matches!(err, StoreError::Io { op: "read", .. }), "{err}");
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn version_bumps_with_valid_checksums_are_version_errors() {
    let dir = fixture("cor-version");
    // Manifest: claim version 9, recompute the self-checksum so only the
    // version check can object.
    let path = dir.join("MANIFEST");
    let pristine = fs::read(&path).expect("read manifest");
    let mut bumped = pristine.clone();
    bumped[8..12].copy_from_slice(&9u32.to_le_bytes());
    let sum = checksum(MANIFEST_SALT, &bumped[..MANIFEST_LEN - 8]);
    bumped[MANIFEST_LEN - 8..].copy_from_slice(&sum.to_le_bytes());
    fs::write(&path, &bumped).expect("bump manifest");
    let err = assert_fails_closed(&dir, "manifest version bump");
    assert!(
        matches!(
            err,
            StoreError::Version {
                what: "manifest",
                found: 9,
                ..
            }
        ),
        "unexpected {err}"
    );
    fs::write(&path, &pristine).expect("restore");

    // Data file: bump its header version, fix the header checksum, and
    // fix the manifest's whole-file checksum — three consistent lies,
    // still rejected, and rejected *as a version error*.
    let data_path = dir.join("blocks-1.dat");
    let mut data = fs::read(&data_path).expect("read data");
    data[8..12].copy_from_slice(&9u32.to_le_bytes());
    let headsum = checksum(spanner_store::blocks::HEADER_SALT ^ 1, &data[..24]);
    data[24..32].copy_from_slice(&headsum.to_le_bytes());
    fs::write(&data_path, &data).expect("bump data");
    let mut manifest = pristine.clone();
    let data_sum = checksum(DATA_SALT ^ 1, &data);
    manifest[28..36].copy_from_slice(&data_sum.to_le_bytes());
    let sum = checksum(MANIFEST_SALT, &manifest[..MANIFEST_LEN - 8]);
    manifest[MANIFEST_LEN - 8..].copy_from_slice(&sum.to_le_bytes());
    fs::write(&path, &manifest).expect("rewrite manifest");
    let err = assert_fails_closed(&dir, "data version bump");
    assert!(
        matches!(
            err,
            StoreError::Version {
                what: "blocks",
                found: 9,
                ..
            }
        ),
        "unexpected {err}"
    );
    fs::remove_dir_all(&dir).ok();
}

/// Replaces generation 1's data file with `data` and recommits the
/// manifest to it, so every checksum the store verifies holds.
fn commit_forged_data(dir: &Path, data: &[u8]) {
    fs::write(dir.join("blocks-1.dat"), data).expect("write forged data");
    let manifest = Manifest {
        generation: 1,
        data_len: data.len() as u64,
        data_sum: checksum(DATA_SALT ^ 1, data),
    };
    fs::write(dir.join("MANIFEST"), manifest.encode()).expect("write forged manifest");
}

/// Header-declared sizes must not drive allocations: a checksum-valid
/// payload declaring n = 2^32 - 2 nodes (and a block header declaring a
/// 1 TiB payload) is rejected with a typed error before any memory is
/// reserved for it.
#[test]
fn forged_sizes_are_typed_errors_not_allocations() {
    let dir = fixture("cor-forged-n");
    let mut payload = Vec::new();
    payload.extend_from_slice(&(u64::from(u32::MAX) - 1).to_le_bytes());
    payload.extend_from_slice(&0u64.to_le_bytes());
    commit_forged_data(&dir, &encode_blocks(&payload, 1));
    let err = assert_fails_closed(&dir, "forged node count");
    assert!(
        matches!(
            err,
            StoreError::Truncated { .. } | StoreError::Corrupt { .. }
        ),
        "forged node count: unexpected {err}"
    );

    let mut data = encode_blocks(&payload, 1);
    data[16..24].copy_from_slice(&(1u64 << 40).to_le_bytes());
    let headsum = checksum(HEADER_SALT ^ 1, &data[..24]);
    data[24..32].copy_from_slice(&headsum.to_le_bytes());
    commit_forged_data(&dir, &data);
    let err = assert_fails_closed(&dir, "forged payload length");
    assert!(
        matches!(
            err,
            StoreError::Truncated { .. } | StoreError::Corrupt { .. }
        ),
        "forged payload length: unexpected {err}"
    );
    fs::remove_dir_all(&dir).ok();
}
