//! Corruption-injection tests: `ldck` must stay silent on clean images and
//! flag each seeded corruption class with the right finding kind.
//!
//! Each test builds a cleanly shut down image (so a checkpoint exists),
//! seeds one specific corruption at the raw-byte level, and asserts that
//! the checker reports the corresponding error — the same classes a broken
//! cable, a firmware bug, or a misdirected write would produce.

use ld_core::wire::fnv1a64;
use ld_core::{FailureSet, LdError, ListHints, LogicalDisk, Pred, PredList};
use ldck::{check_image, Kind, Severity};
use lld::checkpoint::{peek_image, CheckpointPeek, CheckpointView};
use lld::records::{Record, Stamped, SummaryBuilder};
use lld::{Layout, Lld, LldConfig, SegState};
use simdisk::{MemDisk, SECTOR_SIZE};

fn config() -> LldConfig {
    LldConfig::small_for_tests()
}

/// Formats a small disk, runs a mixed workload, shuts down cleanly, and
/// returns the raw image plus its layout and parsed checkpoint.
fn clean_image() -> (Vec<u8>, Layout, CheckpointView) {
    let config = config();
    let mut ld = Lld::format(MemDisk::with_capacity(2 << 20), config.clone()).expect("format");
    let lid = ld
        .new_list(PredList::Start, ListHints::default())
        .expect("new_list");
    let mut prev = None;
    for i in 0..24u8 {
        let pred = prev.map_or(Pred::Start, Pred::After);
        let bid = ld.new_block(lid, pred).expect("new_block");
        ld.write(bid, &vec![i; 4096]).expect("write");
        prev = Some(bid);
    }
    // Delete a few so the summaries carry non-trivial history.
    let blocks = ld.list_blocks(lid).expect("list_blocks");
    for b in blocks.iter().take(3) {
        ld.delete_block(*b, lid, None).expect("delete_block");
    }
    ld.flush(FailureSet::PowerFailure).expect("flush");
    ld.shutdown().expect("shutdown");
    let image = ld.into_disk().image_bytes();

    let layout = Layout::compute(
        (image.len() / SECTOR_SIZE) as u64,
        config.segment_bytes,
        config.summary_bytes,
    );
    let CheckpointPeek::Valid(view) = peek_image(&image, &layout) else {
        panic!("clean shutdown must leave a valid checkpoint");
    };
    (image, layout, view)
}

fn kinds(report: &ldck::Report) -> Vec<Kind> {
    report.findings.iter().map(|f| f.kind).collect()
}

#[test]
fn clean_image_passes_silently() {
    let (image, _, _) = clean_image();
    let report = check_image(&image, &config());
    assert!(report.is_clean(), "unexpected: {:?}", report.findings);
    // Not merely error-free: a pristine checkpointed image has no findings
    // of any severity.
    assert!(report.findings.is_empty(), "noisy: {:?}", report.findings);
    assert!(report.stats.checkpoint);
    assert!(report.stats.blocks > 0 && report.stats.lists > 0);
}

#[test]
fn checkpointless_clean_image_passes_the_sweep() {
    let (mut image, _, _) = clean_image();
    // Clear the checkpoint marker — the state a crashed-after-restart
    // instance leaves behind. The sweep replay must agree.
    image[6] = 0;
    let report = check_image(&image, &config());
    assert!(report.is_clean(), "unexpected: {:?}", report.findings);
    assert!(!report.stats.checkpoint);
    assert!(kinds(&report).contains(&Kind::CheckpointAbsent));
}

/// Class 1: bit flips inside a live segment's summary. The segment's
/// records vanish (checksummed summaries fail closed), so the checkpoint's
/// usage table and block map now reference a dead segment.
#[test]
fn summary_bit_flip_is_flagged() {
    let (image, layout, view) = clean_image();
    let live_seg = view
        .usage
        .iter()
        .position(|u| u.state == SegState::Live && u.live_bytes > 0)
        .expect("a live segment") as u32;
    let base = layout.summary_base(live_seg) as usize * SECTOR_SIZE;
    for probe in [0usize, 9, 33] {
        let mut bad = image.clone();
        bad[base + probe] ^= 0x40;
        let report = check_image(&bad, &config());
        assert!(!report.is_clean(), "flip at +{probe} went unnoticed");
        let ks = kinds(&report);
        assert!(
            ks.contains(&Kind::LiveSegmentWithoutSummary)
                || ks.contains(&Kind::MappedBlockInDeadSegment),
            "flip at +{probe}: wrong findings {:?}",
            report.findings
        );
    }
}

/// Class 2: a torn or truncated checkpoint payload under a marker that
/// still claims validity — impossible by crash (the marker sector is
/// written last), so it must be reported as corruption.
#[test]
fn truncated_checkpoint_payload_is_flagged() {
    let (image, layout, view) = clean_image();
    let payload_seg = *view.payload_segments.first().expect("payload segment");
    let base = layout.segment_base(payload_seg) as usize * SECTOR_SIZE;

    // Zero the tail of the payload's first segment: a truncation.
    let mut bad = image.clone();
    bad[base + 64..base + layout.segment_bytes].fill(0);
    let report = check_image(&bad, &config());
    assert!(!report.is_clean());
    assert!(
        kinds(&report).contains(&Kind::CheckpointCorrupt),
        "wrong findings: {:?}",
        report.findings
    );

    // A single flipped payload byte is equally fatal.
    let mut bad = image.clone();
    bad[base + 40] ^= 0x01;
    let report = check_image(&bad, &config());
    assert!(kinds(&report).contains(&Kind::CheckpointCorrupt));
}

/// Rewrites the checkpoint payload via `tamper` (which may also resize it)
/// and re-stamps the header's payload length and checksum, simulating
/// consistent-looking but wrong checkpoint tables (e.g. a buggy shutdown
/// path).
fn patch_payload(
    image: &mut [u8],
    layout: &Layout,
    view: &CheckpointView,
    tamper: impl FnOnce(&mut Vec<u8>),
) {
    // magic(4) ver(2) marker(1) pad(1), then len(8) and checksum(8).
    let (header_len_at, header_checksum_at) = (8, 16);
    let payload_len = {
        let b: [u8; 8] = image[8..16].try_into().expect("fixed");
        u64::from_le_bytes(b) as usize
    };
    let mut payload = Vec::with_capacity(view.payload_segments.len() * layout.segment_bytes);
    for &seg in &view.payload_segments {
        let base = layout.segment_base(seg) as usize * SECTOR_SIZE;
        payload.extend_from_slice(&image[base..base + layout.segment_bytes]);
    }
    payload.truncate(payload_len);
    tamper(&mut payload);
    let checksum = fnv1a64(&payload);
    for (i, &seg) in view.payload_segments.iter().enumerate() {
        let chunk_start = i * layout.segment_bytes;
        if chunk_start >= payload.len() {
            break;
        }
        let chunk = &payload[chunk_start..payload.len().min(chunk_start + layout.segment_bytes)];
        let base = layout.segment_base(seg) as usize * SECTOR_SIZE;
        image[base..base + chunk.len()].copy_from_slice(chunk);
    }
    image[header_len_at..header_len_at + 8].copy_from_slice(&(payload.len() as u64).to_le_bytes());
    image[header_checksum_at..header_checksum_at + 8].copy_from_slice(&checksum.to_le_bytes());
}

/// Class 3: the segment usage table disagrees with the block map — here a
/// live-byte count inflated behind a correct checksum. This is the
/// accounting the cleaner trusts when picking victims.
#[test]
fn tampered_usage_accounting_is_flagged() {
    let (mut image, layout, view) = clean_image();
    let nsegs = view.usage.len();
    let live_idx = view
        .usage
        .iter()
        .position(|u| u.state == SegState::Live && u.live_bytes > 0)
        .expect("a live segment");
    patch_payload(&mut image, &layout, &view, |payload| {
        // The usage table is the payload's tail: u32 count, then per
        // segment state(1) + live_bytes(8) + last_write_ts(8).
        let entry = payload.len() - nsegs * 17 + live_idx * 17;
        assert_eq!(payload[entry], 1, "expected a Live state byte");
        let lb: [u8; 8] = payload[entry + 1..entry + 9].try_into().expect("fixed");
        let inflated = u64::from_le_bytes(lb) + 512;
        payload[entry + 1..entry + 9].copy_from_slice(&inflated.to_le_bytes());
    });
    let report = check_image(&image, &config());
    assert!(!report.is_clean());
    assert!(
        kinds(&report).contains(&Kind::LiveBytesMismatch),
        "wrong findings: {:?}",
        report.findings
    );
}

/// Appends a bad-block remap table holding `sectors` verbatim to a
/// fault-free checkpoint, whose payload ends with the usage table.
fn forge_remap_table(image: &mut [u8], layout: &Layout, view: &CheckpointView, sectors: &[u64]) {
    assert!(
        view.bad_sectors.is_empty(),
        "image already has a remap table"
    );
    patch_payload(image, layout, view, |payload| {
        payload.extend_from_slice(&(sectors.len() as u64).to_le_bytes());
        for s in sectors {
            payload.extend_from_slice(&s.to_le_bytes());
        }
    });
}

/// A remap table claiming a sector under a live block. Scrub relocates
/// data before it remaps a sector, so no honest image pairs a live extent
/// with a bad sector.
#[test]
fn live_block_on_remapped_sector_is_flagged() {
    let (mut image, layout, view) = clean_image();
    let live_sector = view
        .blocks
        .iter()
        .find(|(_, b)| b.seg < layout.segments && b.stored_len > 0)
        .map(|(_, b)| {
            layout
                .data_sector_span(b.seg, b.offset as usize, b.stored_len as usize)
                .0
        })
        .expect("an on-disk live block");
    forge_remap_table(&mut image, &layout, &view, &[live_sector]);
    let report = check_image(&image, &config());
    assert_eq!(report.stats.bad_sectors, 1, "the forged table must parse");
    assert!(!report.is_clean());
    assert!(
        kinds(&report).contains(&Kind::LiveBlockOnBadSector),
        "wrong findings: {:?}",
        report.findings
    );
}

/// The scrubber serializes a sorted set, so an unsorted remap table is
/// structurally malformed.
#[test]
fn unsorted_remap_table_is_flagged() {
    let (mut image, layout, view) = clean_image();
    let s0 = layout.segment_base(0);
    forge_remap_table(&mut image, &layout, &view, &[s0 + 1, s0]);
    let report = check_image(&image, &config());
    assert_eq!(report.stats.bad_sectors, 2, "the forged table must parse");
    assert!(!report.is_clean());
    assert!(
        kinds(&report).contains(&Kind::RemapTableMalformed),
        "wrong findings: {:?}",
        report.findings
    );
}

/// The lists, their blocks and every block's bytes, in list-of-lists order.
type Tables = Vec<(ld_core::Lid, Vec<(ld_core::Bid, Vec<u8>)>)>;

/// Opens `image` with LLD and reads back its whole state.
fn open_image(image: &[u8]) -> ld_core::Result<(bool, Tables)> {
    let mut disk = MemDisk::with_capacity(image.len() as u64);
    disk.load_image(image);
    let mut ld = Lld::open(disk, config())?;
    let mut tables = Vec::new();
    for lid in ld.list_of_lists() {
        let mut blocks = Vec::new();
        for bid in ld.list_blocks(lid)? {
            let mut buf = vec![0u8; 4096];
            let n = ld.read(bid, &mut buf)?;
            buf.truncate(n);
            blocks.push((bid, buf));
        }
        tables.push((lid, blocks));
    }
    Ok((ld.stats().recovered_from_checkpoint, tables))
}

/// One clean-shutdown image taken through each way the checkpoint reader
/// can reject it. Start-up and `ldck` parse the checkpoint with the same
/// reader; this pins what `Lld::open` does and what `ldck` reports for
/// each class. Where start-up sweeps, it must rebuild exactly the state
/// the checkpoint holds.
#[test]
fn checkpoint_rejection_classes_agree_between_open_and_ldck() {
    let (image, layout, view) = clean_image();
    let ldck_kinds = |image: &[u8]| kinds(&check_image(image, &config()));

    // (a) Intact: start-up loads the checkpoint; ldck has nothing to say.
    let (from_checkpoint, tables) = open_image(&image).expect("open intact image");
    assert!(from_checkpoint);
    assert!(tables.iter().any(|(_, blocks)| !blocks.is_empty()));
    assert_eq!(ldck_kinds(&image), vec![]);

    let swept = |image: &[u8], class: &str| {
        let (from_checkpoint, swept) = open_image(image).expect("open falls back to the sweep");
        assert!(!from_checkpoint, "{class}: the checkpoint must be rejected");
        assert_eq!(
            swept, tables,
            "{class}: the sweep must rebuild the checkpoint's state"
        );
    };

    // (b) Marker cleared: the post-crash state, not corruption.
    let mut cleared = image.clone();
    cleared[6] = 0;
    swept(&cleared, "marker cleared");
    assert_eq!(ldck_kinds(&cleared), vec![Kind::CheckpointAbsent]);

    // (c) A payload byte flipped: the checksum fails.
    let mut flipped = image.clone();
    let base = layout.segment_base(view.payload_segments[0]) as usize * SECTOR_SIZE;
    flipped[base + 40] ^= 0x01;
    swept(&flipped, "payload byte flipped");
    assert_eq!(ldck_kinds(&flipped), vec![Kind::CheckpointCorrupt]);

    // (d) A header segment id past the end of the disk.
    let mut out_of_range = image.clone();
    out_of_range[28..32].copy_from_slice(&layout.segments.to_le_bytes());
    swept(&out_of_range, "segment id out of range");
    assert_eq!(ldck_kinds(&out_of_range), vec![Kind::CheckpointCorrupt]);

    // (e) A payload that passes its checksum but does not parse: start-up
    // refuses the image rather than sweeping past a forged checkpoint.
    let mut unparsable = image.clone();
    patch_payload(&mut unparsable, &layout, &view, |payload| {
        payload.truncate(20)
    });
    match open_image(&unparsable) {
        Err(LdError::Device(msg)) => assert!(msg.contains("failed to parse"), "{msg}"),
        other => panic!("unparsable checkpoint: expected a device error, got {other:?}"),
    }
    assert_eq!(ldck_kinds(&unparsable), vec![Kind::CheckpointCorrupt]);
}

/// Class 4: one segment's summary copied over another's (a misdirected
/// write). Both summaries then carry the same physical-write sequence
/// number, which the writer never produces.
#[test]
fn duplicated_summary_is_flagged() {
    let (image, layout, view) = clean_image();
    let live: Vec<u32> = view
        .usage
        .iter()
        .enumerate()
        .filter_map(|(s, u)| (u.state == SegState::Live).then_some(s as u32))
        .collect();
    let (src, dst) = (live[0], *live.last().expect("two live segments"));
    assert_ne!(src, dst, "workload must fill at least two segments");
    let s = layout.summary_base(src) as usize * SECTOR_SIZE;
    let d = layout.summary_base(dst) as usize * SECTOR_SIZE;
    let mut bad = image.clone();
    let copy: Vec<u8> = bad[s..s + layout.summary_bytes].to_vec();
    bad[d..d + layout.summary_bytes].copy_from_slice(&copy);
    let report = check_image(&bad, &config());
    assert!(!report.is_clean());
    assert!(
        kinds(&report).contains(&Kind::DuplicateSummarySeq),
        "wrong findings: {:?}",
        report.findings
    );
}

/// Class 5: a forged summary whose records make two blocks claim
/// overlapping byte ranges of one segment — checked through the sweep
/// (checkpoint marker cleared so the replay is authoritative).
#[test]
fn overlapping_extents_are_flagged() {
    let (mut image, layout, view) = clean_image();
    image[6] = 0; // Force sweep mode.

    // Highest ts/seq so the forged records win the replay ordering.
    let ts0 = view.ts + 10;
    let forged_seq = view.seq + 10;
    let free_seg = view
        .usage
        .iter()
        .position(|u| u.state == SegState::Free)
        .expect("a free segment") as u32;

    let mut b = SummaryBuilder::new();
    let stamp = |ts: u64, rec: Record| Stamped {
        ts,
        ends_aru: true,
        aru: None,
        rec,
    };
    b.push(stamp(
        ts0,
        Record::NewList {
            lid: 99,
            pred: None,
            hints: ListHints::default(),
        },
    ));
    b.push(stamp(
        ts0 + 1,
        Record::NewBlock {
            bid: 9001,
            lid: 99,
            size_class: 4096,
        },
    ));
    b.push(stamp(
        ts0 + 2,
        Record::WriteBlock {
            bid: 9001,
            offset: 0,
            stored_len: 4096,
            logical_len: 4096,
            compressed: false,
        },
    ));
    b.push(stamp(
        ts0 + 3,
        Record::NewBlock {
            bid: 9002,
            lid: 99,
            size_class: 4096,
        },
    ));
    b.push(stamp(
        ts0 + 4,
        // Overlaps 9001's 0..4096 extent.
        Record::WriteBlock {
            bid: 9002,
            offset: 2048,
            stored_len: 4096,
            logical_len: 4096,
            compressed: false,
        },
    ));
    b.push(stamp(
        ts0 + 5,
        Record::ListHead {
            lid: 99,
            first: Some(9001),
        },
    ));
    b.push(stamp(
        ts0 + 6,
        Record::Link {
            bid: 9001,
            next: Some(9002),
        },
    ));
    b.push(stamp(
        ts0 + 7,
        Record::Link {
            bid: 9002,
            next: None,
        },
    ));
    let summary = b.finish(forged_seq, layout.summary_bytes);
    let base = layout.summary_base(free_seg) as usize * SECTOR_SIZE;
    image[base..base + layout.summary_bytes].copy_from_slice(&summary);

    let report = check_image(&image, &config());
    assert!(!report.is_clean());
    assert!(
        kinds(&report).contains(&Kind::OverlappingExtents),
        "wrong findings: {:?}",
        report.findings
    );
}

/// Class 6: a summary whose physical-write sequence says "latest" but
/// whose newest record timestamp is older than records already durable
/// under earlier sequences — the signature of a queued segment write
/// reordered across a seal (the command queue must keep writes FIFO).
#[test]
fn reordered_seal_is_flagged() {
    let (mut image, layout, view) = clean_image();
    image[6] = 0; // Sweep mode; the checkpoint is not under test.

    // Newest sequence on the medium, but a timestamp from the distant
    // past: as if this segment write jumped the queue.
    let mut b = SummaryBuilder::new();
    b.push(Stamped {
        ts: 2,
        ends_aru: true,
        aru: None,
        rec: Record::EndAru,
    });
    let summary = b.finish(view.seq + 10, layout.summary_bytes);
    let free_seg = view
        .usage
        .iter()
        .position(|u| u.state == SegState::Free)
        .expect("a free segment") as u32;
    let base = layout.summary_base(free_seg) as usize * SECTOR_SIZE;
    image[base..base + layout.summary_bytes].copy_from_slice(&summary);

    let report = check_image(&image, &config());
    assert!(!report.is_clean());
    assert!(
        kinds(&report).contains(&Kind::SealReordered),
        "wrong findings: {:?}",
        report.findings
    );
}

/// A trailing explicit ARU that never ended is *not* corruption: recovery
/// discards it by design (§3.1). `ldck` reports it as info and stays
/// green.
#[test]
fn incomplete_trailing_aru_is_info_not_error() {
    let config = config();
    let mut ld = Lld::format(MemDisk::with_capacity(2 << 20), config.clone()).expect("format");
    let lid = ld
        .new_list(PredList::Start, ListHints::default())
        .expect("new_list");
    // Durable baseline, then an ARU big enough to seal segments mid-unit.
    let b0 = ld.new_block(lid, Pred::Start).expect("new_block");
    ld.write(b0, &[7u8; 4096]).expect("write");
    ld.flush(FailureSet::PowerFailure).expect("flush");
    ld.begin_aru().expect("begin_aru");
    let mut prev = b0;
    for i in 0..20u8 {
        let bid = ld.new_block(lid, Pred::After(prev)).expect("new_block");
        ld.write(bid, &vec![i; 4096]).expect("write");
        prev = bid;
    }
    // Crash with the ARU still open: sealed segments hold its records.
    let image = ld.into_disk().image_bytes();
    let report = check_image(&image, &config);
    assert!(report.is_clean(), "unexpected: {:?}", report.findings);
    let aru = report
        .findings
        .iter()
        .find(|f| f.kind == Kind::IncompleteAru)
        .expect("incomplete ARU must be reported");
    assert_eq!(aru.severity, Severity::Info);
}
