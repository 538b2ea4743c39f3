//! The segmented log: append, sync watermark, atomic rotation,
//! checkpoint GC, crash-image faults, and longest-valid-prefix recovery.
//!
//! Durability contract: bytes behind the `synced` watermark survive every
//! crash; bytes after it are at the mercy of the injected
//! [`StorageFault`]. Rotation seals the outgoing segment (an implicit
//! sync — the file is closed and fsynced before the next one opens), so
//! an unsynced tail can only ever exist in the live segment.

use crate::frame::{append_frame, read_frame, FrameOutcome, RecordKind};

/// Sizing knobs for the segmented log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreConfig {
    /// Rotate to a fresh segment once the live one reaches this size.
    pub segment_bytes: usize,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            segment_bytes: 4096,
        }
    }
}

/// What happens to the unsynced tail when the process crashes. Synced
/// bytes always survive; the tail's fate mirrors real storage failure
/// modes. `None` models a kind crash where the page cache made it out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageFault {
    /// The page-cache window behind a lost fsync vanishes entirely.
    LostSyncWindow,
    /// A partial suffix of the tail made it to disk: the final record is
    /// torn mid-frame. `keep` seeds how many tail bytes survive.
    TornFinalRecord {
        /// Seeded draw; the surviving tail length is `keep % tail_len`.
        keep: u64,
    },
    /// One bit in the unsynced tail flips in place.
    BitFlip {
        /// Seeded byte offset into the tail (taken modulo its length).
        offset: u64,
        /// Which bit of that byte flips (taken modulo 8).
        bit: u8,
    },
}

/// Monotone counters describing one log's life.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Event records appended.
    pub events: u64,
    /// Checkpoint records appended.
    pub checkpoints: u64,
    /// Explicit `sync` calls.
    pub syncs: u64,
    /// Segment rotations (each seals the outgoing segment).
    pub rotations: u64,
    /// Segments compacted away by checkpoint GC.
    pub gc_segments: u64,
    /// High-water mark of simultaneously live segments.
    pub max_live_segments: u64,
    /// Recovery scans performed.
    pub recoveries: u64,
    /// Recoveries that hit an invalid frame and dropped a suffix.
    pub corrupt_recoveries: u64,
}

#[derive(Debug)]
struct Segment {
    buf: Vec<u8>,
    synced: usize,
    /// End offset of the last checkpoint frame in this segment, if any.
    /// GC keeps the newest segment whose checkpoint is fully synced.
    last_checkpoint_end: Option<usize>,
}

impl Segment {
    fn new() -> Self {
        Segment {
            buf: Vec::new(),
            synced: 0,
            last_checkpoint_end: None,
        }
    }
}

/// Result of a recovery scan: the newest checksum-valid checkpoint (if
/// any) plus every valid event record behind it, in append order.
#[derive(Debug)]
pub struct RecoveredLog {
    /// Payload of the newest valid checkpoint before the valid prefix
    /// ends, or `None` if the prefix contains no checkpoint.
    pub checkpoint: Option<Vec<u8>>,
    /// Event payloads appended after that checkpoint, oldest first.
    pub events: Vec<Vec<u8>>,
    /// What the scan saw and dropped.
    pub report: RecoveryReport,
}

/// Accounting for one recovery scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Checksum-valid frames scanned (events and checkpoints).
    pub frames: usize,
    /// Event records returned (behind the chosen checkpoint).
    pub events: usize,
    /// Whether a checkpoint anchored the recovery.
    pub used_checkpoint: bool,
    /// Whether the scan stopped at an invalid frame (vs a clean end).
    pub corrupted: bool,
    /// Bytes discarded past the first invalid frame.
    pub dropped_bytes: u64,
    /// Segments alive after the scan truncated the corruption away.
    pub live_segments: usize,
}

/// An in-memory model of a segmented on-disk write-ahead log. The
/// simulator owns virtual disks the same way it owns the virtual wire;
/// nothing here performs real I/O, but every durability decision (what
/// an fsync pins, what a rotation seals, what a crash may destroy) is
/// modelled explicitly so the recovery path can be driven through real
/// failure shapes.
#[derive(Debug)]
pub struct SegmentedLog {
    config: StoreConfig,
    segments: Vec<Segment>,
    stats: StoreStats,
}

impl SegmentedLog {
    /// An empty log with one live segment.
    pub fn new(config: StoreConfig) -> Self {
        SegmentedLog {
            config,
            segments: vec![Segment::new()],
            stats: StoreStats {
                max_live_segments: 1,
                ..StoreStats::default()
            },
        }
    }

    fn live(&mut self) -> &mut Segment {
        self.segments.last_mut().expect("at least one segment")
    }

    fn maybe_rotate(&mut self) {
        let full = {
            let live = self.live();
            !live.buf.is_empty() && live.buf.len() >= self.config.segment_bytes
        };
        if full {
            // Seal the outgoing segment: rotation closes and fsyncs the
            // old file before the new one takes writes.
            let live = self.live();
            live.synced = live.buf.len();
            self.segments.push(Segment::new());
            self.stats.rotations += 1;
            self.stats.max_live_segments =
                self.stats.max_live_segments.max(self.segments.len() as u64);
        }
    }

    /// Appends one event record (buffered, not yet durable).
    pub fn append_event(&mut self, payload: &[u8]) {
        self.maybe_rotate();
        append_frame(&mut self.live().buf, RecordKind::Event, payload);
        self.stats.events += 1;
    }

    /// Appends one checkpoint record (buffered, not yet durable).
    pub fn append_checkpoint(&mut self, payload: &[u8]) {
        self.maybe_rotate();
        let live = self.live();
        append_frame(&mut live.buf, RecordKind::Checkpoint, payload);
        live.last_checkpoint_end = Some(live.buf.len());
        self.stats.checkpoints += 1;
    }

    /// Makes everything written so far durable (fsync).
    pub fn sync(&mut self) {
        for seg in &mut self.segments {
            seg.synced = seg.buf.len();
        }
        self.stats.syncs += 1;
    }

    /// Total bytes across live segments.
    pub fn total_bytes(&self) -> usize {
        self.segments.iter().map(|s| s.buf.len()).sum()
    }

    /// Segments currently alive.
    pub fn live_segments(&self) -> usize {
        self.segments.len()
    }

    /// Counters so far.
    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    /// Checkpoint GC: drops every segment wholly behind the newest
    /// segment holding a fully synced checkpoint (the paper's "discard
    /// checkpoints once assumptions become definite"). Returns the
    /// number of segments compacted away.
    pub fn gc(&mut self) -> usize {
        let keep_from = self
            .segments
            .iter()
            .rposition(|s| s.last_checkpoint_end.is_some_and(|end| end <= s.synced));
        let Some(keep_from) = keep_from else {
            return 0;
        };
        let dropped = keep_from;
        self.segments.drain(..keep_from);
        self.stats.gc_segments += dropped as u64;
        dropped
    }

    /// Applies the crash image: synced bytes always survive; the
    /// unsynced tail survives, vanishes, tears, or takes a bit flip
    /// depending on `fault`. Afterwards the surviving bytes *are* the
    /// disk — everything is marked synced.
    pub fn crash(&mut self, fault: Option<StorageFault>) {
        match fault {
            None => {}
            Some(StorageFault::LostSyncWindow) => {
                for seg in &mut self.segments {
                    seg.buf.truncate(seg.synced);
                }
            }
            Some(StorageFault::TornFinalRecord { keep }) => {
                // The tail lives in the newest segment with one (sealed
                // segments are fully synced by rotation).
                if let Some(seg) = self
                    .segments
                    .iter_mut()
                    .rev()
                    .find(|s| s.buf.len() > s.synced)
                {
                    let tail = seg.buf.len() - seg.synced;
                    seg.buf.truncate(seg.synced + (keep as usize % tail));
                }
            }
            Some(StorageFault::BitFlip { offset, bit }) => {
                if let Some(seg) = self
                    .segments
                    .iter_mut()
                    .rev()
                    .find(|s| s.buf.len() > s.synced)
                {
                    let tail = seg.buf.len() - seg.synced;
                    let at = seg.synced + offset as usize % tail;
                    seg.buf[at] ^= 1 << (bit % 8);
                }
            }
        }
        for seg in &mut self.segments {
            seg.synced = seg.buf.len();
            if seg
                .last_checkpoint_end
                .is_some_and(|end| end > seg.buf.len())
            {
                seg.last_checkpoint_end = None;
            }
        }
    }

    /// Corruption helper for property tests: flips one bit anywhere in
    /// the log image (`byte` indexes the concatenation of all segments).
    pub fn flip_bit(&mut self, byte: u64, bit: u8) {
        let total = self.total_bytes();
        if total == 0 {
            return;
        }
        let mut at = byte as usize % total;
        for seg in &mut self.segments {
            if at < seg.buf.len() {
                seg.buf[at] ^= 1 << (bit % 8);
                return;
            }
            at -= seg.buf.len();
        }
    }

    /// Corruption helper for property tests: truncates the log image to
    /// `bytes` of the concatenation of all segments.
    pub fn truncate(&mut self, bytes: u64) {
        let mut keep = bytes as usize;
        let mut cut_from = None;
        for (i, seg) in self.segments.iter_mut().enumerate() {
            if keep >= seg.buf.len() {
                keep -= seg.buf.len();
                continue;
            }
            seg.buf.truncate(keep);
            seg.synced = seg.synced.min(seg.buf.len());
            if seg
                .last_checkpoint_end
                .is_some_and(|end| end > seg.buf.len())
            {
                seg.last_checkpoint_end = None;
            }
            cut_from = Some(i + 1);
            break;
        }
        if let Some(from) = cut_from {
            self.segments.truncate(from.max(1));
        }
    }

    /// Recovers the longest valid prefix: scans every segment frame by
    /// frame, stops at the first checksum failure, truncates the
    /// corruption away (so future appends extend a clean log) and
    /// returns the newest valid checkpoint plus the events behind it.
    /// Never panics, whatever the bytes.
    pub fn recover(&mut self) -> RecoveredLog {
        let mut records: Vec<(RecordKind, Vec<u8>)> = Vec::new();
        let mut stop: Option<(usize, usize)> = None; // (segment, offset)
        'scan: for (si, seg) in self.segments.iter().enumerate() {
            let mut at = 0;
            loop {
                match read_frame(&seg.buf, at) {
                    FrameOutcome::Frame {
                        kind,
                        payload,
                        next,
                    } => {
                        records.push((kind, payload.to_vec()));
                        at = next;
                    }
                    FrameOutcome::End => break,
                    FrameOutcome::Invalid => {
                        stop = Some((si, at));
                        break 'scan;
                    }
                }
            }
        }
        let mut dropped_bytes = 0u64;
        let corrupted = stop.is_some();
        if let Some((si, at)) = stop {
            dropped_bytes = (self.segments[si].buf.len() - at) as u64
                + self.segments[si + 1..]
                    .iter()
                    .map(|s| s.buf.len() as u64)
                    .sum::<u64>();
            self.segments.truncate(si + 1);
            let seg = &mut self.segments[si];
            seg.buf.truncate(at);
            if seg.last_checkpoint_end.is_some_and(|end| end > at) {
                seg.last_checkpoint_end = None;
            }
        }
        // The surviving prefix is the disk image: it is durable.
        for seg in &mut self.segments {
            seg.synced = seg.buf.len();
        }
        let frames = records.len();
        let anchor = records
            .iter()
            .rposition(|(kind, _)| *kind == RecordKind::Checkpoint);
        let checkpoint = anchor.map(|i| records[i].1.clone());
        let events: Vec<Vec<u8>> = records
            .drain(..)
            .skip(anchor.map_or(0, |i| i + 1))
            .filter(|(kind, _)| *kind == RecordKind::Event)
            .map(|(_, payload)| payload)
            .collect();
        self.stats.recoveries += 1;
        if corrupted {
            self.stats.corrupt_recoveries += 1;
        }
        let report = RecoveryReport {
            frames,
            events: events.len(),
            used_checkpoint: checkpoint.is_some(),
            corrupted,
            dropped_bytes,
            live_segments: self.segments.len(),
        };
        RecoveredLog {
            checkpoint,
            events,
            report,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log_with(segment_bytes: usize) -> SegmentedLog {
        SegmentedLog::new(StoreConfig { segment_bytes })
    }

    #[test]
    fn synced_records_survive_every_fault() {
        for fault in [
            None,
            Some(StorageFault::LostSyncWindow),
            Some(StorageFault::TornFinalRecord { keep: 3 }),
            Some(StorageFault::BitFlip { offset: 1, bit: 4 }),
        ] {
            let mut log = log_with(4096);
            log.append_event(b"alpha");
            log.append_event(b"beta");
            log.sync();
            log.append_event(b"tail-at-risk");
            log.crash(fault);
            let rec = log.recover();
            assert!(
                rec.events.len() >= 2,
                "synced prefix lost under {fault:?}: {:?}",
                rec.report
            );
            assert_eq!(rec.events[0], b"alpha");
            assert_eq!(rec.events[1], b"beta");
        }
    }

    #[test]
    fn kind_crash_keeps_the_tail() {
        let mut log = log_with(4096);
        log.append_event(b"a");
        log.sync();
        log.append_event(b"b");
        log.crash(None);
        let rec = log.recover();
        assert_eq!(rec.events.len(), 2);
        assert!(!rec.report.corrupted);
    }

    #[test]
    fn lost_sync_window_drops_exactly_the_tail() {
        let mut log = log_with(4096);
        log.append_event(b"a");
        log.sync();
        log.append_event(b"b");
        log.append_event(b"c");
        log.crash(Some(StorageFault::LostSyncWindow));
        let rec = log.recover();
        assert_eq!(rec.events, vec![b"a".to_vec()]);
        assert!(
            !rec.report.corrupted,
            "a clean truncation is not corruption"
        );
    }

    #[test]
    fn torn_final_record_recovers_the_prefix() {
        let mut log = log_with(4096);
        log.append_event(b"a");
        log.sync();
        log.append_event(b"bb");
        log.append_event(b"cc");
        // Tear a few bytes into the tail: the cut lands mid-frame.
        log.crash(Some(StorageFault::TornFinalRecord { keep: 3 }));
        let rec = log.recover();
        assert_eq!(rec.events[0], b"a");
        assert!(rec.events.len() < 3, "the torn record must not survive");
    }

    #[test]
    fn bit_flip_in_tail_is_detected_and_dropped() {
        let mut log = log_with(4096);
        log.append_event(b"a");
        log.sync();
        log.append_event(b"poisoned");
        log.crash(Some(StorageFault::BitFlip { offset: 5, bit: 2 }));
        let rec = log.recover();
        assert_eq!(rec.events, vec![b"a".to_vec()]);
        assert!(rec.report.corrupted);
        assert!(rec.report.dropped_bytes > 0);
    }

    #[test]
    fn recovery_truncates_corruption_so_appends_extend_cleanly() {
        let mut log = log_with(4096);
        log.append_event(b"a");
        log.sync();
        log.append_event(b"b");
        log.crash(Some(StorageFault::BitFlip { offset: 0, bit: 0 }));
        let _ = log.recover();
        log.append_event(b"after");
        log.sync();
        let rec = log.recover();
        assert_eq!(rec.events, vec![b"a".to_vec(), b"after".to_vec()]);
        assert!(!rec.report.corrupted);
    }

    #[test]
    fn checkpoint_anchors_recovery() {
        let mut log = log_with(4096);
        log.append_event(b"old-1");
        log.append_event(b"old-2");
        log.append_checkpoint(b"snapshot");
        log.append_event(b"new-1");
        log.sync();
        let rec = log.recover();
        assert_eq!(rec.checkpoint.as_deref(), Some(&b"snapshot"[..]));
        assert_eq!(rec.events, vec![b"new-1".to_vec()]);
        assert!(rec.report.used_checkpoint);
        assert_eq!(rec.report.frames, 4);
    }

    #[test]
    fn rotation_seals_the_outgoing_segment() {
        let mut log = log_with(32);
        log.append_event(b"a long enough record to fill the tiny segment");
        assert_eq!(log.live_segments(), 1);
        log.append_event(b"second");
        assert_eq!(log.live_segments(), 2, "first append past the cap rotates");
        // The sealed segment is synced even though sync() was never
        // called: a crash that loses the fsync window keeps it.
        log.crash(Some(StorageFault::LostSyncWindow));
        let rec = log.recover();
        assert_eq!(rec.events.len(), 1);
    }

    #[test]
    fn gc_drops_segments_behind_a_synced_checkpoint() {
        let mut log = log_with(24);
        for i in 0..6 {
            log.append_event(format!("filler-{i}-xxxxxxxxxxxxxxx").as_bytes());
        }
        let before = log.live_segments();
        assert!(before > 2, "workload must span several segments: {before}");
        log.append_checkpoint(b"snap");
        log.sync();
        let at_gc = log.live_segments();
        let dropped = log.gc();
        assert_eq!(dropped, at_gc - 1, "everything behind the checkpoint drops");
        assert_eq!(log.live_segments(), 1);
        let rec = log.recover();
        assert_eq!(rec.checkpoint.as_deref(), Some(&b"snap"[..]));
        assert!(rec.events.is_empty());
    }

    #[test]
    fn gc_never_drops_an_unsynced_checkpoint() {
        let mut log = log_with(4096);
        log.append_event(b"a");
        log.append_checkpoint(b"snap-not-synced");
        assert_eq!(log.gc(), 0, "an unsynced checkpoint cannot anchor GC");
    }

    #[test]
    fn recovery_of_empty_log_is_clean() {
        let mut log = log_with(4096);
        let rec = log.recover();
        assert!(rec.checkpoint.is_none());
        assert!(rec.events.is_empty());
        assert!(!rec.report.corrupted);
    }

    #[test]
    fn stats_track_the_lifecycle() {
        let mut log = log_with(32);
        log.append_event(b"aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa");
        log.append_event(b"b");
        log.append_checkpoint(b"c");
        log.sync();
        log.gc();
        let _ = log.recover();
        let s = log.stats();
        assert_eq!(s.events, 2);
        assert_eq!(s.checkpoints, 1);
        assert_eq!(s.syncs, 1);
        assert!(s.rotations >= 1);
        assert!(s.gc_segments >= 1);
        assert_eq!(s.recoveries, 1);
        assert_eq!(s.corrupt_recoveries, 0);
        assert!(s.max_live_segments >= 2);
    }
}
