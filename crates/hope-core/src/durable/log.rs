//! The WAL's medium: record framing and the segmented log — append, sync
//! watermark, atomic rotation, checkpoint GC, crash-image faults, and
//! longest-valid-prefix recovery.
//!
//! A record is framed `[kind u8][len u32 LE][crc u32 LE][payload]`, with
//! `hope_types::crc32` (the checksum of a TCP frame). The CRC covers the
//! kind byte, the length field and the payload, so a corrupted header is
//! as detectable as a corrupted body. The reader never panics: any byte
//! sequence decodes to either a valid frame, a clean end-of-log, or
//! `FrameOutcome::Invalid` — the recovery scan stops at the first
//! invalid frame and keeps the prefix before it.
//!
//! Durability contract: bytes behind the `synced` watermark survive every
//! crash; bytes after it are at the mercy of the injected
//! `StorageFault`. Rotation seals the outgoing segment (an implicit
//! sync — the file is closed and fsynced before the next one opens), so
//! an unsynced tail can only ever exist in the live segment.

use hope_types::crc32::crc32;

use super::DurableSnapshot;

/// Bytes of framing overhead per record: kind (1) + len (4) + crc (4).
pub const HEADER_BYTES: usize = 9;

/// What a framed record contains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordKind {
    /// One incremental log event (an `Op` append or a rollback).
    Event = 1,
    /// A full snapshot superseding every record before it.
    Checkpoint = 2,
}

impl RecordKind {
    fn from_byte(b: u8) -> Option<RecordKind> {
        match b {
            1 => Some(RecordKind::Event),
            2 => Some(RecordKind::Checkpoint),
            _ => None,
        }
    }
}

/// Appends one framed record to `buf`.
pub fn append_frame(buf: &mut Vec<u8>, kind: RecordKind, payload: &[u8]) {
    let len = u32::try_from(payload.len()).expect("record payload exceeds u32::MAX bytes");
    let crc = crc32(&[&[kind as u8], &len.to_le_bytes(), payload]);
    buf.push(kind as u8);
    buf.extend_from_slice(&len.to_le_bytes());
    buf.extend_from_slice(&crc.to_le_bytes());
    buf.extend_from_slice(payload);
}

/// Result of reading one frame at a given offset.
#[derive(Debug, PartialEq, Eq)]
enum FrameOutcome<'a> {
    /// A checksum-valid frame; `next` is the offset just past it.
    Frame {
        kind: RecordKind,
        payload: &'a [u8],
        next: usize,
    },
    /// Clean end: `at` is exactly the end of the buffer.
    End,
    /// Torn, truncated or corrupted bytes; nothing past `at` is trusted.
    Invalid,
}

/// Reads the frame starting at `at`, verifying the checksum. Never
/// panics on arbitrary bytes; all failure modes map to `Invalid`.
fn read_frame(buf: &[u8], at: usize) -> FrameOutcome<'_> {
    if at == buf.len() {
        return FrameOutcome::End;
    }
    if at > buf.len() || buf.len() - at < HEADER_BYTES {
        return FrameOutcome::Invalid;
    }
    let Some(kind) = RecordKind::from_byte(buf[at]) else {
        return FrameOutcome::Invalid;
    };
    let len = u32::from_le_bytes(buf[at + 1..at + 5].try_into().unwrap()) as usize;
    let stored = u32::from_le_bytes(buf[at + 5..at + 9].try_into().unwrap());
    let body = at + HEADER_BYTES;
    if buf.len() - body < len {
        return FrameOutcome::Invalid;
    }
    let payload = &buf[body..body + len];
    if crc32(&[&buf[at..at + 5], payload]) != stored {
        return FrameOutcome::Invalid;
    }
    FrameOutcome::Frame {
        kind,
        payload,
        next: body + len,
    }
}

/// What happens to the unsynced tail when the process crashes. Synced
/// bytes always survive; the tail's fate mirrors real storage failure
/// modes. `None` models a kind crash where the page cache made it out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum StorageFault {
    /// The page-cache window behind a lost fsync vanishes entirely.
    LostSyncWindow,
    /// A partial suffix of the tail made it to disk: the final record is
    /// torn mid-frame. `keep` seeds how many tail bytes survive (`keep %
    /// tail_len`).
    TornFinalRecord { keep: u64 },
    /// One bit in the unsynced tail flips in place: byte `offset` of the
    /// tail (taken modulo its length), bit `bit` (taken modulo 8).
    BitFlip { offset: u64, bit: u8 },
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

    /// Forgets a checkpoint that no longer fits in the buffer.
    fn drop_cut_checkpoint(&mut self) {
        if self
            .last_checkpoint_end
            .is_some_and(|end| end > self.buf.len())
        {
            self.last_checkpoint_end = None;
        }
    }
}

/// An in-memory model of a segmented on-disk write-ahead log. The
/// simulator owns virtual disks the same way it owns the virtual wire;
/// nothing here performs real I/O, but every durability decision (what
/// an fsync pins, what a rotation seals, what a crash may destroy) is
/// modelled explicitly so the recovery path can be driven through real
/// failure shapes.
#[derive(Debug)]
pub(super) struct SegmentedLog {
    /// Rotate to a fresh segment once the live one reaches this size.
    segment_bytes: usize,
    segments: Vec<Segment>,
    /// The log's lifecycle counters; the store that owns the log counts
    /// its recoveries and faults here too.
    pub(super) stats: DurableSnapshot,
}

impl SegmentedLog {
    /// An empty log with one live segment.
    pub(super) fn new(segment_bytes: usize) -> Self {
        SegmentedLog {
            segment_bytes,
            segments: vec![Segment::new()],
            stats: DurableSnapshot {
                max_live_segments: 1,
                ..DurableSnapshot::default()
            },
        }
    }

    fn live(&mut self) -> &mut Segment {
        self.segments.last_mut().expect("at least one segment")
    }

    /// Appends one framed record (buffered, not yet durable), first
    /// rotating a full live segment.
    fn append(&mut self, kind: RecordKind, payload: &[u8]) {
        let segment_bytes = self.segment_bytes;
        let live = self.live();
        if !live.buf.is_empty() && live.buf.len() >= segment_bytes {
            // Seal the outgoing segment: rotation closes and fsyncs the
            // old file before the new one takes writes.
            live.synced = live.buf.len();
            self.segments.push(Segment::new());
            self.stats.rotations += 1;
            self.stats.max_live_segments =
                self.stats.max_live_segments.max(self.segments.len() as u64);
        }
        append_frame(&mut self.live().buf, kind, payload);
    }

    /// Appends one event record (buffered, not yet durable).
    pub(super) fn append_event(&mut self, payload: &[u8]) {
        self.append(RecordKind::Event, payload);
        self.stats.events += 1;
    }

    /// Appends one checkpoint record (buffered, not yet durable).
    pub(super) fn append_checkpoint(&mut self, payload: &[u8]) {
        self.append(RecordKind::Checkpoint, payload);
        let live = self.live();
        live.last_checkpoint_end = Some(live.buf.len());
        self.stats.checkpoints += 1;
    }

    /// Makes everything written so far durable (fsync).
    pub(super) fn sync(&mut self) {
        for seg in &mut self.segments {
            seg.synced = seg.buf.len();
        }
        self.stats.syncs += 1;
    }

    /// Checkpoint GC: drops every segment wholly behind the newest
    /// segment holding a fully synced checkpoint (the paper's "discard
    /// checkpoints once assumptions become definite").
    pub(super) fn gc(&mut self) {
        let keep_from = self
            .segments
            .iter()
            .rposition(|s| s.last_checkpoint_end.is_some_and(|end| end <= s.synced));
        if let Some(keep_from) = keep_from {
            self.segments.drain(..keep_from);
            self.stats.gc_segments += keep_from as u64;
        }
    }

    /// Applies the crash image: synced bytes always survive; the
    /// unsynced tail survives, vanishes, tears, or takes a bit flip
    /// depending on `fault`. Afterwards the surviving bytes *are* the
    /// disk — everything is marked synced.
    pub(super) fn crash(&mut self, fault: Option<StorageFault>) {
        // The tail lives in the newest segment with one (sealed segments
        // are fully synced by rotation).
        let tail = self
            .segments
            .iter_mut()
            .rev()
            .find(|s| s.buf.len() > s.synced);
        match (fault, tail) {
            (Some(StorageFault::LostSyncWindow), _) => {
                for seg in &mut self.segments {
                    seg.buf.truncate(seg.synced);
                }
            }
            (Some(StorageFault::TornFinalRecord { keep }), Some(seg)) => {
                let tail = seg.buf.len() - seg.synced;
                seg.buf.truncate(seg.synced + (keep as usize % tail));
            }
            (Some(StorageFault::BitFlip { offset, bit }), Some(seg)) => {
                let tail = seg.buf.len() - seg.synced;
                let at = seg.synced + offset as usize % tail;
                seg.buf[at] ^= 1 << (bit % 8);
            }
            (None, _) | (Some(_), None) => {}
        }
        for seg in &mut self.segments {
            seg.synced = seg.buf.len();
            seg.drop_cut_checkpoint();
        }
    }

    /// Recovers the longest valid prefix: scans every segment frame by
    /// frame, handing each checksum-valid record to `visit` in append
    /// order (the payload borrowed from the segment, never copied), stops
    /// at the first checksum failure, and truncates the corruption away
    /// so future appends extend a clean log. Never panics, whatever the
    /// bytes.
    pub(super) fn recover(&mut self, mut visit: impl FnMut(RecordKind, &[u8])) {
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
                        visit(kind, payload);
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
        if let Some((si, at)) = stop {
            self.segments.truncate(si + 1);
            let seg = &mut self.segments[si];
            seg.buf.truncate(at);
            seg.drop_cut_checkpoint();
            self.stats.corrupt_recoveries += 1;
        }
        // The surviving prefix is the disk image: it is durable.
        for seg in &mut self.segments {
            seg.synced = seg.buf.len();
        }
        self.stats.recoveries += 1;
    }
}

/// What a recovery scan handed over, copied out for comparison.
#[cfg(test)]
#[derive(Debug)]
struct Recovered {
    /// Payload of the newest valid checkpoint, if the prefix holds one.
    checkpoint: Option<Vec<u8>>,
    /// Event payloads appended after that checkpoint, oldest first.
    events: Vec<Vec<u8>>,
    /// Checksum-valid frames scanned (events and checkpoints).
    frames: usize,
    /// Whether the log's corrupt-recovery count rose: the scan stopped at
    /// an invalid frame (vs a clean end).
    corrupted: bool,
    /// Bytes discarded past the first invalid frame.
    dropped_bytes: usize,
}

/// Corruption and inspection helpers for the tests.
#[cfg(test)]
impl SegmentedLog {
    /// Total bytes across live segments.
    fn total_bytes(&self) -> usize {
        self.segments.iter().map(|s| s.buf.len()).sum()
    }

    /// Segments currently alive.
    fn live_segments(&self) -> usize {
        self.segments.len()
    }

    /// Flips one bit anywhere in the log image (`byte` indexes the
    /// concatenation of all segments).
    fn flip_bit(&mut self, byte: u64, bit: u8) {
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

    /// Truncates the log image to `bytes` of the concatenation of all
    /// segments.
    fn truncate(&mut self, bytes: u64) {
        let mut keep = bytes as usize;
        let mut cut_from = None;
        for (i, seg) in self.segments.iter_mut().enumerate() {
            if keep >= seg.buf.len() {
                keep -= seg.buf.len();
                continue;
            }
            seg.buf.truncate(keep);
            seg.synced = seg.synced.min(seg.buf.len());
            seg.drop_cut_checkpoint();
            cut_from = Some(i + 1);
            break;
        }
        if let Some(from) = cut_from {
            self.segments.truncate(from.max(1));
        }
    }

    /// Recovers, copying out the newest checkpoint and the events behind
    /// it.
    fn recover_copied(&mut self) -> Recovered {
        let (total, corrupt) = (self.total_bytes(), self.stats.corrupt_recoveries);
        let mut checkpoint = None;
        let mut events = Vec::new();
        let mut frames = 0;
        self.recover(|kind, payload| {
            frames += 1;
            match kind {
                RecordKind::Checkpoint => {
                    checkpoint = Some(payload.to_vec());
                    events.clear();
                }
                RecordKind::Event => events.push(payload.to_vec()),
            }
        });
        Recovered {
            checkpoint,
            events,
            frames,
            corrupted: self.stats.corrupt_recoveries > corrupt,
            dropped_bytes: total - self.total_bytes(),
        }
    }
}

#[cfg(test)]
mod recovery_properties;

#[cfg(test)]
mod tests {
    use super::*;

    fn log_with(segment_bytes: usize) -> SegmentedLog {
        SegmentedLog::new(segment_bytes)
    }

    #[test]
    fn frames_round_trip_back_to_back() {
        let mut buf = Vec::new();
        append_frame(&mut buf, RecordKind::Event, b"first");
        append_frame(&mut buf, RecordKind::Checkpoint, b"");
        append_frame(&mut buf, RecordKind::Event, b"third");
        let mut at = 0;
        let mut seen = Vec::new();
        loop {
            match read_frame(&buf, at) {
                FrameOutcome::Frame {
                    kind,
                    payload,
                    next,
                } => {
                    seen.push((kind, payload.to_vec()));
                    at = next;
                }
                FrameOutcome::End => break,
                FrameOutcome::Invalid => panic!("valid log must scan cleanly"),
            }
        }
        assert_eq!(
            seen,
            vec![
                (RecordKind::Event, b"first".to_vec()),
                (RecordKind::Checkpoint, b"".to_vec()),
                (RecordKind::Event, b"third".to_vec()),
            ]
        );
    }

    #[test]
    fn truncation_is_invalid_not_a_panic() {
        let mut buf = Vec::new();
        append_frame(&mut buf, RecordKind::Event, b"payload bytes");
        for cut in 1..buf.len() {
            assert_eq!(
                read_frame(&buf[..cut], 0),
                FrameOutcome::Invalid,
                "cut={cut}"
            );
        }
        assert_eq!(read_frame(&buf[..0], 0), FrameOutcome::End);
    }

    #[test]
    fn any_single_bit_flip_is_detected() {
        let mut buf = Vec::new();
        append_frame(&mut buf, RecordKind::Event, b"checksummed");
        for byte in 0..buf.len() {
            for bit in 0..8 {
                let mut evil = buf.clone();
                evil[byte] ^= 1 << bit;
                match read_frame(&evil, 0) {
                    FrameOutcome::Frame { .. } => {
                        panic!("flip at {byte}:{bit} produced a valid frame")
                    }
                    FrameOutcome::End | FrameOutcome::Invalid => {}
                }
            }
        }
    }

    #[test]
    fn unknown_kind_byte_is_invalid() {
        let mut buf = Vec::new();
        append_frame(&mut buf, RecordKind::Event, b"x");
        buf[0] = 7;
        assert_eq!(read_frame(&buf, 0), FrameOutcome::Invalid);
    }

    #[test]
    fn insane_length_is_invalid() {
        let mut buf = Vec::new();
        append_frame(&mut buf, RecordKind::Event, b"x");
        buf[1..5].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(read_frame(&buf, 0), FrameOutcome::Invalid);
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
            let rec = log.recover_copied();
            assert!(
                rec.events.len() >= 2,
                "synced prefix lost under {fault:?}: {rec:?}"
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
        let rec = log.recover_copied();
        assert_eq!(rec.events.len(), 2);
        assert!(!rec.corrupted);
    }

    #[test]
    fn lost_sync_window_drops_exactly_the_tail() {
        let mut log = log_with(4096);
        log.append_event(b"a");
        log.sync();
        log.append_event(b"b");
        log.append_event(b"c");
        log.crash(Some(StorageFault::LostSyncWindow));
        let rec = log.recover_copied();
        assert_eq!(rec.events, vec![b"a".to_vec()]);
        assert!(!rec.corrupted, "a clean truncation is not corruption");
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
        let rec = log.recover_copied();
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
        let rec = log.recover_copied();
        assert_eq!(rec.events, vec![b"a".to_vec()]);
        assert!(rec.corrupted);
        assert!(rec.dropped_bytes > 0);
    }

    #[test]
    fn recovery_truncates_corruption_so_appends_extend_cleanly() {
        let mut log = log_with(4096);
        log.append_event(b"a");
        log.sync();
        log.append_event(b"b");
        log.crash(Some(StorageFault::BitFlip { offset: 0, bit: 0 }));
        let _ = log.recover_copied();
        log.append_event(b"after");
        log.sync();
        let rec = log.recover_copied();
        assert_eq!(rec.events, vec![b"a".to_vec(), b"after".to_vec()]);
        assert!(!rec.corrupted);
    }

    #[test]
    fn checkpoint_anchors_recovery() {
        let mut log = log_with(4096);
        log.append_event(b"old-1");
        log.append_event(b"old-2");
        log.append_checkpoint(b"snapshot");
        log.append_event(b"new-1");
        log.sync();
        let rec = log.recover_copied();
        assert_eq!(rec.checkpoint.as_deref(), Some(&b"snapshot"[..]));
        assert_eq!(rec.events, vec![b"new-1".to_vec()]);
        assert_eq!(rec.frames, 4);
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
        let rec = log.recover_copied();
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
        log.gc();
        assert_eq!(
            log.stats.gc_segments,
            at_gc as u64 - 1,
            "everything behind the checkpoint drops"
        );
        assert_eq!(log.live_segments(), 1);
        let rec = log.recover_copied();
        assert_eq!(rec.checkpoint.as_deref(), Some(&b"snap"[..]));
        assert!(rec.events.is_empty());
    }

    #[test]
    fn gc_never_drops_an_unsynced_checkpoint() {
        let mut log = log_with(4096);
        log.append_event(b"a");
        log.append_checkpoint(b"snap-not-synced");
        log.gc();
        assert_eq!(
            log.stats.gc_segments, 0,
            "an unsynced checkpoint cannot anchor GC"
        );
    }

    #[test]
    fn recovery_of_empty_log_is_clean() {
        let mut log = log_with(4096);
        let rec = log.recover_copied();
        assert!(rec.checkpoint.is_none());
        assert!(rec.events.is_empty());
        assert!(!rec.corrupted);
    }

    #[test]
    fn stats_track_the_lifecycle() {
        let mut log = log_with(32);
        log.append_event(b"aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa");
        log.append_event(b"b");
        log.append_checkpoint(b"c");
        log.sync();
        log.gc();
        let _ = log.recover_copied();
        let s = log.stats;
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
