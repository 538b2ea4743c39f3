//! The op log against a `Vec<Op>` model: random sequences of appends,
//! the three rollbacks, rewind-and-replay and recovery resets, with log
//! lengths on both sides of every chunk edge (`OpList` keeps its ops in
//! fixed chunks of `OpList::CHUNK`). The log and the model must agree on
//! every returned index, every removed suffix, `len`, `is_replaying` and
//! every replayed op. A second property holds `OpList`'s own surface —
//! what recovery folds a WAL into — to the same model.

use bytes::Bytes;
use hope_core::{Op, OpList, ReplayLog};
use hope_types::{AidId, ProcessId, UserMessage};
use proptest::prelude::*;

const CHUNK: usize = OpList::CHUNK;

/// Log lengths on both sides of the chunk edges.
fn edge_len(pick: u64) -> usize {
    [0, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 7][(pick % 5) as usize]
}

/// A position to aim a rollback at: next to a chunk edge, or anywhere.
fn aim(pick: u64, len: usize) -> usize {
    let k = (pick >> 8) % 4;
    let near_edge = (k as usize * CHUNK + (pick % 3) as usize).saturating_sub(1);
    let pos = if pick & 0x80 == 0 {
        near_edge
    } else {
        (pick >> 16) as usize
    };
    pos % (len + 1)
}

/// The `n`th op: a guess, a receive, a try-receive or a send, each
/// carrying `n` so a misplaced op never compares equal.
fn nth_op(n: u64) -> Op {
    let pid = ProcessId::from_raw(n);
    match n.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 62 {
        0 => Op::Guess {
            aid: AidId::from_raw(pid),
            outcome: true,
        },
        1 => Op::Receive {
            src: pid,
            msg: UserMessage::new(0, Bytes::from(n.to_le_bytes().to_vec())),
        },
        2 => Op::TryReceive {
            result: n
                .is_multiple_of(2)
                .then(|| (pid, UserMessage::new(1, Bytes::new()))),
        },
        _ => Op::Send {
            dst: pid,
            channel: n as u32,
        },
    }
}

/// The log beside its model: the model's ops and replay cursor.
struct Pair {
    log: ReplayLog,
    model: Vec<Op>,
    cursor: usize,
    next: u64,
}

impl Pair {
    fn check(&self) {
        assert_eq!(self.log.len(), self.model.len(), "len");
        assert_eq!(
            self.log.is_replaying(),
            self.cursor < self.model.len(),
            "is_replaying"
        );
    }

    /// Replays the logged prefix to its end, comparing every op.
    fn replay_to_end(&mut self) {
        while self.log.is_replaying() {
            let got = self
                .log
                .replay_next("any op", |op| Some(op.clone()))
                .expect("a logged op is there");
            assert_eq!(got, self.model[self.cursor], "replayed op {}", self.cursor);
            self.cursor += 1;
        }
        assert_eq!(self.cursor, self.model.len(), "replay ran to the end");
    }

    fn fresh_ops(&mut self, n: usize) -> Vec<Op> {
        (0..n)
            .map(|_| {
                self.next += 1;
                nth_op(self.next)
            })
            .collect()
    }

    fn record(&mut self, n: usize) {
        self.replay_to_end();
        for op in self.fresh_ops(n) {
            let index = self.log.record(op.clone());
            assert_eq!(index, self.model.len(), "record's index");
            self.model.push(op);
            self.cursor = self.model.len();
        }
    }

    /// The latest op at or before `pos` that `want` accepts.
    fn target(&self, pos: usize, want: fn(&Op) -> bool) -> Option<usize> {
        let end = (pos + 1).min(self.model.len());
        self.model[..end].iter().rposition(want)
    }

    fn step(&mut self, kind: u8, pick: u64) {
        let pos = aim(pick, self.model.len());
        match kind % 6 {
            0 => self.record(edge_len(pick).max(1) + (pick >> 40) as usize % 3),
            1 => {
                if let Some(i) = self.target(pos, |op| matches!(op, Op::Guess { .. })) {
                    let removed = self.log.rollback_to_guess(i);
                    let expected = self.model.split_off(i + 1);
                    if let Some(Op::Guess { outcome, .. }) = self.model.last_mut() {
                        *outcome = false;
                    }
                    assert_eq!(removed, expected, "rollback_to_guess({i}) removed");
                    self.cursor = 0;
                }
            }
            2 => {
                let receive = |op: &Op| matches!(op, Op::Receive { .. } | Op::TryReceive { .. });
                if let Some(i) = self.target(pos, receive) {
                    let removed = self.log.rollback_to_receive(i);
                    let expected = self.model.split_off(i + 1);
                    self.model.truncate(i);
                    assert_eq!(removed, expected, "rollback_to_receive({i}) removed");
                    self.cursor = 0;
                }
            }
            3 => {
                let removed = self.log.rollback_before(pos);
                let expected = self.model.split_off(pos);
                assert_eq!(removed, expected, "rollback_before({pos}) removed");
                self.cursor = 0;
            }
            4 => {
                self.log.rewind();
                self.cursor = 0;
                self.check();
                self.replay_to_end();
            }
            _ => {
                let recovered = self.fresh_ops(edge_len(pick));
                self.log.reset_ops(recovered.iter().cloned().collect());
                self.model = recovered;
                self.cursor = 0;
            }
        }
        self.check();
    }
}

/// What `OpList` offers recovery's fold, one op at a time.
fn list_step(list: &mut OpList, model: &mut Vec<Op>, next: &mut u64, kind: u8, pick: u64) {
    let pos = aim(pick, model.len());
    match kind % 4 {
        0 => {
            for _ in 0..edge_len(pick).max(1) {
                *next += 1;
                let op = nth_op(*next);
                list.push(op.clone());
                model.push(op);
            }
        }
        1 => {
            list.truncate(pos);
            model.truncate(pos);
        }
        2 => {
            let flip = |op: &mut Op| {
                if let Op::Guess { outcome, .. } = op {
                    *outcome = !*outcome;
                }
            };
            if let Some(op) = list.get_mut(pos) {
                flip(op);
            }
            if let Some(op) = model.get_mut(pos) {
                flip(op);
            }
        }
        _ => assert_eq!(
            list.split_off(pos),
            model.split_off(pos),
            "split_off({pos})"
        ),
    }
    assert_eq!(list.len(), model.len(), "len");
    assert_eq!(list.get(pos), model.get(pos), "get({pos})");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn the_op_log_agrees_with_a_vec_model(
        start in any::<u64>(),
        steps in proptest::collection::vec((any::<u8>(), any::<u64>()), 1..24),
    ) {
        let mut pair = Pair {
            log: ReplayLog::new(ProcessId::from_raw(1)),
            model: Vec::new(),
            cursor: 0,
            next: 0,
        };
        pair.record(edge_len(start));
        for (kind, pick) in steps {
            pair.step(kind, pick);
        }
        pair.log.rewind();
        pair.cursor = 0;
        pair.replay_to_end();
    }

    #[test]
    fn an_op_list_agrees_with_a_vec_model(
        steps in proptest::collection::vec((any::<u8>(), any::<u64>()), 1..24),
    ) {
        let (mut list, mut model, mut next) = (OpList::new(), Vec::new(), 0);
        for (kind, pick) in steps {
            list_step(&mut list, &mut model, &mut next, kind, pick);
        }
        prop_assert!(list.iter().eq(model.iter()), "iteration order");
        let rebuilt: OpList = model.iter().cloned().collect();
        prop_assert!(rebuilt.iter().eq(model.iter()), "collect");
    }
}
