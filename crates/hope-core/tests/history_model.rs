//! Model-based property of `hope_core::History`: arbitrary interleavings
//! of everything that touches a history, against a naive model that keeps
//! a flat vector and answers every query by scanning it from index 0 —
//! which is how `History` itself worked before it learnt to skip its
//! definite prefix. After every op the records and every query must agree.

use hope_core::{History, IntervalOrigin, IntervalRecord};
use hope_types::{AidId, IdoSet, IntervalId, ProcessId};
use proptest::prelude::*;

const ME: u64 = 1;
const AIDS: u64 = 5;

fn aid(n: u64) -> AidId {
    AidId::from_raw(ProcessId::from_raw(100 + n))
}

fn iid(process: u64, index: u32) -> IntervalId {
    IntervalId::new(ProcessId::from_raw(process), index)
}

/// The low `AIDS` bits of `bits` as a set of assumptions.
fn aids(bits: u8) -> IdoSet {
    (0..AIDS)
        .filter(|bit| bits >> bit & 1 == 1)
        .map(aid)
        .collect()
}

/// One input. `pick` chooses an interval *index* among those ever issued
/// plus a few never issued, so ids hit live, definite, rolled-back, root
/// and unknown intervals alike.
#[derive(Debug, Clone)]
enum Op {
    OpenExplicit {
        aid: u8,
    },
    OpenImplicit {
        tag: u8,
    },
    EmptyIdo {
        pick: u16,
    },
    Finalize {
        floor: Option<u16>,
    },
    /// An assumption settles: it leaves the IDO of every speculative
    /// interval (what a chain of empty `Replace`s amounts to), which is
    /// what lets `Finalize` move the frontier.
    Resolve {
        aid: u8,
    },
    /// `mode` mostly aims at the youngest few intervals, as rollbacks do
    /// (so histories get to grow), sometimes anywhere, sometimes at another
    /// process's id.
    Truncate {
        pick: u16,
        mode: u8,
    },
    /// What `Control` does on a `Replace`: from the picked interval to
    /// the end, every holder of `sender` (and the target itself) swaps it
    /// for `replacement`.
    Replace {
        pick: u16,
        sender: u8,
        replacement: u8,
    },
    /// A test flipping `definite` by hand through `get_mut`.
    Flip {
        pick: u16,
        definite: bool,
    },
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        5 => any::<u8>().prop_map(|aid| Op::OpenExplicit { aid }),
        5 => any::<u8>().prop_map(|tag| Op::OpenImplicit { tag }),
        3 => any::<u16>().prop_map(|pick| Op::EmptyIdo { pick }),
        6 => any::<u8>().prop_map(|aid| Op::Resolve { aid }),
        5 => Just(Op::Finalize { floor: None }),
        2 => any::<u16>().prop_map(|floor| Op::Finalize { floor: Some(floor) }),
        1 => (any::<u16>(), any::<u8>())
            .prop_map(|(pick, mode)| Op::Truncate { pick, mode }),
        3 => (any::<u16>(), any::<u8>(), any::<u8>()).prop_map(|(pick, sender, replacement)| {
            Op::Replace { pick, sender, replacement }
        }),
        2 => (any::<u16>(), any::<bool>()).prop_map(|(pick, definite)| Op::Flip { pick, definite }),
    ]
}

/// The reference: one vector, every answer a scan from the front.
struct Model {
    records: Vec<IntervalRecord>,
    next_index: u32,
}

impl Model {
    fn new() -> Self {
        Model {
            records: History::new(ProcessId::from_raw(ME)).intervals().to_vec(),
            next_index: 1,
        }
    }

    fn open(&mut self, origin: IntervalOrigin, trigger: IdoSet) -> IntervalId {
        let id = iid(ME, self.next_index);
        self.next_index += 1;
        let mut ido = self.records.last().expect("root").ido.clone();
        ido.extend(trigger.iter().copied());
        self.records.push(IntervalRecord {
            id,
            origin,
            trigger,
            ido,
            udo: IdoSet::new(),
            iha: IdoSet::new(),
            ihd: IdoSet::new(),
            definite: false,
        });
        id
    }

    fn position_of(&self, id: IntervalId) -> Option<usize> {
        self.records.iter().position(|r| r.id == id)
    }

    fn held_before(&self, pos: usize, y: &AidId) -> bool {
        self.records[..pos]
            .iter()
            .any(|r| !r.definite && r.ido.contains(y))
    }

    fn finalize_ready(&mut self, floor: Option<u32>) -> Vec<(IntervalId, IdoSet, IdoSet)> {
        let mut out = Vec::new();
        for rec in &mut self.records {
            if rec.definite {
                continue;
            }
            if floor.is_some_and(|f| rec.id.index() >= f) || !rec.ido.is_empty() {
                break;
            }
            rec.definite = true;
            out.push((
                rec.id,
                std::mem::take(&mut rec.iha),
                std::mem::take(&mut rec.ihd),
            ));
        }
        out
    }

    /// The id `pick` names: any index ever issued, or one of two never
    /// issued.
    fn pick(&self, pick: u16) -> IntervalId {
        iid(ME, u32::from(pick) % (self.next_index + 2))
    }
}

/// Every query of `h` against the model's front scans.
fn check(h: &History, m: &Model) {
    prop_assert_eq!(h.intervals(), &m.records[..]);
    prop_assert_eq!(h.current(), m.records.last().expect("root"));
    prop_assert_eq!(
        h.fully_definite(),
        m.records.iter().all(|r| r.definite),
        "fully_definite"
    );
    // The live window is a suffix with nothing speculative before it, so a
    // scan of it finds exactly what a scan of everything finds.
    let prefix = h.intervals().len() - h.live().len();
    prop_assert_eq!(h.live(), &m.records[prefix..]);
    prop_assert!(
        m.records[..prefix].iter().all(|r| r.definite),
        "speculative record before the live window: {:?}",
        m.records
    );
    for index in 0..m.next_index + 2 {
        for process in [ME, ME + 1] {
            let id = iid(process, index);
            prop_assert_eq!(h.position_of(id), m.position_of(id), "position_of {}", id);
            prop_assert_eq!(
                h.get(id),
                m.position_of(id).map(|pos| &m.records[pos]),
                "get {}",
                id
            );
        }
    }
    for pos in 0..=m.records.len() {
        for y in (0..AIDS).map(aid) {
            prop_assert_eq!(
                h.held_before(pos, &y),
                m.held_before(pos, &y),
                "held_before({}, {})",
                pos,
                y
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn history_agrees_with_a_front_scanning_model(ops in proptest::collection::vec(op(), 0..200)) {
        let mut h = History::new(ProcessId::from_raw(ME));
        let mut m = Model::new();
        check(&h, &m);
        for (step, op) in ops.into_iter().enumerate() {
            let visits = h.visits();
            match op {
                Op::OpenExplicit { aid: n } => {
                    let origin = IntervalOrigin::ExplicitGuess { op: step };
                    let trigger = IdoSet::singleton(aid(u64::from(n) % AIDS));
                    let id = h.open_interval(origin, trigger.iter().copied());
                    prop_assert_eq!(id, m.open(origin, trigger));
                }
                Op::OpenImplicit { tag } => {
                    let origin = IntervalOrigin::ImplicitReceive { op: step };
                    let id = h.open_interval(origin, aids(tag).iter().copied());
                    prop_assert_eq!(id, m.open(origin, aids(tag)));
                }
                Op::EmptyIdo { pick } => {
                    let id = m.pick(pick);
                    let pos = m.position_of(id);
                    prop_assert_eq!(h.get_mut(id).is_some(), pos.is_some());
                    if let (Some(rec), Some(pos)) = (h.get_mut(id), pos) {
                        rec.ido.clear();
                        m.records[pos].ido.clear();
                    }
                }
                Op::Finalize { floor } => {
                    let floor = floor.map(|f| u32::from(f) % (m.next_index + 1));
                    prop_assert_eq!(h.finalize_ready(floor), m.finalize_ready(floor));
                }
                Op::Resolve { aid: n } => {
                    let settled = aid(u64::from(n) % AIDS);
                    for pos in 0..m.records.len() {
                        if m.records[pos].definite {
                            continue;
                        }
                        let rec = h.get_mut(m.records[pos].id).expect("the model holds it");
                        for rec in [rec, &mut m.records[pos]] {
                            if rec.ido.remove(&settled) {
                                rec.udo.insert(settled);
                            }
                        }
                    }
                }
                Op::Truncate { pick, mode } => {
                    let id = match mode % 8 {
                        0 => iid(ME + 1, m.pick(pick).index()),
                        1 | 2 => m.pick(pick),
                        _ => {
                            let young = m.records.len().saturating_sub(1 + usize::from(pick % 3));
                            m.records[young].id
                        }
                    };
                    let expected = match m.position_of(id) {
                        None => Err(hope_core::interval::TruncateError::UnknownInterval),
                        Some(0) => Err(hope_core::interval::TruncateError::RootInterval),
                        Some(pos) => Ok(m.records.split_off(pos)),
                    };
                    prop_assert_eq!(h.truncate_from(id), expected);
                }
                Op::Replace { pick, sender, replacement } => {
                    let (sender, replacement) = (aid(u64::from(sender) % AIDS), aids(replacement));
                    let Some(target) = m.position_of(m.pick(pick)) else {
                        continue;
                    };
                    for pos in target..m.records.len() {
                        let id = m.records[pos].id;
                        if pos > target && !m.records[pos].ido.contains(&sender) {
                            continue;
                        }
                        for y in replacement.iter() {
                            prop_assert_eq!(h.held_before(pos, y), m.held_before(pos, y));
                        }
                        // An IDO grows only through `acquire`, which keeps
                        // `held_before`'s never-held bound.
                        for &y in replacement.iter() {
                            h.acquire(pos, y);
                        }
                        m.records[pos].ido.extend(replacement.iter().copied());
                        let rec = h.get_mut(id).expect("the model holds it");
                        for rec in [rec, &mut m.records[pos]] {
                            rec.ido.remove(&sender);
                            rec.udo.insert(sender);
                        }
                    }
                }
                Op::Flip { pick, definite } => {
                    let id = m.pick(pick);
                    let Some(pos) = m.position_of(id) else {
                        continue;
                    };
                    // Finalize is a commit point: nothing turns a record of
                    // the definite prefix speculative again (`get_mut`'s
                    // contract), anything else goes.
                    if !definite && pos < h.intervals().len() - h.live().len() {
                        continue;
                    }
                    h.get_mut(id).expect("the model holds it").definite = definite;
                    m.records[pos].definite = definite;
                }
            }
            prop_assert!(h.visits() >= visits, "the probe only counts up");
            check(&h, &m);
        }
    }
}
