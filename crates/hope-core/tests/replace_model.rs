//! Model-based property of `Control`'s `Replace` step
//! (`LibState::handle_replace`) against the per-holder reference: every
//! interval that holds the sender (and the one the `Replace` is addressed
//! to) substitutes the sender element by element, on its own, as
//! Figures 10 and 15 describe.
//!
//! The HOPElib instead works a run of equal holders out once, edits the
//! run's head in place, hands the members clones of the result and shares
//! one before/after memo of the UDO across holders. It also answers
//! `held_before` for a never-held AID without a scan. Random histories
//! (runs of shared sets from receives that add nothing, nested distinct
//! sets from guesses, holes where an interval lost an assumption on its
//! own, UDOs that differ from holder to holder) then take random
//! `Replace`s, with cycle detection on and off. After every `Replace`
//! each interval must hold the same IDO, UDO and `definite` flag as the
//! model's, the `Guess` registrations must go to the same AIDs for the
//! same intervals in the same order, and `cycles_broken` must agree.

use std::sync::Arc;

use hope_core::{HopeConfig, HopeMetrics, IntervalOrigin, IntervalRecord, LibState};
use hope_runtime::ControlApi;
use hope_types::{AidId, HopeMessage, IdoSet, Payload, ProcessId, VirtualTime};
use proptest::prelude::*;

/// Assumptions drawn from: enough that sets reach the heap (past four
/// members) and a replacement often brings one no interval held yet.
const AIDS: u64 = 12;

fn aid(n: u64) -> AidId {
    AidId::from_raw(ProcessId::from_raw(100 + n % AIDS))
}

/// The members of `bits` as a set of assumptions.
fn aids(bits: u16) -> IdoSet {
    (0..AIDS).filter(|n| bits >> n & 1 == 1).map(aid).collect()
}

/// Records every protocol message `Control` sends.
#[derive(Default)]
struct Recorder {
    sent: Vec<(ProcessId, HopeMessage)>,
}

impl ControlApi for Recorder {
    fn pid(&self) -> ProcessId {
        ProcessId::from_raw(1)
    }
    fn now(&self) -> VirtualTime {
        VirtualTime::ZERO
    }
    fn send(&mut self, dst: ProcessId, payload: Payload) {
        let Payload::Hope(msg) = payload else {
            panic!("Control sends only HOPE messages")
        };
        self.sent.push((dst, msg));
    }
    fn wake(&mut self) {}
}

#[derive(Debug, Clone)]
enum Op {
    /// An explicit guess: a nested, distinct cumulative set.
    Guess { aid: u8 },
    /// A tagged receive: a tag the current set covers opens an interval
    /// sharing its predecessor's storage (a run), others grow the set.
    Receive { tag: u16 },
    /// One interval loses an assumption on its own, leaving a hole in a
    /// run of holders. An IDO may shrink outside `acquire`.
    Drop { pick: u16, aid: u8 },
    /// One interval escapes extra assumptions, so UDOs differ from holder
    /// to holder.
    Escape { pick: u16, udo: u16 },
    /// A `Replace` from `sender`, addressed to the picked live interval.
    Replace { pick: u16, sender: u8, ido: u16 },
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => any::<u8>().prop_map(|aid| Op::Guess { aid }),
        4 => any::<u16>().prop_map(|tag| Op::Receive { tag }),
        1 => (any::<u16>(), any::<u8>()).prop_map(|(pick, aid)| Op::Drop { pick, aid }),
        1 => (any::<u16>(), any::<u16>()).prop_map(|(pick, udo)| Op::Escape { pick, udo }),
        5 => (any::<u16>(), any::<u8>(), any::<u16>())
            .prop_map(|(pick, sender, ido)| Op::Replace { pick, sender, ido }),
    ]
}

/// The per-holder reference: the records, and what `Control` sends.
struct Model {
    records: Vec<IntervalRecord>,
    cycle_detection: bool,
    sent: Vec<(ProcessId, HopeMessage)>,
    cycles_broken: u64,
}

impl Model {
    /// A live record before `pos` holds `y`: a scan of every record.
    fn held_before(&self, pos: usize, y: &AidId) -> bool {
        self.records[..pos]
            .iter()
            .any(|r| !r.definite && r.ido.contains(y))
    }

    fn replace(&mut self, target: usize, sender: AidId, replacement: &IdoSet) {
        if self.records[target].definite {
            return;
        }
        for pos in target..self.records.len() {
            let rec = &self.records[pos];
            if rec.definite || (pos > target && !rec.ido.contains(&sender)) {
                continue;
            }
            for &y in replacement {
                let rec = &self.records[pos];
                if self.cycle_detection && rec.udo.contains(&y) {
                    self.cycles_broken += 1;
                    continue;
                }
                if rec.ido.contains(&y) {
                    continue;
                }
                let registered = self.held_before(pos, &y);
                let rec = &mut self.records[pos];
                rec.ido.insert(y);
                if !registered {
                    let iid = rec.id;
                    self.sent.push((y.process(), HopeMessage::Guess { iid }));
                }
            }
            let rec = &mut self.records[pos];
            rec.ido.remove(&sender);
            rec.udo.insert(sender);
        }
        // Figure 11's finalize, oldest first; these records have affirmed
        // and denied nothing, so it sends nothing.
        for rec in &mut self.records {
            if rec.definite {
                continue;
            }
            if !rec.ido.is_empty() {
                break;
            }
            rec.definite = true;
        }
    }
}

/// The live records of `lib`, as positions into its history.
fn live_positions(lib: &LibState) -> std::ops::Range<usize> {
    let all = lib.history.intervals().len();
    all - lib.history.live().len()..all
}

fn check(lib: &LibState, model: &Model, api: &Recorder) {
    prop_assert_eq!(lib.history.intervals(), &model.records[..]);
    prop_assert_eq!(&api.sent, &model.sent);
    prop_assert_eq!(lib.metrics().cycles_broken, model.cycles_broken);
    // One past the pool: an AID no interval has held yet.
    for pos in 0..=model.records.len() {
        for y in (100..=100 + AIDS).map(|n| AidId::from_raw(ProcessId::from_raw(n))) {
            prop_assert_eq!(
                lib.history.held_before(pos, &y),
                model.held_before(pos, &y),
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
    fn a_replace_edits_what_a_per_holder_substitution_gives(
        cycle_detection in any::<bool>(),
        ops in proptest::collection::vec(op(), 0..120),
    ) {
        let config = if cycle_detection {
            HopeConfig::new()
        } else {
            HopeConfig::algorithm_1()
        };
        let metrics = Arc::new(HopeMetrics::new());
        let mut lib = LibState::new(ProcessId::from_raw(1), config, metrics);
        let mut api = Recorder::default();
        let mut model = Model {
            records: lib.history.intervals().to_vec(),
            cycle_detection,
            sent: Vec::new(),
            cycles_broken: 0,
        };
        for (step, op) in ops.into_iter().enumerate() {
            let live = live_positions(&lib);
            let pick = |pick: u16| {
                (!live.is_empty()).then(|| live.start + usize::from(pick) % live.len())
            };
            match op {
                Op::Guess { aid: n } => {
                    let origin = IntervalOrigin::ExplicitGuess { op: step };
                    lib.history.open_interval(origin, [aid(u64::from(n))]);
                }
                Op::Receive { tag } => {
                    let origin = IntervalOrigin::ImplicitReceive { op: step };
                    lib.history.open_interval(origin, aids(tag));
                }
                Op::Drop { pick: p, aid: n } => {
                    let Some(pos) = pick(p) else { continue };
                    let id = lib.history.intervals()[pos].id;
                    let rec = lib.history.get_mut(id).expect("live");
                    rec.ido.remove(&aid(u64::from(n)));
                }
                Op::Escape { pick: p, udo } => {
                    let Some(pos) = pick(p) else { continue };
                    let id = lib.history.intervals()[pos].id;
                    let rec = lib.history.get_mut(id).expect("live");
                    rec.udo = rec.udo.union(&aids(udo));
                }
                Op::Replace { pick: p, sender, ido } => {
                    let Some(target) = pick(p) else { continue };
                    // Mostly an assumption the target holds, as a real
                    // `Replace` is; sometimes any.
                    let held = lib.history.intervals()[target].ido.as_slice().to_vec();
                    let sender = match held.len() {
                        0 => aid(u64::from(sender)),
                        n if sender % 4 != 0 => held[usize::from(sender) % n],
                        _ => aid(u64::from(sender)),
                    };
                    let replacement = aids(ido);
                    model.replace(target, sender, &replacement);
                    let iid = lib.history.intervals()[target].id;
                    let msg = HopeMessage::Replace { iid, ido: replacement };
                    lib.handle_control(sender.process(), msg, &mut api);
                    check(&lib, &model, &api);
                    continue;
                }
            }
            // The history changed outside `Control`: the model starts over
            // from it.
            model.records = lib.history.intervals().to_vec();
            check(&lib, &model, &api);
        }
    }
}
