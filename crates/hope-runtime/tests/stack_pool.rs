//! A thread's free list of coroutine stacks dies with the thread. One test
//! in a file of its own, so no other test maps stacks while it counts.

use std::sync::{Arc, Mutex};

use bytes::Bytes;
use hope_runtime::{SimRuntime, SysApi};
use hope_types::{Payload, ProcessId, UserMessage};

/// The mappings this process has, one per line of `/proc/self/maps`.
fn mappings() -> usize {
    std::fs::read_to_string("/proc/self/maps")
        .expect("/proc/self/maps is readable")
        .lines()
        .count()
}

fn user(data: &'static [u8]) -> Payload {
    Payload::User(UserMessage::new(0, Bytes::from_static(data)))
}

#[test]
fn a_threads_stacks_are_unmapped_when_it_exits() {
    // Each stack is two mappings (its guard page and the rest), so 65 held
    // stacks are 130 lines; the thread's own stack and malloc arena may
    // stay behind.
    const LIVE: usize = 64;
    const SLACK: usize = 8;
    let before = mappings();
    let held = std::thread::spawn(|| {
        let done = Arc::new(Mutex::new(0));
        let d = done.clone();
        let mut rt = SimRuntime::new();
        rt.spawn_threaded("parent", None, move |ctx| {
            let parent = ctx.pid();
            let children: Vec<ProcessId> = (0..LIVE)
                .map(|_| {
                    let d = d.clone();
                    ctx.spawn_threaded(
                        "child",
                        None,
                        Box::new(move |cctx: &mut dyn SysApi| {
                            cctx.send(parent, user(b"ready"));
                            cctx.receive(None, &mut || false).unwrap();
                            *d.lock().unwrap() += 1;
                        }),
                    )
                })
                .collect();
            // Every child is blocked in `receive` at once.
            for _ in 0..LIVE {
                ctx.receive(None, &mut || false).unwrap();
            }
            for &child in &children {
                ctx.send(child, user(b"go"));
            }
        });
        assert!(rt.run().is_clean());
        assert_eq!(*done.lock().unwrap(), LIVE);
        assert_eq!(rt.stacks_mapped(), LIVE + 1);
        drop(rt);
        // The runtime is gone; its stacks wait in the thread's list.
        mappings()
    })
    .join()
    .unwrap();
    let after = mappings();
    assert!(
        held >= before + 2 * LIVE,
        "{before} mappings at the start, {held} while the thread held its stacks"
    );
    assert!(
        after <= before + SLACK,
        "{before} mappings at the start, {after} after the thread exited"
    );
}
