//! The shard inbox's queue under the names perfbench's ladder times
//! (`runtime.spsc_ns`): one `std::sync::mpsc` channel, the queue each
//! `ThreadedRuntime` shard is fed by (DESIGN.md §10 "The inbox").
//!
//! A push is one unbounded `send`, lock-free (§10 says how far), which
//! allocates a block per 31 items and fails only once the consumer is
//! gone. A pop never blocks.

use std::sync::mpsc::{self, Receiver, Sender};

/// The sending end of a queue made by [`ring`].
#[derive(Debug)]
pub struct Producer<T>(Sender<T>);

/// The receiving end of a queue made by [`ring`].
#[derive(Debug)]
pub struct Consumer<T>(Receiver<T>);

/// Makes a queue. It is unbounded, so `capacity` is not used.
pub fn ring<T>(_capacity: usize) -> (Producer<T>, Consumer<T>) {
    let (tx, rx) = mpsc::channel();
    (Producer(tx), Consumer(rx))
}

impl<T> Producer<T> {
    /// Appends `value`, or hands it back once the consumer is gone.
    pub fn push(&mut self, value: T) -> Result<(), T> {
        self.0.send(value).map_err(|e| e.0)
    }
}

impl<T> Consumer<T> {
    /// Removes and returns the oldest element, or `None` when there is none.
    pub fn pop(&mut self) -> Option<T> {
        self.0.try_recv().ok()
    }
}
