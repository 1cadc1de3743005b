//! One helper thread behind a bounded hand-off of fixed-size batches.
//!
//! A [`Pipe`] moves one stage of a run — state nobody reads until the run
//! ends — onto a worker thread; the engine and its sinks stay on the
//! calling thread. One side fills batches, the other empties them and
//! hands them back: [`DEPTH`] batches of [`BATCH`] items, allocated once by
//! [`Pipe::spawn`] and queued for the worker (a worker that empties them
//! hands them straight back), so the side ahead waits once all are on the
//! other side. [`Pipe::join`] takes the stage back and re-raises a panic
//! the worker died of; dropping a pipe hangs up and waits for its worker.

use std::panic::resume_unwind;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::thread::{self, JoinHandle};

/// Items a batch holds.
pub const BATCH: usize = 256;
/// Batches in circulation between the two threads.
pub const DEPTH: usize = 3;

/// One thread's end of a pipe: batches leave on one queue and arrive on
/// the other.
#[derive(Debug)]
pub struct End<T>(SyncSender<Vec<T>>, Receiver<Vec<T>>);

impl<T> End<T> {
    /// The next batch from the other end; `None` once it has hung up and
    /// nothing it sent is left.
    pub fn take(&self) -> Option<Vec<T>> {
        self.1.recv().ok()
    }

    /// Hand a batch to the other end; `false` if it has hung up. Never
    /// blocks: each queue has room for every batch.
    pub fn give(&self, batch: Vec<T>) -> bool {
        self.0.send(batch).is_ok()
    }
}

/// A stage `S` running on its own worker thread, trading batches of `T`
/// with the calling thread (see the module docs).
#[derive(Debug)]
pub struct Pipe<T, S> {
    /// The calling thread's end; `None` once it has hung up.
    end: Option<End<T>>,
    worker: Option<JoinHandle<S>>,
}

impl<T: Send + 'static, S: Send + 'static> Pipe<T, S> {
    /// Run `work` on `stage` in a new worker thread. When no thread can be
    /// started the stage comes back, for the caller to drive inline.
    pub fn spawn(stage: S, work: fn(&mut S, &End<T>)) -> Result<Self, S> {
        let (to_worker, worker_in) = sync_channel(DEPTH);
        let (to_caller, caller_in) = sync_channel(DEPTH);
        for _ in 0..DEPTH {
            let _ = to_worker.send(Vec::with_capacity(BATCH));
        }
        // The stage follows the thread, so a failed start still has it.
        let (hand_over, stage_in) = sync_channel::<S>(1);
        let end = End(to_caller, worker_in);
        let spawned = thread::Builder::new()
            .name("rlir-pipe".to_string())
            .spawn(move || {
                let mut stage = stage_in.recv().expect("the caller hands the stage over");
                work(&mut stage, &end);
                stage
            });
        let Ok(worker) = spawned else {
            return Err(stage);
        };
        let _ = hand_over.send(stage);
        let (end, worker) = (Some(End(to_worker, caller_in)), Some(worker));
        Ok(Pipe { end, worker })
    }
}

impl<T, S> std::ops::Deref for Pipe<T, S> {
    type Target = End<T>;

    fn deref(&self) -> &End<T> {
        self.end.as_ref().expect("a live pipe")
    }
}

impl<T, S> Pipe<T, S> {
    /// Hang up, wait for the worker to return and take its stage back.
    ///
    /// # Panics
    ///
    /// With the worker's own payload, if it panicked.
    pub fn join(mut self) -> S {
        self.end = None;
        let worker = self.worker.take().expect("a pipe is joined once");
        worker
            .join()
            .unwrap_or_else(|payload| resume_unwind(payload))
    }
}

impl<T, S> Drop for Pipe<T, S> {
    fn drop(&mut self) {
        self.end = None;
        // A dropped pipe's run has ended: a worker's panic has nothing left
        // to fail.
        let _ = self.worker.take().map(JoinHandle::join);
    }
}
