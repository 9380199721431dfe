//! A shard's bounded job queue: producers push one job at a time, and
//! the shard worker takes up to [`GROUP_COMMIT_PACKETS`] jobs per lock.
//!
//! A take wakes the producers parked on a full queue once, after it has
//! removed its jobs, instead of once per freed slot; a push wakes the
//! worker only when the worker is parked. The jobs a take hands out,
//! except the one the worker processes first, keep counting against the
//! capacity until the worker's next take, so a shard never holds more
//! than `capacity + 1` accepted jobs it has not finished. The worker
//! holds a [`WorkerGuard`] while it runs: if it dies, the queue refuses
//! every push, parked ones included.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

use crate::pool::GROUP_COMMIT_PACKETS;

/// Why [`ShardQueue::push`] refused a job.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum PushError {
    /// The queue was closed before the push, or its worker is gone.
    Closed,
    /// The queue was full and the push was told not to wait.
    Full,
}

/// One shard's queue (see the module docs).
pub(crate) struct ShardQueue<T> {
    state: Mutex<State<T>>,
    /// The worker parks here while the queue is empty.
    work: Condvar,
    /// Waiting producers park here while the queue is full.
    space: Condvar,
    capacity: usize,
}

struct State<T> {
    jobs: VecDeque<T>,
    /// Jobs of the worker's last take beyond the first: they count
    /// against the capacity until the worker's next take.
    held: usize,
    closed: bool,
    /// The worker is gone: no take will ever make room again.
    abandoned: bool,
    /// The worker is parked on `work` and no push has woken it yet.
    worker_parked: bool,
    /// Producers parked on `space`.
    producers_parked: usize,
}

impl<T> ShardQueue<T> {
    /// An open, empty queue holding at most `capacity` (≥ 1) jobs.
    pub(crate) fn new(capacity: usize) -> Self {
        ShardQueue {
            state: Mutex::new(State {
                jobs: VecDeque::new(),
                held: 0,
                closed: false,
                abandoned: false,
                worker_parked: false,
                producers_parked: 0,
            }),
            work: Condvar::new(),
            space: Condvar::new(),
            capacity,
        }
    }

    fn lock(&self) -> MutexGuard<'_, State<T>> {
        self.state.lock().expect("shard queue lock")
    }

    /// Appends the job `make` builds. A closed queue refuses it before
    /// `make` runs. A full queue parks the caller until a take makes room
    /// when `wait` is set, and refuses the job it built otherwise. A
    /// producer parked before [`close`](Self::close) still lands its job,
    /// and the worker waits for it before it exits; one parked when the
    /// worker dies is refused.
    pub(crate) fn push(&self, make: impl FnOnce() -> T, wait: bool) -> Result<(), PushError> {
        let mut state = self.lock();
        if state.closed || state.abandoned {
            return Err(PushError::Closed);
        }
        let job = make();
        while state.jobs.len() + state.held >= self.capacity {
            if !wait {
                return Err(PushError::Full);
            }
            state.producers_parked += 1;
            state = self.space.wait(state).expect("shard queue wait");
            state.producers_parked -= 1;
            if state.abandoned {
                return Err(PushError::Closed);
            }
        }
        state.jobs.push_back(job);
        let wake = std::mem::take(&mut state.worker_parked);
        drop(state);
        if wake {
            self.work.notify_one();
        }
        Ok(())
    }

    /// Moves up to [`GROUP_COMMIT_PACKETS`] jobs, oldest first, into
    /// `batch`. The caller has processed every job of its last take, so
    /// those stop counting against the capacity. With `wait` set, an
    /// empty queue parks the worker until a job arrives; without it, the
    /// take may return with `batch` empty. Returns `false`, with nothing
    /// taken, once the queue is closed and dry: closed, empty, and no
    /// producer parked on it.
    pub(crate) fn take(&self, batch: &mut Vec<T>, wait: bool) -> bool {
        let mut state = self.lock();
        state.held = 0;
        while state.jobs.is_empty() {
            if state.closed && state.producers_parked == 0 {
                return false;
            }
            if !wait {
                break;
            }
            state.worker_parked = true;
            state = self.work.wait(state).expect("shard queue wait");
            state.worker_parked = false;
        }
        let n = state.jobs.len().min(GROUP_COMMIT_PACKETS);
        batch.extend(state.jobs.drain(..n));
        state.held = n.saturating_sub(1);
        // A producer parks only while a job is queued (`held` stays below
        // the capacity), so the take that removes it wakes it: once per
        // take, after the jobs are out, so it finds the room.
        let wake = n > 0 && state.producers_parked > 0;
        drop(state);
        if wake {
            self.space.notify_all();
        }
        true
    }

    /// Refuses every later push and lets the worker's takes run the
    /// queue dry. Idempotent.
    pub(crate) fn close(&self) {
        let mut state = self.lock();
        state.closed = true;
        let wake = std::mem::take(&mut state.worker_parked);
        drop(state);
        if wake {
            self.work.notify_one();
        }
    }

    /// Whether [`close`](Self::close) has been called.
    pub(crate) fn is_closed(&self) -> bool {
        self.lock().closed
    }

    /// The guard the queue's worker holds while it runs.
    pub(crate) fn worker_guard(&self) -> WorkerGuard<'_, T> {
        WorkerGuard(self)
    }
}

/// Held by a shard's worker for as long as it runs. Dropping it, whether
/// the worker returned or unwound, abandons the queue: its queued jobs
/// are dropped, and every push is refused as
/// [`Closed`](PushError::Closed), including those already parked, which
/// no take would ever wake. After a dry close it changes nothing.
pub(crate) struct WorkerGuard<'a, T>(&'a ShardQueue<T>);

impl<T> Drop for WorkerGuard<'_, T> {
    fn drop(&mut self) {
        let queue = self.0;
        // The worker may be unwinding: a poisoned lock must not panic
        // again here.
        let mut state = queue.state.lock().unwrap_or_else(PoisonError::into_inner);
        state.abandoned = true;
        let stranded = std::mem::take(&mut state.jobs);
        drop(state);
        queue.space.notify_all();
        drop(stranded);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn takes_hand_out_at_most_a_group_in_arrival_order() {
        let queue = ShardQueue::new(200);
        for job in 0..150 {
            queue.push(|| job, false).unwrap();
        }
        let mut batch = Vec::new();
        let mut sizes = Vec::new();
        let mut seen = Vec::new();
        while queue.take(&mut batch, false) && !batch.is_empty() {
            sizes.push(batch.len());
            seen.append(&mut batch);
        }
        assert_eq!(sizes, [64, 64, 22]);
        assert_eq!(seen, (0..150).collect::<Vec<_>>());
        queue.close();
        assert_eq!(
            queue.push(|| unreachable!("a closed queue builds no job"), true),
            Err(PushError::Closed)
        );
        assert!(!queue.take(&mut batch, true));
    }

    #[test]
    fn taken_jobs_beyond_the_first_hold_capacity_until_the_next_take() {
        let queue = ShardQueue::new(4);
        for job in 0..4 {
            queue.push(|| job, false).unwrap();
        }
        assert_eq!(queue.push(|| 4, false), Err(PushError::Full));
        let mut batch = Vec::new();
        assert!(queue.take(&mut batch, false));
        assert_eq!(batch, [0, 1, 2, 3]);
        // Only the job being processed freed its slot.
        queue.push(|| 4, false).unwrap();
        assert_eq!(queue.push(|| 5, false), Err(PushError::Full));
        batch.clear();
        assert!(queue.take(&mut batch, false));
        assert_eq!(batch, [4]);
        // That take released the first take's jobs; its own one job is
        // being processed.
        for job in 5..9 {
            queue.push(|| job, false).unwrap();
        }
        assert_eq!(queue.push(|| 9, false), Err(PushError::Full));
    }

    /// A producer parked on a full queue when it closes still lands its
    /// job, and the worker's takes wait for it before reporting dry.
    #[test]
    fn a_producer_parked_before_close_still_lands() {
        let queue = Arc::new(ShardQueue::new(1));
        queue.push(|| 0, true).unwrap();
        let producer = {
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || queue.push(|| 1, true))
        };
        while queue.lock().producers_parked == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        queue.close();
        let mut batch = Vec::new();
        let mut seen = Vec::new();
        while queue.take(&mut batch, true) {
            seen.append(&mut batch);
        }
        assert_eq!(producer.join().unwrap(), Ok(()));
        assert_eq!(seen, [0, 1]);
    }

    /// A worker that dies (its guard dropped while it unwinds) leaves no
    /// one to take: a producer parked on its full queue and every later
    /// push are refused, not left to wait forever or accepted for nothing
    /// to process.
    #[test]
    fn a_dead_worker_refuses_parked_and_later_pushes() {
        let queue = Arc::new(ShardQueue::new(1));
        let guard = queue.worker_guard();
        queue.push(|| 0, true).unwrap();
        let producer = {
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || queue.push(|| 1, true))
        };
        while queue.lock().producers_parked == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        drop(guard);
        assert_eq!(producer.join().unwrap(), Err(PushError::Closed));
        assert_eq!(queue.push(|| 2, true), Err(PushError::Closed));
        assert_eq!(queue.push(|| 3, false), Err(PushError::Closed));
        assert!(queue.lock().jobs.is_empty());
    }
}
