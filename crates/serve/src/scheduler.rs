//! Shared analysis worker pool.
//!
//! Refits are CPU-bound (a full cross-validated tree build), so they
//! run on a fixed pool instead of the per-session engine threads — a
//! burst of sessions shares the machine instead of oversubscribing it.
//! Pool width comes from the core crate's [`WorkerBudget`]: the `suite`
//! component sizes this pool, the `fold` component becomes each fit's
//! `cv.workers`, the same two-layer budget the offline suite runner
//! uses.
//!
//! [`WorkerBudget`]: fuzzyphase::WorkerBudget

use crate::metrics::Metrics;
use crossbeam::channel::{self, Sender};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A claimed in-flight latch: a "one job of this kind at a time" flag,
/// set by [`InFlight::claim`] and cleared when the guard drops. Moved
/// into the job closure, the guard clears the latch when the job
/// returns, when it panics (the pool catches the unwind, which drops
/// the closure's captures) and when the pool refuses the job and drops
/// it unrun, so a thread waiting for the latch to clear cannot spin
/// forever.
pub(crate) struct InFlight(Arc<AtomicBool>);

impl InFlight {
    /// Sets `latch` and returns its guard, or `None` when the latch was
    /// already set (a job is in flight).
    pub(crate) fn claim(latch: &Arc<AtomicBool>) -> Option<Self> {
        (!latch.swap(true, Ordering::SeqCst)).then(|| Self(Arc::clone(latch)))
    }
}

impl Drop for InFlight {
    fn drop(&mut self) {
        self.0.store(false, Ordering::SeqCst);
    }
}

/// A fixed-width pool draining a bounded job queue.
#[derive(Debug)]
pub struct Scheduler {
    tx: Option<Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
}

impl Scheduler {
    /// Spawns `workers` threads over a queue of at most `queue_cap`
    /// pending jobs (both forced to at least 1).
    pub fn new(workers: usize, queue_cap: usize, metrics: Arc<Metrics>) -> Self {
        let (tx, rx) = channel::bounded::<Job>(queue_cap.max(1));
        let workers = (0..workers.max(1))
            .map(|i| {
                let rx = rx.clone();
                let metrics = Arc::clone(&metrics);
                std::thread::Builder::new()
                    .name(format!("fuzzyphased-fit-{i}"))
                    .spawn(move || {
                        while let Ok(job) = rx.recv() {
                            // A fit panic (a bug, or a dataset the gates
                            // missed) must not take the worker down with
                            // it — count it and keep serving.
                            if catch_unwind(AssertUnwindSafe(job)).is_err() {
                                metrics.session_error();
                            }
                        }
                    })
                    // fuzzylint: allow(panic) — thread spawn fails only on
                    // resource exhaustion at startup; nothing to serve then
                    .expect("spawn analysis worker")
            })
            .collect();
        Self {
            tx: Some(tx),
            workers,
        }
    }

    /// Queues a job, blocking if the queue is full. Returns `false` if
    /// the pool is already shut down.
    pub fn submit<F: FnOnce() + Send + 'static>(&self, metrics: &Metrics, job: F) -> bool {
        match &self.tx {
            Some(tx) => {
                metrics.observe_analysis_depth(tx.len() as u64 + 1);
                tx.send(Box::new(job)).is_ok()
            }
            None => false,
        }
    }

    /// Number of worker threads.
    pub fn width(&self) -> usize {
        self.workers.len()
    }

    /// Closes the queue and joins every worker, running all queued jobs
    /// first.
    pub fn shutdown(mut self) {
        self.close_and_join();
    }

    fn close_and_join(&mut self) {
        drop(self.tx.take());
        // A job may hold the last reference to whatever owns the pool,
        // so this can run on a worker. That worker cannot join itself
        // ("Resource deadlock avoided"); its handle is dropped instead,
        // and it exits on its own once the job returns to the closed
        // queue.
        let me = std::thread::current().id();
        for h in self.workers.drain(..) {
            if h.thread().id() == me {
                continue;
            }
            // fuzzylint: allow(panic) — worker bodies catch job panics, so
            // a join failure is a harness bug worth surfacing loudly
            h.join().expect("analysis worker panicked");
        }
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        self.close_and_join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn runs_every_submitted_job_before_shutdown() {
        let metrics = Arc::new(Metrics::new());
        let pool = Scheduler::new(3, 8, Arc::clone(&metrics));
        assert_eq!(pool.width(), 3);
        let done = Arc::new(AtomicUsize::new(0));
        for _ in 0..20 {
            let done = Arc::clone(&done);
            assert!(pool.submit(&metrics, move || {
                done.fetch_add(1, Ordering::SeqCst);
            }));
        }
        pool.shutdown();
        assert_eq!(done.load(Ordering::SeqCst), 20);
    }

    #[test]
    fn job_panic_is_counted_not_fatal() {
        let metrics = Arc::new(Metrics::new());
        let pool = Scheduler::new(1, 4, Arc::clone(&metrics));
        assert!(pool.submit(&metrics, || panic!("boom")));
        let done = Arc::new(AtomicUsize::new(0));
        {
            let done = Arc::clone(&done);
            assert!(pool.submit(&metrics, move || {
                done.fetch_add(1, Ordering::SeqCst);
            }));
        }
        pool.shutdown();
        assert_eq!(done.load(Ordering::SeqCst), 1);
        assert_eq!(metrics.snapshot().session_errors, 1);
    }

    #[test]
    fn dropping_the_last_reference_inside_a_job_does_not_self_join() {
        use std::sync::mpsc;
        use std::time::Duration;
        let metrics = Arc::new(Metrics::new());
        let pool = Arc::new(Scheduler::new(2, 4, Arc::clone(&metrics)));
        let (go_tx, go_rx) = mpsc::channel::<()>();
        let (done_tx, done_rx) = mpsc::channel::<()>();
        let held = Arc::clone(&pool);
        assert!(pool.submit(&metrics, move || {
            go_rx.recv().unwrap();
            // The last reference: Scheduler::drop runs on this worker.
            drop(held);
            done_tx.send(()).unwrap();
        }));
        drop(pool);
        go_tx.send(()).unwrap();
        done_rx
            .recv_timeout(Duration::from_secs(30))
            .expect("the job finished dropping the pool");
        assert_eq!(metrics.snapshot().session_errors, 0);
    }

    #[test]
    fn a_panicking_or_refused_job_still_clears_its_latch() {
        let metrics = Arc::new(Metrics::new());
        let mut pool = Scheduler::new(1, 4, Arc::clone(&metrics));
        let latch = Arc::new(AtomicBool::new(false));
        let guard = InFlight::claim(&latch).expect("the latch starts clear");
        assert!(
            InFlight::claim(&latch).is_none(),
            "a second claim coalesces"
        );
        assert!(pool.submit(&metrics, move || {
            let _guard = guard;
            panic!("the job dies holding the latch");
        }));
        pool.close_and_join();
        assert!(!latch.load(Ordering::SeqCst));
        assert_eq!(metrics.snapshot().session_errors, 1);

        // The pool is closed now: the refused job is dropped unrun, and
        // its guard with it.
        let guard = InFlight::claim(&latch).expect("the latch was cleared");
        assert!(!pool.submit(&metrics, move || drop(guard)));
        assert!(!latch.load(Ordering::SeqCst));
    }

    #[test]
    fn zero_widths_are_clamped() {
        let metrics = Arc::new(Metrics::new());
        let pool = Scheduler::new(0, 0, Arc::clone(&metrics));
        assert_eq!(pool.width(), 1);
        pool.shutdown();
    }
}
