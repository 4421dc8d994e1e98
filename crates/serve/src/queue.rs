//! The bounded pending queue and the batch-closing rule.
//!
//! This is the heart of the scheduler: producers push requests in, worker
//! threads pull *micro-batches* out. A batch is closed as soon as either
//! it is full (`max_batch` pending) or the oldest pending request has
//! waited `linger` — the classic size-or-time coalescing policy (NCAM,
//! buffer k-d trees). The queue is bounded; a full queue blocks
//! [`push`](SubmitQueue::push) (backpressure) and fails
//! [`try_push`](SubmitQueue::try_push).
//!
//! One mutex guards the pending requests and the closed flag, and both
//! condvars wait on it: workers sleep on `not_empty` (until an arrival,
//! the oldest request's linger, or close), blocked producers on
//! `not_full`. A worker checks the state and starts waiting under the
//! same lock a push or close changes it under, so no wake-up can fall
//! between the check and the sleep.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use crate::config::ServeError;
use crate::ticket::TicketCell;

/// One enqueued query awaiting its batch.
#[derive(Debug)]
pub(crate) struct Request<O> {
    /// The owned query payload.
    pub query: O,
    /// How many neighbors the producer asked for.
    pub k: usize,
    /// Absolute shed deadline, if any.
    pub deadline: Option<Instant>,
    /// When the request entered the queue (latency measurement starts
    /// here, so queueing and lingering are part of the reported latency).
    pub submitted_at: Instant,
    /// Completion slot shared with the producer's [`Ticket`](crate::Ticket).
    pub ticket: Arc<TicketCell>,
}

#[derive(Debug)]
struct State<O> {
    pending: VecDeque<Request<O>>,
    closed: bool,
}

/// A bounded MPMC queue of pending requests with batch-closing semantics.
#[derive(Debug)]
pub(crate) struct SubmitQueue<O> {
    capacity: usize,
    state: Mutex<State<O>>,
    /// Signalled when `pending` gains an element or the queue closes.
    not_empty: Condvar,
    /// Signalled when `pending` loses elements (backpressure release).
    not_full: Condvar,
}

impl<O> SubmitQueue<O> {
    pub(crate) fn new(capacity: usize) -> Self {
        debug_assert!(capacity > 0, "queue capacity validated by ServeConfig");
        Self {
            capacity,
            state: Mutex::new(State {
                pending: VecDeque::new(),
                closed: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, State<O>> {
        self.state.lock().expect("serve queue lock poisoned")
    }

    /// Appends `request` to an open queue with room and wakes a worker.
    fn enqueue(&self, mut state: MutexGuard<'_, State<O>>, request: Request<O>) {
        state.pending.push_back(request);
        drop(state);
        self.not_empty.notify_one();
    }

    /// Enqueues a request, blocking while the queue is at capacity.
    pub(crate) fn push(&self, request: Request<O>) -> Result<(), (Request<O>, ServeError)> {
        let mut state = self.lock();
        while state.pending.len() >= self.capacity && !state.closed {
            state = self
                .not_full
                .wait(state)
                .expect("serve queue lock poisoned");
        }
        if state.closed {
            return Err((request, ServeError::Shutdown));
        }
        self.enqueue(state, request);
        Ok(())
    }

    /// Enqueues a request or fails immediately when the queue is full.
    pub(crate) fn try_push(&self, request: Request<O>) -> Result<(), (Request<O>, ServeError)> {
        let state = self.lock();
        if state.closed {
            return Err((request, ServeError::Shutdown));
        }
        if state.pending.len() >= self.capacity {
            return Err((request, ServeError::QueueFull));
        }
        self.enqueue(state, request);
        Ok(())
    }

    /// Blocks until a batch can be closed and returns it; `None` once the
    /// queue is closed *and* drained (worker shutdown signal).
    ///
    /// Closing rule: dispatch when `max_batch` requests are pending, when
    /// the oldest pending request has waited `linger`, or unconditionally
    /// during shutdown (drain). A linger so long that the clock cannot
    /// represent its end has no time trigger: the batch waits for its
    /// size or for shutdown. Each batch holds at most `max_batch`
    /// requests; several workers may close batches concurrently.
    pub(crate) fn next_batch(&self, max_batch: usize, linger: Duration) -> Option<Vec<Request<O>>> {
        let mut state = self.lock();
        loop {
            // When the linger closes the pending batch; `None` when only
            // an arrival or `close` can.
            let due = match state.pending.front() {
                None if state.closed => return None,
                None => None,
                Some(_) if state.closed || state.pending.len() >= max_batch => break,
                Some(oldest) => match oldest.submitted_at.checked_add(linger) {
                    Some(due) if due <= Instant::now() => break,
                    due => due,
                },
            };
            state = match due {
                Some(due) => {
                    let wait = due.saturating_duration_since(Instant::now());
                    self.not_empty
                        .wait_timeout(state, wait)
                        .expect("serve queue lock poisoned")
                        .0
                }
                None => self
                    .not_empty
                    .wait(state)
                    .expect("serve queue lock poisoned"),
            };
        }
        let take = state.pending.len().min(max_batch);
        let batch: Vec<Request<O>> = state.pending.drain(..take).collect();
        let more = !state.pending.is_empty();
        drop(state);
        // A push wakes one worker; hand what this batch left behind to
        // the next.
        if more {
            self.not_empty.notify_one();
        }
        self.not_full.notify_all();
        Some(batch)
    }

    /// Closes the queue: further pushes fail with
    /// [`ServeError::Shutdown`], and workers drain what remains.
    pub(crate) fn close(&self) {
        self.lock().closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Number of requests currently pending (diagnostic).
    pub(crate) fn depth(&self) -> usize {
        self.lock().pending.len()
    }
}

impl<O: Send> crate::metrics::QueueProbe for SubmitQueue<O> {
    fn depth(&self) -> usize {
        SubmitQueue::depth(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ticket::Ticket;

    fn request(query: u32) -> Request<u32> {
        let (_ticket, cell) = Ticket::new();
        Request {
            query,
            k: 1,
            deadline: None,
            submitted_at: Instant::now(),
            ticket: cell,
        }
    }

    #[test]
    fn try_push_reports_queue_full_and_returns_the_request() {
        let queue = SubmitQueue::new(2);
        queue.try_push(request(1)).unwrap();
        queue.try_push(request(2)).unwrap();
        let (returned, err) = queue.try_push(request(3)).unwrap_err();
        assert_eq!(err, ServeError::QueueFull);
        assert_eq!(returned.query, 3);
        assert_eq!(queue.depth(), 2);
    }

    #[test]
    fn full_batch_is_dispatched_without_waiting_for_linger() {
        let queue = SubmitQueue::new(16);
        for i in 0..5 {
            queue.try_push(request(i)).unwrap();
        }
        // linger is an hour: only the size trigger can fire.
        let batch = queue
            .next_batch(4, Duration::from_secs(3600))
            .expect("open queue");
        assert_eq!(batch.len(), 4);
        assert_eq!(batch[0].query, 0);
        assert_eq!(queue.depth(), 1);
    }

    #[test]
    fn linger_expiry_dispatches_a_partial_batch() {
        let queue = SubmitQueue::new(16);
        queue.try_push(request(7)).unwrap();
        let start = Instant::now();
        let batch = queue
            .next_batch(64, Duration::from_millis(10))
            .expect("open queue");
        assert_eq!(batch.len(), 1);
        assert!(
            start.elapsed() >= Duration::from_millis(9),
            "batch closed before the linger elapsed"
        );
    }

    #[test]
    fn close_drains_remaining_then_signals_shutdown() {
        let queue = SubmitQueue::new(16);
        queue.try_push(request(1)).unwrap();
        queue.try_push(request(2)).unwrap();
        queue.close();
        let batch = queue.next_batch(64, Duration::from_secs(3600)).unwrap();
        assert_eq!(batch.len(), 2);
        assert!(queue.next_batch(64, Duration::from_secs(3600)).is_none());
        let (_, err) = queue.try_push(request(3)).unwrap_err();
        assert_eq!(err, ServeError::Shutdown);
        let (_, err) = queue.push(request(4)).unwrap_err();
        assert_eq!(err, ServeError::Shutdown);
    }

    #[test]
    fn close_wakes_a_worker_blocked_on_an_empty_queue() {
        let queue = Arc::new(SubmitQueue::<u32>::new(4));
        let q2 = Arc::clone(&queue);
        let worker = std::thread::spawn(move || {
            q2.next_batch(8, Duration::from_secs(3600)).map(|b| b.len())
        });
        std::thread::sleep(Duration::from_millis(5));
        queue.close();
        assert_eq!(worker.join().unwrap(), None);
    }

    #[test]
    fn blocking_push_waits_for_capacity() {
        let queue = Arc::new(SubmitQueue::new(1));
        queue.try_push(request(1)).unwrap();
        let q2 = Arc::clone(&queue);
        let producer = std::thread::spawn(move || q2.push(request(2)).map_err(|(_, e)| e));
        // Give the producer time to block, then free a slot.
        std::thread::sleep(Duration::from_millis(5));
        let batch = queue.next_batch(1, Duration::ZERO).unwrap();
        assert_eq!(batch[0].query, 1);
        producer.join().unwrap().unwrap();
        assert_eq!(queue.depth(), 1);
    }

    #[test]
    fn waiting_worker_wakes_on_push() {
        let queue = Arc::new(SubmitQueue::<u32>::new(4));
        let q2 = Arc::clone(&queue);
        let worker =
            std::thread::spawn(move || q2.next_batch(8, Duration::from_millis(1)).map(|b| b.len()));
        std::thread::sleep(Duration::from_millis(5));
        queue.try_push(request(9)).unwrap();
        assert_eq!(worker.join().unwrap(), Some(1));
    }

    #[test]
    fn a_push_that_fills_the_batch_releases_a_lingering_worker() {
        let queue = Arc::new(SubmitQueue::<u32>::new(8));
        queue.try_push(request(0)).unwrap();
        let q2 = Arc::clone(&queue);
        let start = Instant::now();
        // An hour-long linger: only the size trigger can release it.
        let worker = std::thread::spawn(move || {
            q2.next_batch(4, Duration::from_secs(3600)).map(|b| b.len())
        });
        // Let the worker start waiting on its one request.
        std::thread::sleep(Duration::from_millis(5));
        let q3 = Arc::clone(&queue);
        std::thread::spawn(move || {
            for i in 1..4 {
                q3.try_push(request(i)).unwrap();
            }
        })
        .join()
        .unwrap();
        assert_eq!(worker.join().unwrap(), Some(4));
        assert!(
            start.elapsed() < Duration::from_secs(60),
            "the filling push never woke the lingering worker"
        );
        assert_eq!(queue.depth(), 0);
    }
}
