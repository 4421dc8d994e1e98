//! Result tickets: the producer side of a submitted query.

use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use rbc_bruteforce::Neighbor;

use crate::config::ServeError;

/// The answer to one served query.
#[derive(Clone, Debug, PartialEq)]
pub struct ServeReply {
    /// The `k` nearest neighbors, sorted by ascending distance — exactly
    /// what a direct `query_k` call on the underlying index returns.
    pub neighbors: Vec<Neighbor>,
    /// Time from submission to completion (queueing + batching + search).
    pub latency: Duration,
    /// Number of live queries in the micro-batch this request rode in —
    /// the "achieved batch size" the engine exists to maximise.
    pub batch_size: usize,
    /// Whether this answer is a flagged partial result — part of the
    /// index was unreachable when the batch executed (e.g. an
    /// unreplicated shard was down), so the neighbors may be a subset of
    /// the true answer. Always `false` for indexes that cannot degrade.
    pub degraded: bool,
}

/// Shared completion slot between a worker and a waiting producer.
#[derive(Debug, Default)]
pub(crate) struct TicketCell {
    slot: Mutex<Option<Result<ServeReply, ServeError>>>,
    ready: Condvar,
}

impl TicketCell {
    /// Completes the ticket; a second completion is a logic error.
    pub(crate) fn complete(&self, outcome: Result<ServeReply, ServeError>) {
        let mut slot = self.slot.lock().expect("ticket lock poisoned");
        debug_assert!(slot.is_none(), "ticket completed twice");
        *slot = Some(outcome);
        self.ready.notify_all();
    }
}

/// A claim on the eventual answer of a submitted query.
///
/// Returned by [`ServeHandle::submit`](crate::engine::ServeHandle::submit);
/// redeem it with [`wait`](Ticket::wait). Dropping a ticket abandons the
/// answer but does not cancel the query — it still rides its batch (and
/// still counts in the engine metrics).
#[derive(Debug)]
pub struct Ticket {
    cell: Arc<TicketCell>,
}

impl Ticket {
    pub(crate) fn new() -> (Self, Arc<TicketCell>) {
        let cell = Arc::new(TicketCell::default());
        (Self { cell: cell.clone() }, cell)
    }

    /// Blocks until the query's batch has been executed (or the request
    /// was shed) and returns the outcome.
    pub fn wait(self) -> Result<ServeReply, ServeError> {
        let mut slot = self.cell.slot.lock().expect("ticket lock poisoned");
        loop {
            if let Some(outcome) = slot.take() {
                return outcome;
            }
            slot = self.cell.ready.wait(slot).expect("ticket lock poisoned");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reply(batch_size: usize) -> ServeReply {
        ServeReply {
            neighbors: vec![Neighbor::new(3, 0.5)],
            latency: Duration::from_micros(10),
            batch_size,
            degraded: false,
        }
    }

    #[test]
    fn wait_returns_a_prior_completion_immediately() {
        let (ticket, cell) = Ticket::new();
        cell.complete(Ok(reply(4)));
        let got = ticket.wait().unwrap();
        assert_eq!(got.batch_size, 4);
        assert_eq!(got.neighbors[0].index, 3);
    }

    #[test]
    fn wait_blocks_until_a_worker_completes() {
        let (ticket, cell) = Ticket::new();
        let worker = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(5));
            cell.complete(Err(ServeError::DeadlineExceeded));
        });
        assert_eq!(ticket.wait(), Err(ServeError::DeadlineExceeded));
        worker.join().unwrap();
    }
}
