//! Serving configuration and the serving-layer error type.

use std::time::Duration;

/// Policy knobs of the micro-batching scheduler.
///
/// The scheduler dispatches a batch as soon as either trigger fires:
/// `max_batch` queries are pending (the batch is full), or the oldest
/// pending query has waited `linger` (latency bound). `max_batch = 1`
/// degenerates to per-query dispatch — the hardware-hostile regime the
/// paper's batching argument is about — and is allowed so benchmarks can
/// measure exactly that.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServeConfig {
    /// Maximum number of queries coalesced into one brute-force batch.
    pub max_batch: usize,
    /// Longest time a pending query may wait for co-travellers before its
    /// batch is dispatched anyway. `Duration::ZERO` dispatches whatever is
    /// pending immediately; a linger the clock cannot add to an arrival
    /// time (`Duration::MAX`) leaves only the size and shutdown triggers.
    pub linger: Duration,
    /// Bound on the pending queue. When full, [`submit`] blocks
    /// (backpressure) and [`try_submit`] returns
    /// [`ServeError::QueueFull`].
    ///
    /// [`submit`]: crate::engine::ServeHandle::submit
    /// [`try_submit`]: crate::engine::ServeHandle::try_submit
    pub queue_capacity: usize,
    /// Worker threads executing batches. Each worker closes and executes
    /// batches independently, so batch formation never stalls behind a
    /// slow execution.
    pub workers: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            max_batch: 32,
            linger: Duration::from_millis(1),
            queue_capacity: 1024,
            workers: 2,
        }
    }
}

impl ServeConfig {
    /// Overrides the maximum batch size.
    #[must_use]
    pub fn with_max_batch(mut self, max_batch: usize) -> Self {
        self.max_batch = max_batch;
        self
    }

    /// Overrides the linger time.
    #[must_use]
    pub fn with_linger(mut self, linger: Duration) -> Self {
        self.linger = linger;
        self
    }

    /// Overrides the queue capacity.
    #[must_use]
    pub fn with_queue_capacity(mut self, queue_capacity: usize) -> Self {
        self.queue_capacity = queue_capacity;
        self
    }

    /// Overrides the worker-thread count.
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Checks the configuration for degenerate values.
    ///
    /// A zero `max_batch`, `queue_capacity` or `workers` would make the
    /// scheduler spin without ever serving anything; they are rejected
    /// with a clear error instead of being silently clamped.
    /// [`Engine::start`](crate::engine::Engine::start) calls this, so a
    /// bad configuration can never produce a running engine.
    pub fn validate(&self) -> Result<(), ServeError> {
        if self.max_batch == 0 {
            return Err(ServeError::InvalidConfig(
                "ServeConfig::max_batch must be at least 1 (got 0)".into(),
            ));
        }
        if self.queue_capacity == 0 {
            return Err(ServeError::InvalidConfig(
                "ServeConfig::queue_capacity must be at least 1 (got 0)".into(),
            ));
        }
        if self.workers == 0 {
            return Err(ServeError::InvalidConfig(
                "ServeConfig::workers must be at least 1 (got 0)".into(),
            ));
        }
        Ok(())
    }
}

/// Errors surfaced by the serving layer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// The engine configuration failed validation; the message names the
    /// offending field.
    InvalidConfig(String),
    /// A submitted request was malformed (e.g. `k = 0`); the message says
    /// what was wrong.
    InvalidRequest(String),
    /// The pending queue was full and the submission was non-blocking.
    QueueFull,
    /// The request's deadline expired before a worker executed its batch;
    /// it was shed without being searched.
    DeadlineExceeded,
    /// The engine is shutting down and no longer accepts submissions.
    Shutdown,
    /// The index panicked while executing this request's batch; the
    /// request was failed rather than answered (and the worker survived).
    BatchFailed,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::InvalidConfig(message) => write!(f, "invalid serving configuration: {message}"),
            Self::InvalidRequest(message) => write!(f, "invalid request: {message}"),
            Self::QueueFull => write!(f, "pending queue is full"),
            Self::DeadlineExceeded => write!(f, "deadline expired before the query was served"),
            Self::Shutdown => write!(f, "serving engine is shut down"),
            Self::BatchFailed => {
                write!(f, "the index panicked while executing this query's batch")
            }
        }
    }
}

impl std::error::Error for ServeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        assert_eq!(ServeConfig::default().validate(), Ok(()));
    }

    #[test]
    fn zero_fields_are_rejected_with_field_names() {
        let cases = [
            (ServeConfig::default().with_max_batch(0), "max_batch"),
            (
                ServeConfig::default().with_queue_capacity(0),
                "queue_capacity",
            ),
            (ServeConfig::default().with_workers(0), "workers"),
        ];
        for (config, field) in cases {
            match config.validate() {
                Err(ServeError::InvalidConfig(message)) => {
                    assert!(message.contains(field), "{message} should name {field}");
                }
                other => panic!("expected InvalidConfig, got {other:?}"),
            }
        }
    }

    #[test]
    fn builders_override_fields() {
        let c = ServeConfig::default()
            .with_max_batch(7)
            .with_linger(Duration::from_micros(300))
            .with_queue_capacity(9)
            .with_workers(3);
        assert_eq!(c.max_batch, 7);
        assert_eq!(c.linger, Duration::from_micros(300));
        assert_eq!(c.queue_capacity, 9);
        assert_eq!(c.workers, 3);
    }

    #[test]
    fn errors_render_human_messages() {
        assert!(ServeError::QueueFull.to_string().contains("full"));
        assert!(ServeError::DeadlineExceeded
            .to_string()
            .contains("deadline"));
        assert!(ServeError::Shutdown.to_string().contains("shut down"));
        assert!(ServeError::InvalidRequest("k".into())
            .to_string()
            .contains("k"));
    }
}
