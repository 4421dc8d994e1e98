//! Offline stand-in for [`rayon`](https://crates.io/crates/rayon).
//!
//! The build environment for this repository has no access to crates.io, so
//! the workspace vendors the *subset* of the rayon API its code actually
//! uses, implemented on one persistent pool of helper threads whose work is
//! **claimed, not pre-cut**.
//!
//! # How a parallel call runs
//!
//! * **Job.** `map` / `flat_map_iter` cut their items into chunks of one
//!   *grain* — `max(min_len, ⌈n / (8 · degree)⌉)` items, `degree` being
//!   [`current_num_threads`] — and publish one job: the chunks, the borrowed
//!   closure and an atomic index of the next unclaimed chunk.
//! * **Claim.** Whoever works on the job takes the next chunk with one
//!   `fetch_add`, maps it, stores the chunk's results in the chunk's own
//!   slot, and repeats until no chunk is left. Slots are joined in input
//!   order, so the output is the sequential output whatever the schedule.
//!   A thread that draws a heavy chunk simply claims fewer of the others;
//!   eight claims per thread are enough for a largest-first work list to
//!   balance, and few enough that a long run of small items keeps its
//!   locality.
//! * **The caller participates.** The publishing thread works on its own
//!   job until every chunk is claimed, then waits only for helpers that are
//!   still inside one. A job therefore never needs a helper to show up: a
//!   caller that claims everything before a helper wakes *is* the
//!   sequential path. Nested parallel calls, any number of concurrent
//!   callers, and closures that block (a network round trip per item)
//!   cannot deadlock — every wait is for a thread that is running a chunk
//!   it already claimed.
//! * **Helpers** are started lazily, once (as many as the largest
//!   `degree − 1` any job has asked for), park on a condition variable
//!   between jobs and live for the rest of the process, like rayon's global
//!   pool. At most `degree − 1` of them enter one job, and while inside they
//!   adopt the job's degree, so [`ThreadPool::install`] keeps meaning "at
//!   most `n` threads, caller included, work on jobs started inside".
//! * **Panics.** A panic in the closure stops further claims on that job;
//!   once every helper has left, the first payload is re-raised on the
//!   caller. Helpers survive it and serve the next job.
//!
//! Remaining differences from real rayon, by design: iterators are
//! materialised eagerly (`map` runs its closure immediately instead of
//! building a lazy pipeline), which is fine for the coarse-grained
//! index/query loops this workspace runs; there is one global pool, and a
//! [`ThreadPool`] is a degree, not a set of threads.
//!
//! Swapping back to the real crate is a one-line change in the workspace
//! manifest; no source code references anything outside rayon's public API.

use std::any::Any;
use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

/// The traits that make `.par_iter()` / `.into_par_iter()` resolve.
pub mod prelude {
    pub use crate::{IntoParallelIterator, ParallelSlice};
}

thread_local! {
    static INSTALLED_THREADS: Cell<Option<usize>> = const { Cell::new(None) };
}

fn default_threads() -> usize {
    // Asked once: on Linux the answer is read from the affinity mask and the
    // cgroup files, far too slow to repeat on every parallel call.
    static HOST: OnceLock<usize> = OnceLock::new();
    *HOST.get_or_init(|| {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// Number of threads, the caller included, that parallel operations started
/// on this thread will use.
///
/// Inside [`ThreadPool::install`] this is the pool's configured size;
/// elsewhere it is [`std::thread::available_parallelism`].
pub fn current_num_threads() -> usize {
    INSTALLED_THREADS
        .with(Cell::get)
        .unwrap_or_else(default_threads)
}

/// Error returned when a [`ThreadPoolBuilder`] cannot build a pool.
#[derive(Debug)]
pub struct ThreadPoolBuildError {
    message: String,
}

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// Builder for a [`ThreadPool`] with a fixed worker count.
#[derive(Default)]
pub struct ThreadPoolBuilder {
    num_threads: Option<usize>,
}

impl ThreadPoolBuilder {
    /// Starts a builder with default settings (host parallelism).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the number of worker threads; `0` means host parallelism.
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = Some(n);
        self
    }

    /// Accepted for API compatibility; the helper threads are shared by
    /// every pool handle, so the closure is ignored.
    pub fn thread_name<F>(self, _f: F) -> Self
    where
        F: Fn(usize) -> String,
    {
        self
    }

    /// Builds the pool.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let threads = match self.num_threads {
            Some(0) | None => default_threads(),
            Some(n) => n,
        };
        Ok(ThreadPool { threads })
    }
}

/// A handle that pins the degree of parallelism for work run inside
/// [`install`](ThreadPool::install).
pub struct ThreadPool {
    threads: usize,
}

/// Sets this thread's degree and restores the previous one on drop, so a
/// panic inside `install` (or inside a job a helper assists) cannot leak
/// the setting.
struct DegreeGuard {
    previous: Option<usize>,
}

impl DegreeGuard {
    fn set(threads: usize) -> Self {
        Self {
            previous: INSTALLED_THREADS.with(|c| c.replace(Some(threads))),
        }
    }
}

impl Drop for DegreeGuard {
    fn drop(&mut self) {
        INSTALLED_THREADS.with(|c| c.set(self.previous));
    }
}

impl ThreadPool {
    /// The configured number of worker threads.
    pub fn current_num_threads(&self) -> usize {
        self.threads
    }

    /// Runs `op` on the calling thread with this pool's thread count
    /// governing any parallel iterators it executes, and returns its result.
    pub fn install<OP, R>(&self, op: OP) -> R
    where
        OP: FnOnce() -> R + Send,
        R: Send,
    {
        let _guard = DegreeGuard::set(self.threads);
        op()
    }
}

/// What a thread that panicked inside a job leaves behind.
type PanicPayload = Box<dyn Any + Send + 'static>;

/// One published job, as the helpers see it.
struct Job {
    id: u64,
    /// Claims and runs chunks until none is left; returns when the job has
    /// nothing more to hand out. Borrowed from the publisher's stack: a
    /// helper may call it only between counting itself into `inside` and
    /// counting itself out again.
    work: &'static (dyn Fn() + Sync),
    /// Degree the job was published under; helpers adopt it while inside.
    degree: usize,
    /// Helpers that may still enter; zero once the job is retired.
    tickets: usize,
    /// Helpers currently inside `work`.
    inside: usize,
    /// First panic a helper caught inside `work`.
    panic: Option<PanicPayload>,
}

struct PoolState {
    /// Jobs published and not yet retired, oldest first.
    jobs: Vec<Job>,
    next_id: u64,
    /// Helper threads started so far.
    helpers: usize,
}

/// The process-wide pool. Every field of [`PoolState`] changes only under
/// `state`, and no closure from outside this module ever runs under it.
struct Pool {
    state: Mutex<PoolState>,
    /// Signalled when a job with tickets is published; helpers wait on it.
    job_published: Condvar,
    /// Signalled when the last helper leaves a job; publishers wait on it.
    job_vacated: Condvar,
}

static POOL: Pool = Pool {
    state: Mutex::new(PoolState {
        jobs: Vec::new(),
        next_id: 0,
        helpers: 0,
    }),
    job_published: Condvar::new(),
    job_vacated: Condvar::new(),
};

impl Pool {
    fn lock(&self) -> MutexGuard<'_, PoolState> {
        // Only the counter updates below run under this lock; each leaves
        // the state valid, so a poisoned lock is still good to use — and
        // `retire` must not unwind before its job is vacated.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Makes `work` visible to up to `degree - 1` helpers, starting helper
    /// threads the first time that many are asked for.
    fn publish(&'static self, work: &'static (dyn Fn() + Sync), degree: usize) -> u64 {
        let tickets = degree - 1;
        let mut state = self.lock();
        while state.helpers < tickets {
            let started = std::thread::Builder::new()
                .name(format!("par-helper-{}", state.helpers))
                .spawn(move || self.help());
            if started.is_err() {
                // The host will not give us a thread: the job does not
                // need one, it only finishes later.
                break;
            }
            state.helpers += 1;
        }
        let id = state.next_id;
        state.next_id += 1;
        state.jobs.push(Job {
            id,
            work,
            degree,
            tickets,
            inside: 0,
            panic: None,
        });
        drop(state);
        if tickets == 1 {
            self.job_published.notify_one();
        } else {
            self.job_published.notify_all();
        }
        id
    }

    /// Closes job `id` to new helpers, waits until those inside have left,
    /// and removes it. Returns the first panic a helper caught.
    fn retire(&self, id: u64) -> Option<PanicPayload> {
        let mut state = self.lock();
        loop {
            let at = state
                .jobs
                .iter()
                .position(|job| job.id == id)
                .expect("a job stays listed until its publisher retires it");
            state.jobs[at].tickets = 0;
            if state.jobs[at].inside == 0 {
                return state.jobs.remove(at).panic;
            }
            state = self
                .job_vacated
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Body of a helper thread: enter any job that still has a ticket, work
    /// on it until it has nothing more to hand out, leave, repeat.
    fn help(&self) {
        let mut state = self.lock();
        loop {
            let Some(job) = state.jobs.iter_mut().find(|job| job.tickets > 0) else {
                state = self
                    .job_published
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
                continue;
            };
            job.tickets -= 1;
            job.inside += 1;
            let (id, work, degree) = (job.id, job.work, job.degree);
            drop(state);
            let outcome = {
                let _degree = DegreeGuard::set(degree);
                catch_unwind(AssertUnwindSafe(work))
            };
            state = self.lock();
            let job = state
                .jobs
                .iter_mut()
                .find(|job| job.id == id)
                .expect("a job stays listed while a helper is inside it");
            if let Err(payload) = outcome {
                job.panic.get_or_insert(payload);
            }
            job.inside -= 1;
            if job.inside == 0 {
                self.job_vacated.notify_all();
            }
        }
    }
}

/// Runs `work` on the calling thread and on up to `degree - 1` helpers at
/// once, returning when every one of them has returned from it. `work` must
/// hand out its own pieces (see [`parallel_map_vec`]); a panic inside it,
/// on any thread, is re-raised here.
fn run_job(degree: usize, work: &(dyn Fn() + Sync)) {
    // SAFETY: the transmute only lengthens the borrow's lifetime so the
    // reference can sit in the static pool. It is dereferenced by a helper
    // only between `inside += 1` — done under the pool lock, and only while
    // `tickets > 0` — and the matching `inside -= 1`. `retire` below zeroes
    // `tickets` under the same lock, waits for `inside == 0` and unlists
    // the job before it returns, and nothing between `publish` and `retire`
    // can unwind (the caller's own run is caught; `Pool::lock` ignores
    // poisoning). So when this function returns or unwinds — the earliest
    // the borrow can end — no helper holds or can obtain the reference.
    let lent =
        unsafe { std::mem::transmute::<&(dyn Fn() + Sync), &'static (dyn Fn() + Sync)>(work) };
    let id = POOL.publish(lent, degree);
    let own = catch_unwind(AssertUnwindSafe(work));
    let helped = POOL.retire(id);
    if let Err(payload) = own {
        resume_unwind(payload);
    }
    if let Some(payload) = helped {
        resume_unwind(payload);
    }
}

/// How many chunks each thread of a job gets to claim, on average: enough
/// that a largest-first work list balances, few enough that a claim stays a
/// long contiguous run.
const CLAIMS_PER_THREAD: usize = 8;

/// Items per claim for a job of `n` items: `max(min_len, ⌈n / (8 · degree)⌉)`.
fn grain(n: usize, min_len: usize, degree: usize) -> usize {
    n.div_ceil(CLAIMS_PER_THREAD * degree).max(min_len)
}

/// Stops further claims on a job when the thread holding it unwinds.
struct StopClaimsOnPanic<'a> {
    next: &'a AtomicUsize,
    chunks: usize,
}

impl Drop for StopClaimsOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.next.store(self.chunks, Ordering::Relaxed);
        }
    }
}

/// Maps `f` over `items` on up to [`current_num_threads`] threads — this
/// one and the pool's helpers — preserving input order in the output.
fn parallel_map_vec<T, R, F>(items: Vec<T>, min_len: usize, f: &F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let degree = current_num_threads();
    let n = items.len();
    let grain = grain(n, min_len, degree);
    if degree <= 1 || n <= grain {
        // One thread or one chunk: nothing to share.
        return items.into_iter().map(f).collect();
    }
    // One slot per chunk: its items going in, its results coming out. Each
    // slot is locked by the one thread that claimed it, then by the join.
    let mut rest = items.into_iter();
    let slots: Vec<Mutex<(Vec<T>, Vec<R>)>> = (0..n.div_ceil(grain))
        .map(|_| Mutex::new((rest.by_ref().take(grain).collect(), Vec::new())))
        .collect();
    // `Relaxed` is enough: the index publishes nothing. A chunk's data is
    // handed over by its slot's mutex, and the results reach the join below
    // through the pool lock every helper takes on its way out.
    let next = AtomicUsize::new(0);
    let work = || {
        let _stop = StopClaimsOnPanic {
            next: &next,
            chunks: slots.len(),
        };
        loop {
            let claimed = next.fetch_add(1, Ordering::Relaxed);
            let Some(slot) = slots.get(claimed) else {
                break;
            };
            let mut slot = slot.lock().unwrap_or_else(PoisonError::into_inner);
            slot.1 = std::mem::take(&mut slot.0).into_iter().map(f).collect();
        }
    };
    run_job(degree, &work);
    let mut out: Vec<R> = Vec::with_capacity(n);
    for slot in slots {
        out.extend(slot.into_inner().unwrap_or_else(PoisonError::into_inner).1);
    }
    out
}

/// An eagerly evaluated parallel iterator over an owned collection of items.
pub struct ParIter<T> {
    items: Vec<T>,
    min_len: usize,
}

impl<T: Send> ParIter<T> {
    fn new(items: Vec<T>) -> Self {
        Self { items, min_len: 1 }
    }

    /// Lower bound on the number of items a worker processes; mirrors
    /// rayon's splitting hint.
    pub fn with_min_len(mut self, min: usize) -> Self {
        self.min_len = min.max(1);
        self
    }

    /// Applies `f` to every item in parallel, preserving order.
    pub fn map<R, F>(self, f: F) -> ParIter<R>
    where
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        ParIter::new(parallel_map_vec(self.items, self.min_len, &f))
    }

    /// Applies `f` in parallel and flattens the returned iterators,
    /// preserving order.
    pub fn flat_map_iter<I, F>(self, f: F) -> ParIter<I::Item>
    where
        I: IntoIterator,
        I::Item: Send,
        F: Fn(T) -> I + Sync,
    {
        let produce = |t: T| f(t).into_iter().collect::<Vec<_>>();
        let nested = parallel_map_vec(self.items, self.min_len, &produce);
        ParIter::new(nested.into_iter().flatten().collect())
    }

    /// Collects the items into any [`FromIterator`] collection.
    pub fn collect<C: FromIterator<T>>(self) -> C {
        self.items.into_iter().collect()
    }

    /// Sums the items.
    pub fn sum<S: std::iter::Sum<T>>(self) -> S {
        self.items.into_iter().sum()
    }

    /// Folds the items with `op`, starting from `identity()`.
    pub fn reduce<ID, OP>(self, identity: ID, op: OP) -> T
    where
        ID: Fn() -> T,
        OP: Fn(T, T) -> T,
    {
        self.items.into_iter().fold(identity(), op)
    }

    /// Folds the items with `op`; `None` if there are no items.
    pub fn reduce_with<OP>(self, op: OP) -> Option<T>
    where
        OP: Fn(T, T) -> T,
    {
        self.items.into_iter().reduce(op)
    }
}

/// Conversion into a [`ParIter`], mirroring rayon's trait of the same name.
pub trait IntoParallelIterator {
    /// The type of item the parallel iterator yields.
    type Item: Send;

    /// Consumes `self` and returns a parallel iterator over its items.
    fn into_par_iter(self) -> ParIter<Self::Item>;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;

    fn into_par_iter(self) -> ParIter<T> {
        ParIter::new(self)
    }
}

impl<T: Send> IntoParallelIterator for std::ops::Range<T>
where
    std::ops::Range<T>: Iterator<Item = T>,
{
    type Item = T;

    fn into_par_iter(self) -> ParIter<T> {
        ParIter::new(self.collect())
    }
}

/// Borrowing parallel iteration over slices (and anything that derefs to
/// one, like `Vec`).
pub trait ParallelSlice<T: Sync> {
    /// Parallel iterator over `&T` items.
    fn par_iter(&self) -> ParIter<&T>;

    /// Parallel iterator over contiguous chunks of at most `size` items.
    fn par_chunks(&self, size: usize) -> ParIter<&[T]>;
}

impl<T: Sync> ParallelSlice<T> for [T] {
    fn par_iter(&self) -> ParIter<&T> {
        ParIter::new(self.iter().collect())
    }

    fn par_chunks(&self, size: usize) -> ParIter<&[T]> {
        ParIter::new(self.chunks(size.max(1)).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicBool;
    use std::thread::ThreadId;
    use std::time::{Duration, Instant};

    /// Largest degree any test here installs; bounds the helpers the shared
    /// pool may ever start while this test binary runs.
    const MAX_TEST_DEGREE: usize = 5;

    /// A wait that cannot hang the suite: spins until `ready` or gives up
    /// after a minute and reports it.
    fn spin_until(what: &str, ready: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(60);
        while !ready() {
            assert!(Instant::now() < deadline, "gave up waiting for {what}");
            std::thread::yield_now();
        }
    }

    fn pool(threads: usize) -> ThreadPool {
        assert!(threads <= MAX_TEST_DEGREE);
        ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap()
    }

    /// A 64-item job on two threads whose item 0 will not return until every
    /// item outside its own claim has: it completes only if a second thread
    /// claims the rest while the first is stuck — impossible when each thread
    /// is handed half the items up front.
    fn skewed_job() -> Vec<usize> {
        const N: usize = 64;
        let others = N - grain(N, 1, 2);
        let finished = AtomicUsize::new(0);
        pool(2).install(|| {
            (0..N)
                .into_par_iter()
                .map(|i| {
                    if i == 0 {
                        spin_until("the items outside item 0's claim", || {
                            finished.load(Ordering::SeqCst) >= others
                        });
                    } else {
                        finished.fetch_add(1, Ordering::SeqCst);
                    }
                    i
                })
                .collect()
        })
    }

    fn burn(rounds: u64) -> u64 {
        (0..rounds).fold(0u64, |acc, x| std::hint::black_box(acc.wrapping_add(x * x)))
    }

    #[test]
    fn map_collect_preserves_order() {
        let got: Vec<u64> = (0..1000u64).into_par_iter().map(|i| i * i).collect();
        let want: Vec<u64> = (0..1000u64).map(|i| i * i).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn sum_matches_sequential() {
        let got: u64 = (0..10_000u64).into_par_iter().map(|i| i * 3).sum();
        let want: u64 = (0..10_000u64).map(|i| i * 3).sum();
        assert_eq!(got, want);
    }

    #[test]
    fn install_pins_thread_count() {
        let pool = pool(3);
        assert_eq!(pool.current_num_threads(), 3);
        assert_eq!(pool.install(current_num_threads), 3);
        // The setting does not leak out of install().
        assert_eq!(current_num_threads(), default_threads());
        // Helpers adopt the degree of the job they assist.
        let seen: Vec<usize> = pool.install(|| {
            (0..64)
                .into_par_iter()
                .map(|_| current_num_threads())
                .collect()
        });
        assert!(seen.iter().all(|&degree| degree == 3));
    }

    #[test]
    fn reduce_and_chunks_work() {
        let v: Vec<u32> = (1..=100).collect();
        let total: u32 = v.par_chunks(7).map(|c| c.iter().sum::<u32>()).sum();
        assert_eq!(total, 5050);
        let max = v.par_iter().map(|&x| x).reduce(|| 0, u32::max);
        assert_eq!(max, 100);
        let none: Option<u32> = Vec::<u32>::new().into_par_iter().reduce_with(u32::max);
        assert!(none.is_none());
    }

    #[test]
    fn flat_map_iter_flattens_in_order() {
        let got: Vec<usize> = (0..5usize)
            .into_par_iter()
            .flat_map_iter(|i| vec![i; i])
            .collect();
        let want: Vec<usize> = (0..5usize).flat_map(|i| vec![i; i]).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn a_stuck_item_does_not_strand_the_rest() {
        assert_eq!(skewed_job(), (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn output_order_is_input_order_whatever_the_costs() {
        let n = 300u64;
        let descending: Vec<u64> = (0..n).map(|i| (n - i) * 400).collect();
        // SplitMix64 steps: costs with no pattern the claim order could match.
        let random: Vec<u64> = (0..n)
            .map(|i| {
                let mut z = (i + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                (z ^ (z >> 27)) % 100_000
            })
            .collect();
        for costs in [descending, random] {
            for threads in [2, 3, MAX_TEST_DEGREE] {
                let got: Vec<(usize, u64)> = pool(threads).install(|| {
                    costs
                        .par_iter()
                        .map(|&c| burn(c))
                        .collect::<Vec<u64>>()
                        .into_iter()
                        .enumerate()
                        .collect()
                });
                let want: Vec<(usize, u64)> = costs.iter().map(|&c| burn(c)).enumerate().collect();
                assert_eq!(got, want);
            }
        }
    }

    #[test]
    fn a_helper_panic_reaches_the_caller_and_the_pool_survives() {
        let caller = std::thread::current().id();
        let helper_came = AtomicBool::new(false);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            pool(2).install(|| {
                (0..64)
                    .into_par_iter()
                    .map(|i: usize| {
                        if std::thread::current().id() != caller {
                            helper_came.store(true, Ordering::SeqCst);
                            panic!("item {i} failed on a helper");
                        }
                        // The caller holds its first item until the helper
                        // has claimed one, so the panic is the helper's.
                        spin_until("a helper to claim an item", || {
                            helper_came.load(Ordering::SeqCst)
                        });
                        i
                    })
                    .collect::<Vec<usize>>()
            })
        }));
        let payload = outcome.expect_err("the helper's panic must surface");
        let message = payload.downcast_ref::<String>().expect("a formatted panic");
        assert!(message.contains("failed on a helper"), "{message}");
        // The next job still gets a helper (it cannot finish without one).
        assert_eq!(skewed_job(), (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn nested_and_concurrent_jobs_all_finish() {
        let nested: Vec<u64> = pool(3).install(|| {
            (0..40u64)
                .into_par_iter()
                .map(|i| (0..50u64).into_par_iter().map(|j| i * j).sum::<u64>())
                .collect()
        });
        let want: Vec<u64> = (0..40u64)
            .map(|i| (0..50u64).map(|j| i * j).sum())
            .collect();
        assert_eq!(nested, want);

        let callers: Vec<_> = (0..8u64)
            .map(|t| {
                std::thread::spawn(move || {
                    for job in 0..200u64 {
                        let got: u64 = pool(2)
                            .install(|| (0..64u64).into_par_iter().map(|i| i + t + job).sum());
                        assert_eq!(got, (0..64u64).map(|i| i + t + job).sum::<u64>());
                    }
                })
            })
            .collect();
        for caller in callers {
            caller.join().expect("a concurrent caller failed");
        }
    }

    #[test]
    fn jobs_reuse_the_same_few_threads() {
        let mut seen: HashSet<ThreadId> = HashSet::new();
        for _ in 0..1000 {
            let ids: Vec<ThreadId> = pool(2).install(|| {
                (0..32)
                    .into_par_iter()
                    .map(|_| std::thread::current().id())
                    .collect()
            });
            seen.extend(ids);
        }
        let helpers = POOL.lock().helpers;
        assert!(helpers < MAX_TEST_DEGREE, "{helpers} helpers started");
        assert!(
            seen.len() <= 1 + helpers,
            "{} threads ran items",
            seen.len()
        );
    }

    #[test]
    fn install_one_stays_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let ids: Vec<ThreadId> = pool(1).install(|| {
            (0..1000)
                .into_par_iter()
                .map(|_| std::thread::current().id())
                .collect()
        });
        assert!(ids.iter().all(|&id| id == caller));
    }
}
