//! The work-stealing thread pool.
//!
//! Workers are spawned per stage inside [`std::thread::scope`], so
//! closures may borrow the caller's data freely. Each worker owns a
//! deque of batch ranges; it pops its own work from the front and, when
//! empty, steals from the back of a sibling's deque. Results are
//! collected per batch and reassembled in input order, which makes the
//! output independent of the schedule. An item whose closure panics is
//! re-executed in place (see [`ExecPool::map`]).

use std::cmp::Ordering;
use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use crate::report::{ExecReport, StageReport};

/// Lock a work queue, recovering from poisoning. Queue critical sections
/// only push/pop whole ranges — a panic can never leave a deque
/// half-updated — so a poisoned flag (set when a panicking stage unwinds
/// through a worker) carries no corruption and must not cascade into
/// panics on every later stage that touches the same pool.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Default number of items per batch.
const DEFAULT_BATCH: usize = 32;

/// Below this many items a parallel sort is not worth the merge pass.
const MIN_PARALLEL_SORT: usize = 2048;

/// Runs of one item before its panic fails the stage: the first attempt
/// and three re-executions, Hadoop's default number of map attempts.
const MAX_ATTEMPTS: usize = 4;

/// Apply `f` to `items[range]` in order. An item whose closure panics is
/// run again until it returns or has run [`MAX_ATTEMPTS`] times; the
/// last panic is then re-raised with its original payload. A failed
/// attempt returns nothing, so only a completed attempt's output is
/// kept, and the items before it keep theirs. Returns the outputs and
/// the number of re-executions.
///
/// The inline path and every worker call this one function, so which
/// items are retried cannot depend on the thread count.
fn run_items<T, R, F>(items: &[T], range: Range<usize>, f: &F) -> (Vec<R>, usize)
where
    F: Fn(usize, &T) -> R,
{
    let mut out = Vec::with_capacity(range.len());
    let mut retries = 0;
    for (i, item) in range.clone().zip(&items[range]) {
        let mut attempt = 1;
        // `f` must be idempotent (see the crate docs), so a run cut short
        // leaves nothing a re-run could observe but side-effect counters.
        let value = loop {
            match panic::catch_unwind(AssertUnwindSafe(|| f(i, item))) {
                Ok(value) => break value,
                Err(payload) if attempt == MAX_ATTEMPTS => panic::resume_unwind(payload),
                Err(_) => {
                    attempt += 1;
                    retries += 1;
                }
            }
        };
        out.push(value);
    }
    (out, retries)
}

/// The report of a stage that ran inline on the caller as one batch.
fn inline_stage(stage: &str, items: usize, retries: usize, elapsed: Duration) -> StageReport {
    StageReport {
        stage: stage.to_string(),
        items,
        batches: if items == 0 { 0 } else { 1 },
        threads: 1,
        stolen_batches: 0,
        retries,
        elapsed,
        min_batch: elapsed,
        mean_batch: elapsed,
        max_batch: elapsed,
    }
}

/// A configured executor. Cheap to copy; threads are spawned per stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecPool {
    threads: usize,
    batch_size: usize,
}

/// What one worker did during a stage.
struct WorkerLog<R> {
    /// `(batch_start, results)` for every batch this worker ran.
    batches: Vec<(usize, Vec<R>)>,
    /// Wall-clock latency of each batch this worker ran.
    latencies: Vec<Duration>,
    /// How many of its batches came from another worker's deque.
    stolen: usize,
    /// Re-executions of items whose closure panicked.
    retries: usize,
}

impl ExecPool {
    /// Pool with `threads` workers; `0` means one worker per available
    /// CPU.
    pub fn new(threads: usize) -> ExecPool {
        let threads = if threads == 0 {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        } else {
            threads
        };
        ExecPool { threads, batch_size: DEFAULT_BATCH }
    }

    /// A pool that always runs inline on the calling thread.
    pub fn sequential() -> ExecPool {
        ExecPool { threads: 1, batch_size: DEFAULT_BATCH }
    }

    /// Override the number of items per batch (minimum 1).
    pub fn with_batch_size(mut self, batch_size: usize) -> ExecPool {
        self.batch_size = batch_size.max(1);
        self
    }

    /// Number of worker threads this pool will use.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Apply `f` to every item, returning results in input order.
    ///
    /// Determinism: `f` completes exactly once per index, each batch
    /// stores its results keyed by its start index, and the final vector
    /// is assembled by ascending start index. The schedule (which worker
    /// ran which batch, and when) therefore cannot influence the output:
    /// `map(..)[i] == f(i, &items[i])` always, exactly as in a
    /// sequential loop.
    ///
    /// Re-execution: if `f` panics on an item, that item alone is run
    /// again, up to four runs in all. Its failed runs leave no output,
    /// and [`StageReport::retries`] counts them. If the fourth run also
    /// panics, every worker is joined and the panic is re-raised on the
    /// caller with its original payload; the pool stays usable. `f` must
    /// therefore be idempotent.
    pub fn map<T, R, F>(&self, stage: &str, items: &[T], f: F, report: &mut ExecReport) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let n = items.len();
        // Inline when parallelism cannot pay for thread spawns: fewer
        // batches than workers means most workers would idle.
        if self.threads <= 1 || n <= self.batch_size {
            let start = Instant::now();
            let (out, retries) = run_items(items, 0..n, &f);
            report.stages.push(inline_stage(stage, n, retries, start.elapsed()));
            return out;
        }

        let started = Instant::now();
        let workers = self.threads.min(n.div_ceil(self.batch_size));
        let queues: Vec<Mutex<VecDeque<Range<usize>>>> =
            (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
        let mut batches = 0usize;
        let mut lo = 0usize;
        while lo < n {
            let hi = (lo + self.batch_size).min(n);
            lock(&queues[batches % workers]).push_back(lo..hi);
            batches += 1;
            lo = hi;
        }

        let logs: Vec<WorkerLog<R>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|wid| {
                    let queues = &queues;
                    let f = &f;
                    scope.spawn(move || {
                        let mut log = WorkerLog {
                            batches: Vec::new(),
                            latencies: Vec::new(),
                            stolen: 0,
                            retries: 0,
                        };
                        loop {
                            // Own work first (front), then steal from a
                            // sibling's opposite end to limit contention.
                            let mut grabbed = lock(&queues[wid]).pop_front();
                            if grabbed.is_none() {
                                for off in 1..workers {
                                    let victim = (wid + off) % workers;
                                    if let Some(r) = lock(&queues[victim]).pop_back() {
                                        log.stolen += 1;
                                        grabbed = Some(r);
                                        break;
                                    }
                                }
                            }
                            let Some(range) = grabbed else { break };
                            let t0 = Instant::now();
                            let start = range.start;
                            let (out, retries) = run_items(items, range, f);
                            log.latencies.push(t0.elapsed());
                            log.retries += retries;
                            log.batches.push((start, out));
                        }
                        log
                    })
                })
                .collect();
            // An item that panicked on every attempt fails only this
            // stage: re-raise the first worker's payload on the caller
            // after every thread has joined, leaving the pool and its
            // queues reusable.
            let mut first_panic = None;
            let logs: Vec<WorkerLog<R>> = handles
                .into_iter()
                .filter_map(|h| match h.join() {
                    Ok(log) => Some(log),
                    Err(payload) => {
                        first_panic.get_or_insert(payload);
                        None
                    }
                })
                .collect();
            if let Some(payload) = first_panic {
                std::panic::resume_unwind(payload);
            }
            logs
        });

        let mut stolen = 0usize;
        let mut retries = 0usize;
        let mut latencies: Vec<Duration> = Vec::with_capacity(batches);
        let mut keyed: Vec<(usize, Vec<R>)> = Vec::with_capacity(batches);
        for log in logs {
            stolen += log.stolen;
            retries += log.retries;
            latencies.extend(log.latencies);
            keyed.extend(log.batches);
        }
        keyed.sort_unstable_by_key(|(start, _)| *start);
        let mut out = Vec::with_capacity(n);
        for (_, chunk) in keyed {
            out.extend(chunk);
        }

        let elapsed = started.elapsed();
        let total: Duration = latencies.iter().sum();
        report.stages.push(StageReport {
            stage: stage.to_string(),
            items: n,
            batches,
            threads: workers,
            stolen_batches: stolen,
            retries,
            elapsed,
            min_batch: latencies.iter().min().copied().unwrap_or_default(),
            mean_batch: total.checked_div(latencies.len() as u32).unwrap_or_default(),
            max_batch: latencies.iter().max().copied().unwrap_or_default(),
        });
        out
    }

    /// Stable-equivalent parallel sort: returns exactly what
    /// `items.sort_by(cmp)` (std's stable sort) would produce.
    ///
    /// Each element is tagged with its original index and `(cmp, index)`
    /// is used as a total order, which is precisely the permutation a
    /// stable sort realises. Contiguous chunks are sorted on the workers
    /// and merged with a k-way merge under the same total order, so the
    /// result is the unique sorted sequence — independent of chunking.
    pub fn sort_by<T, F>(
        &self,
        stage: &str,
        mut items: Vec<T>,
        cmp: F,
        report: &mut ExecReport,
    ) -> Vec<T>
    where
        T: Send,
        F: Fn(&T, &T) -> Ordering + Sync,
    {
        let n = items.len();
        if self.threads <= 1 || n < MIN_PARALLEL_SORT {
            let start = Instant::now();
            items.sort_by(&cmp);
            report.stages.push(inline_stage(stage, n, 0, start.elapsed()));
            return items;
        }

        let started = Instant::now();
        let mut tagged: Vec<(usize, T)> = items.into_iter().enumerate().collect();
        let workers = self.threads;
        let chunk_len = n.div_ceil(workers);
        let total = |a: &(usize, T), b: &(usize, T)| cmp(&a.1, &b.1).then(a.0.cmp(&b.0));

        let mut latencies: Vec<Duration> = Vec::with_capacity(workers);
        std::thread::scope(|scope| {
            let handles: Vec<_> = tagged
                .chunks_mut(chunk_len)
                .map(|chunk| {
                    scope.spawn(|| {
                        let t0 = Instant::now();
                        // (cmp, index) is a total order, so an unstable
                        // sort is deterministic here.
                        chunk.sort_unstable_by(total);
                        t0.elapsed()
                    })
                })
                .collect();
            let mut first_panic = None;
            for h in handles {
                match h.join() {
                    Ok(latency) => latencies.push(latency),
                    Err(payload) => {
                        first_panic.get_or_insert(payload);
                    }
                }
            }
            // As in `map`: a panicking comparator fails this sort only.
            if let Some(payload) = first_panic {
                std::panic::resume_unwind(payload);
            }
        });

        // K-way merge of the sorted runs under the same total order.
        let mut runs: Vec<std::vec::IntoIter<(usize, T)>> = Vec::with_capacity(workers);
        {
            let mut rest = tagged;
            while rest.len() > chunk_len {
                let tail = rest.split_off(chunk_len);
                runs.push(rest.into_iter());
                rest = tail;
            }
            runs.push(rest.into_iter());
        }
        let mut heads: Vec<Option<(usize, T)>> = runs.iter_mut().map(|r| r.next()).collect();
        let mut out: Vec<T> = Vec::with_capacity(n);
        loop {
            let mut best: Option<usize> = None;
            for (i, head) in heads.iter().enumerate() {
                if let Some(h) = head {
                    match best {
                        // quarry-audit: allow(QA101, reason = "best only ever holds an index whose head is Some")
                        Some(b) if total(heads[b].as_ref().unwrap(), h) != Ordering::Greater => {}
                        _ => best = Some(i),
                    }
                }
            }
            let Some(b) = best else { break };
            // quarry-audit: allow(QA101, reason = "best only ever holds an index whose head is Some")
            let (_, value) = heads[b].take().unwrap();
            out.push(value);
            heads[b] = runs[b].next();
        }

        let elapsed = started.elapsed();
        let batches = latencies.len();
        let sum: Duration = latencies.iter().sum();
        report.stages.push(StageReport {
            stage: stage.to_string(),
            items: n,
            batches,
            threads: workers,
            stolen_batches: 0,
            retries: 0,
            elapsed,
            min_batch: latencies.iter().min().copied().unwrap_or_default(),
            mean_batch: sum.checked_div(batches as u32).unwrap_or_default(),
            max_batch: latencies.iter().max().copied().unwrap_or_default(),
        });
        out
    }
}

impl Default for ExecPool {
    fn default() -> ExecPool {
        ExecPool::new(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

    #[test]
    fn map_matches_sequential_at_every_thread_count() {
        let items: Vec<u64> = (0..1000).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
        for threads in [1, 2, 3, 4, 8] {
            let pool = ExecPool::new(threads).with_batch_size(7);
            let mut report = ExecReport::new();
            let got = pool.map("square", &items, |_, x| x * x + 1, &mut report);
            assert_eq!(got, expected, "threads={threads}");
            let stage = report.stage("square").unwrap();
            assert_eq!(stage.items, 1000);
            assert!(stage.batches >= 1);
        }
    }

    #[test]
    fn map_passes_true_indices() {
        let items = vec!["a"; 500];
        let pool = ExecPool::new(4).with_batch_size(13);
        let mut report = ExecReport::new();
        let got = pool.map("idx", &items, |i, _| i, &mut report);
        assert_eq!(got, (0..500).collect::<Vec<_>>());
    }

    #[test]
    fn map_handles_empty_and_tiny_inputs() {
        let pool = ExecPool::new(8);
        let mut report = ExecReport::new();
        let empty: Vec<u32> = pool.map("empty", &[], |_, x: &u32| *x, &mut report);
        assert!(empty.is_empty());
        assert_eq!(report.stage("empty").unwrap().batches, 0);
        let one = pool.map("one", &[41u32], |_, x| x + 1, &mut report);
        assert_eq!(one, vec![42]);
        assert_eq!(report.stage("one").unwrap().threads, 1);
    }

    #[test]
    fn sort_matches_stable_sort_with_duplicate_keys() {
        // Many duplicate keys + distinct payloads expose any
        // stability violation.
        let items: Vec<(u8, usize)> = (0..10_000).map(|i| ((i % 7) as u8, i)).collect();
        let mut expected = items.clone();
        expected.sort_by_key(|a| a.0);
        for threads in [1, 2, 3, 8] {
            let pool = ExecPool::new(threads);
            let mut report = ExecReport::new();
            let got = pool.sort_by("s", items.clone(), |a, b| a.0.cmp(&b.0), &mut report);
            assert_eq!(got, expected, "threads={threads}");
        }
    }

    #[test]
    fn injected_panics_are_re_executed_identically_at_every_width() {
        // Item i panics on its first `fails[i]` attempts: 0 for most,
        // up to MAX_ATTEMPTS - 1, drawn from a seeded LCG.
        let mut state = 26u64;
        let fails: Vec<usize> = (0..100)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((state >> 61) as usize).saturating_sub(4)
            })
            .collect();
        let failures: usize = fails.iter().sum();
        assert!(failures > 10, "the plan must inject failures: {failures}");
        let items: Vec<u64> = (0..100).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
        for threads in [1, 2, 3, 4, 8] {
            for batch in [1, 7, 32] {
                let attempts: Vec<AtomicUsize> =
                    fails.iter().map(|_| AtomicUsize::new(0)).collect();
                let pool = ExecPool::new(threads).with_batch_size(batch);
                let mut report = ExecReport::new();
                let flaky = |i: usize, x: &u64| {
                    if attempts[i].fetch_add(1, Relaxed) < fails[i] {
                        panic!("injected failure");
                    }
                    x * 3 + 1
                };
                let got = pool.map("flaky", &items, flaky, &mut report);
                assert_eq!(got, expected, "threads={threads} batch={batch}");
                let retries = report.stage("flaky").unwrap().retries;
                assert_eq!(retries, failures, "threads={threads} batch={batch}");
            }
        }
    }

    #[test]
    fn panicking_closure_fails_its_stage_and_pool_stays_reusable() {
        let items: Vec<u64> = (0..500).collect();
        let pool = ExecPool::new(4).with_batch_size(13);
        let mut report = ExecReport::new();
        let runs = AtomicUsize::new(0);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.map(
                "boom",
                &items,
                |i, x| {
                    if i == 137 {
                        runs.fetch_add(1, Relaxed);
                        panic!("task 137 failed")
                    }
                    x * 2
                },
                &mut report,
            )
        }));
        let payload = result.expect_err("the stage must fail");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "task 137 failed", "caller sees the original panic payload");
        assert_eq!(runs.load(Relaxed), MAX_ATTEMPTS, "a failing item runs MAX_ATTEMPTS times");
        // One bad task must not take the pool down with it: the next stage
        // over the same pool runs normally.
        let mut report = ExecReport::new();
        let got = pool.map("after", &items, |_, x| x + 1, &mut report);
        assert_eq!(got, (1..=500).collect::<Vec<u64>>());
    }

    #[test]
    fn zero_threads_resolves_to_available_parallelism() {
        assert!(ExecPool::new(0).threads() >= 1);
        assert_eq!(ExecPool::sequential().threads(), 1);
    }
}
