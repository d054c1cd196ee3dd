//! The workspace's worker-pool abstraction: per-view fan-out in the engine,
//! per-shard commit in [`SharedDatabase::apply_batch`](crate::SharedDatabase::apply_batch),
//! and per-partition counting folds in the incremental layer all schedule on
//! this one seam.
//!
//! [`WorkerPool::run`] maps a function over a task list, preserving input
//! order in the results.  With the `parallel` feature and more than one
//! configured worker, the tasks are claimed off a shared atomic cursor —
//! classic self-scheduling, so a mix of cheap (skipped) and expensive tasks
//! balances itself without any splitting heuristic — by the **calling thread
//! and a process-wide set of persistent helper threads**.  With the feature
//! disabled, or one worker, or one task, the map runs inline on the caller's
//! thread with zero overhead.
//!
//! ## Why the helpers persist
//!
//! A maintained batch crosses this seam about eight times (two commit rounds,
//! the view fan-out, one round per counting-side fold).  Spawning scoped
//! threads cost ~45 µs per round — a millisecond per batch once the folds
//! themselves were down to microseconds — so no thread is created on the batch
//! path: helpers are started lazily, the first time a pool wider than the
//! helpers on hand runs (up to the widest width ever asked for, minus one for
//! the caller), and then park on a condvar between jobs.  They are detached
//! and live for the rest of the process; an idle helper costs a parked thread
//! and nothing else.
//!
//! ## The protocol
//!
//! `run` publishes a *job* — a type-erased "claim tasks until the cursor is
//! exhausted" closure plus a number of helper seats — wakes parked helpers,
//! and then **runs the same closure itself**.  It returns only after the
//! cursor is exhausted *and* no helper is still inside the closure, on unwind
//! too, so nothing the job borrows from the caller's stack outlives the call.
//! Because the caller always makes progress alone, nothing ever waits for a
//! helper to become free: a nested `run` from inside a task (view fan-out →
//! partition fold) cannot deadlock, and when every helper is busy it simply
//! degrades to inline execution.
//!
//! A panic in a task is caught where it happens (helper threads never die),
//! the remaining tasks still run, and the first payload is re-raised in the
//! caller once the job is quiescent — what joining a scope of spawned workers
//! did.

#[cfg(feature = "parallel")]
use std::any::Any;
#[cfg(feature = "parallel")]
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
#[cfg(feature = "parallel")]
use std::sync::atomic::{AtomicUsize, Ordering};
#[cfg(feature = "parallel")]
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// A fixed-width pool of fan-out workers.
///
/// The pool is a width and nothing else — the helper threads behind
/// [`WorkerPool::run`] are process-wide, shared by every pool — so it is plain
/// data: cheap to embed in an engine, trivially `Send + Sync`, and
/// reconfigurable at any time.
#[derive(Clone, Copy, Debug)]
pub struct WorkerPool {
    workers: usize,
}

impl WorkerPool {
    /// A pool running `workers` tasks concurrently (clamped to at least 1).
    pub fn new(workers: usize) -> Self {
        WorkerPool {
            workers: workers.max(1),
        }
    }

    /// The default width: the `DCQ_WORKERS` environment variable when set to a
    /// positive integer (the CI lever for forcing multi-worker scheduling on
    /// single-core runners), else every hardware thread with the `parallel`
    /// feature on, else `1` (strictly inline execution).
    pub fn default_workers() -> usize {
        if let Ok(forced) = std::env::var("DCQ_WORKERS") {
            if let Ok(n) = forced.trim().parse::<usize>() {
                if n >= 1 {
                    return n;
                }
            }
        }
        if cfg!(feature = "parallel") {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            1
        }
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// How many helper threads this process has started so far, over all
    /// pools: at most the widest `min(workers, tasks)` any [`WorkerPool::run`]
    /// has seen, minus one for its caller; `0` without the `parallel` feature.
    /// Constant once the widest pool has run — the batch path starts none.
    pub fn helper_threads() -> usize {
        #[cfg(feature = "parallel")]
        {
            helpers::started()
        }
        #[cfg(not(feature = "parallel"))]
        {
            0
        }
    }

    /// Map `f` over `tasks`, returning the results **in input order**.
    ///
    /// `f` runs once per task (exactly-once, whatever the thread layout) and
    /// receives the task's input index, so callers can carry slot identity
    /// through the pool without threading it into the task type.
    pub fn run<T, R, F>(&self, tasks: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        #[cfg(feature = "parallel")]
        {
            let workers = self.workers.min(tasks.len());
            if workers > 1 {
                return run_shared(workers, tasks, &f);
            }
        }
        tasks
            .into_iter()
            .enumerate()
            .map(|(index, task)| f(index, task))
            .collect()
    }
}

/// Self-scheduling execution by the caller plus up to `workers - 1` helpers:
/// each participant claims the next unstarted task off an atomic cursor until
/// none remain.
#[cfg(feature = "parallel")]
fn run_shared<T, R, F>(workers: usize, tasks: Vec<T>, f: &F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let total = tasks.len();
    // Tasks move out through, and results move back through, per-slot mutexes:
    // each slot is touched by exactly one participant, so the locks never
    // contend — they only make the cross-thread handoff safe code.
    let task_slots: Vec<Mutex<Option<T>>> =
        tasks.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let result_slots: Vec<Mutex<Option<R>>> = (0..total).map(|_| Mutex::new(None)).collect();
    // `Relaxed` suffices: the cursor only hands out distinct indices.  The
    // data a claimed index leads to is published by the mutexes — the helper
    // table's lock for everything the job borrows, the slot locks for tasks
    // and results.
    let cursor = AtomicUsize::new(0);
    let panic: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
    // Never unwinds, as `run_with_helpers` requires: a task's panic is parked
    // in `panic`, the participant moves on to the next task.
    let work = || loop {
        let index = cursor.fetch_add(1, Ordering::Relaxed);
        if index >= total {
            break;
        }
        let ran = catch_unwind(AssertUnwindSafe(|| {
            let task = task_slots[index]
                .lock()
                .expect("task slot lock: nothing panics while holding it")
                .take()
                .expect("each task is claimed exactly once");
            let result = f(index, task);
            *result_slots[index]
                .lock()
                .expect("result slot lock: nothing panics while holding it") = Some(result);
        }));
        if let Err(payload) = ran {
            panic
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .get_or_insert(payload);
        }
    };
    helpers::run_with_helpers(workers - 1, &work);
    if let Some(payload) = panic.into_inner().unwrap_or_else(PoisonError::into_inner) {
        resume_unwind(payload);
    }
    result_slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot lock: nothing panics while holding it")
                .expect("every claimed task produced a result")
        })
        .collect()
}

/// The process-wide helper threads and the table of jobs they serve.
#[cfg(feature = "parallel")]
mod helpers {
    use super::{Condvar, Mutex, MutexGuard, PoisonError};

    /// One published job: `work` claims and runs tasks until none remain.
    struct Job {
        id: u64,
        /// Borrowed from the publishing caller's stack with its lifetime
        /// erased; see the `SAFETY` argument in [`run_with_helpers`].
        work: &'static (dyn Fn() + Sync),
        /// Helpers that may still join (zero once the caller retires the job).
        seats: usize,
        /// Helpers currently inside `work`.
        inside: usize,
    }

    struct Table {
        jobs: Vec<Job>,
        next_id: u64,
        /// Helper threads started so far; they never exit.
        started: usize,
        /// Helpers parked on `WAKE` right now.
        parked: usize,
    }

    static TABLE: Mutex<Table> = Mutex::new(Table {
        jobs: Vec::new(),
        next_id: 0,
        started: 0,
        parked: 0,
    });
    /// Helpers park here between jobs.
    static WAKE: Condvar = Condvar::new();
    /// Callers park here while helpers are still inside their retired job.
    static LEFT: Condvar = Condvar::new();

    /// Every update under the table lock is a counter step or a push/remove
    /// that leaves the table valid, so a poisoned lock (a panic in allocation,
    /// at worst) is recovered instead of spreading — `Retire::drop` runs on
    /// unwind and must not panic.
    fn lock_table() -> MutexGuard<'static, Table> {
        TABLE.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Helper threads started so far in this process.
    pub(super) fn started() -> usize {
        lock_table().started
    }

    /// Run `work` on the calling thread while up to `seats` helpers run it too;
    /// return once `work` has returned here **and** in every helper that
    /// joined.  `work` must return on its own once there is nothing left to
    /// claim, and must not unwind: a helper that unwound out of it would never
    /// leave the job, and the caller would wait for it forever.
    pub(super) fn run_with_helpers(seats: usize, work: &(dyn Fn() + Sync)) {
        // SAFETY: the transmute only erases the lifetime of a fat reference,
        // so that it can sit in the `'static` job table.  The erased reference
        // is dereferenced only by a helper between the two table-lock sections
        // that do `inside += 1` and `inside -= 1` on this job, and it is
        // reachable only through the table entry.  The entry is pushed below
        // as the last step that could unwind before its `Retire` guard exists,
        // and `Retire::drop` runs before this function returns — on unwind as
        // well — and, under the same lock, first closes the job (`seats = 0`,
        // so no helper can join any more), then waits until `inside == 0`,
        // then removes the entry.  So when this function returns, no copy of
        // the reference is in use or reachable, and `work` (and whatever it
        // borrows from the caller's stack) has been live throughout.  The lock
        // hand-offs also order every access a helper makes through `work`
        // before the caller's return.  `dyn Fn() + Sync` makes calling it from
        // several threads at once fine.
        let erased: &'static (dyn Fn() + Sync) =
            unsafe { std::mem::transmute::<&(dyn Fn() + Sync), &'static (dyn Fn() + Sync)>(work) };
        let retire = {
            let mut table = lock_table();
            // Start-up, not the batch path: only the first run at a width
            // wider than any before it gets here.  A helper that cannot be
            // started is done without — the caller completes the job alone.
            while table.started < seats {
                let spawned = std::thread::Builder::new()
                    .name(format!("dcq-helper-{}", table.started))
                    .spawn(serve);
                match spawned {
                    // Detached on purpose: helpers serve until the process
                    // exits, and `work` never unwinds into them.
                    Ok(_detached) => table.started += 1,
                    Err(_) => break,
                }
            }
            let id = table.next_id;
            table.next_id += 1;
            table.jobs.push(Job {
                id,
                work: erased,
                seats,
                inside: 0,
            });
            // Published.  Nothing from here to the guard can unwind.
            let parked = table.parked;
            drop(table);
            match parked.min(seats) {
                0 => {}
                1 => WAKE.notify_one(),
                _ => WAKE.notify_all(),
            }
            Retire { id }
        };
        work();
        drop(retire);
    }

    /// Closes a job and waits its helpers out; see `run_with_helpers`.
    struct Retire {
        id: u64,
    }

    impl Drop for Retire {
        fn drop(&mut self) {
            let mut table = lock_table();
            loop {
                // Looked up afresh after every wait: other callers push and
                // remove entries meanwhile.
                let slot = table
                    .jobs
                    .iter()
                    .position(|job| job.id == self.id)
                    .expect("a job stays in the table until its caller retires it");
                table.jobs[slot].seats = 0;
                if table.jobs[slot].inside == 0 {
                    table.jobs.swap_remove(slot);
                    return;
                }
                table = LEFT.wait(table).unwrap_or_else(PoisonError::into_inner);
            }
        }
    }

    /// A helper thread's whole life: take a seat on a published job, run it,
    /// leave; park when no job has a free seat.
    fn serve() {
        let mut table = lock_table();
        loop {
            let Some(job) = table.jobs.iter_mut().find(|job| job.seats > 0) else {
                table.parked += 1;
                table = WAKE.wait(table).unwrap_or_else(PoisonError::into_inner);
                table.parked -= 1;
                continue;
            };
            job.seats -= 1;
            job.inside += 1;
            let (id, work) = (job.id, job.work);
            drop(table);
            work();
            table = lock_table();
            let job = table
                .jobs
                .iter_mut()
                .find(|job| job.id == id)
                .expect("a job stays in the table while a helper is inside it");
            job.inside -= 1;
            if job.inside == 0 {
                LEFT.notify_all();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_preserve_input_order() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        for workers in [1, 2, 4, 9] {
            let pool = WorkerPool::new(workers);
            assert_eq!(pool.workers(), workers);
            let ran: Vec<AtomicUsize> = (0..23).map(|_| AtomicUsize::new(0)).collect();
            let tasks: Vec<u64> = (0..23).collect();
            let out = pool.run(tasks, |index, task| {
                assert_eq!(index as u64, task);
                ran[index].fetch_add(1, Ordering::Relaxed);
                task * 10
            });
            assert_eq!(out, (0..23).map(|t| t * 10).collect::<Vec<_>>());
            assert!(
                ran.iter().all(|n| n.load(Ordering::Relaxed) == 1),
                "every task runs exactly once at width {workers}"
            );
        }
    }

    #[test]
    fn zero_workers_clamp_to_one_and_empty_input_is_fine() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.workers(), 1);
        let out: Vec<u64> = pool.run(Vec::<u64>::new(), |_, t| t);
        assert!(out.is_empty());
        assert!(WorkerPool::default_workers() >= 1);
    }

    #[test]
    fn mutable_borrows_flow_through_tasks() {
        // The pool takes no `'static` bound: `run` returns only once every
        // participant has left the job, so tasks can carry `&mut` borrows,
        // which is what the sharded commit path relies on.
        let mut shards = [0u64; 4];
        let tasks: Vec<&mut u64> = shards.iter_mut().collect();
        let pool = WorkerPool::new(4);
        pool.run(tasks, |index, slot| *slot = index as u64 + 1);
        assert_eq!(shards, [1, 2, 3, 4]);
    }

    #[test]
    fn nested_runs_complete_at_every_width() {
        // View fan-out → partition fold: a task that itself calls `run` must
        // finish whether or not a helper is free to join the inner job.
        for workers in [1, 2, 4, 9] {
            let pool = WorkerPool::new(workers);
            let out = pool.run((0..6u64).collect(), |_, outer| {
                pool.run((0..5u64).collect(), |_, inner| outer * 100 + inner)
                    .into_iter()
                    .sum::<u64>()
            });
            let expected: Vec<u64> = (0..6).map(|outer| outer * 500 + 10).collect();
            assert_eq!(out, expected, "width {workers}");
        }
    }

    #[test]
    fn a_panicking_task_is_re_raised_in_the_caller_and_the_pool_survives() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        for workers in [1, 2, 4] {
            let pool = WorkerPool::new(workers);
            let caught = catch_unwind(AssertUnwindSafe(|| {
                pool.run((0..8u64).collect(), |index, task| {
                    if index == 3 {
                        panic!("task {task} failed");
                    }
                    task
                })
            }));
            let payload = caught.expect_err("the task's panic reaches the caller");
            assert_eq!(
                payload.downcast_ref::<String>().map(String::as_str),
                Some("task 3 failed"),
                "width {workers}"
            );
            let out = pool.run((0..8u64).collect(), |_, task| task + 1);
            assert_eq!(out, (1..9).collect::<Vec<u64>>(), "width {workers}");
        }
    }

    #[cfg(feature = "parallel")]
    #[test]
    fn helper_threads_are_reused_across_runs() {
        use std::collections::HashSet;
        use std::sync::Mutex;
        let pool = WorkerPool::new(4);
        let seen: Mutex<HashSet<std::thread::ThreadId>> = Mutex::new(HashSet::new());
        for _ in 0..1_000 {
            pool.run((0..8u64).collect(), |_, task| {
                seen.lock().unwrap().insert(std::thread::current().id());
                task
            });
        }
        // Thread ids are never reused, so a pool that started threads per run
        // would have shown thousands of them.  Helpers are process-wide: the
        // widest pool any test of this crate builds bounds how many exist.
        let widest = WorkerPool::default_workers().max(9);
        let helpers = WorkerPool::helper_threads();
        assert!((3..widest).contains(&helpers), "{helpers} helpers");
        assert!(seen.lock().unwrap().len() <= 1 + helpers);
    }

    #[cfg(feature = "parallel")]
    #[test]
    fn tasks_actually_fan_out_across_threads() {
        use std::sync::{Condvar, Mutex};
        use std::time::Duration;
        // Two tasks that each wait for the other to have started can both
        // succeed only if two threads are inside the job at once.  The wait is
        // bounded so that a pool that ran them one after the other fails the
        // assertion instead of hanging; the bound is generous because the
        // helper may first have to finish a job of a test running beside this
        // one.
        let started = Mutex::new([false; 2]);
        let changed = Condvar::new();
        let pool = WorkerPool::new(2);
        let out = pool.run(vec![0usize, 1], |_, me| {
            let mut flags = started.lock().unwrap();
            flags[me] = true;
            changed.notify_all();
            let (flags, _) = changed
                .wait_timeout_while(flags, Duration::from_secs(20), |flags| !flags[1 - me])
                .unwrap();
            (flags[1 - me], std::thread::current().id())
        });
        assert!(out[0].0 && out[1].0, "both tasks were in flight together");
        assert_ne!(out[0].1, out[1].1);
        assert!(
            out.iter().any(|(_, id)| *id == std::thread::current().id()),
            "the caller claims tasks alongside the helpers"
        );
    }
}
