//! The work-stealing pool itself.

use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crossbeam_deque::{Injector, Stealer, Worker as Deque};
use parking_lot::{Condvar, Mutex};

use crate::latch::{CountLatch, PanicStore};

type Job = Box<dyn FnOnce() + Send>;

struct Shared {
    injector: Injector<Job>,
    stealers: Vec<Stealer<Job>>,
    sleep_lock: Mutex<()>,
    sleep_cond: Condvar,
    shutdown: AtomicBool,
}

impl Shared {
    /// Find a runnable job: local deque first, then the injector, then steal
    /// from siblings.
    fn find_job(&self, local: Option<&Deque<Job>>) -> Option<Job> {
        if let Some(local) = local {
            if let Some(job) = local.pop() {
                return Some(job);
            }
        }
        loop {
            let steal = self.injector.steal();
            if let crossbeam_deque::Steal::Success(job) = steal {
                return Some(job);
            }
            if steal.is_empty() {
                break;
            }
        }
        for stealer in &self.stealers {
            loop {
                let steal = stealer.steal();
                if let crossbeam_deque::Steal::Success(job) = steal {
                    return Some(job);
                }
                if steal.is_empty() {
                    break;
                }
            }
        }
        None
    }

    /// Push a job, preferring the calling worker's own deque when the caller
    /// belongs to this pool, and wake a sleeping worker either way.
    fn push(self: &Arc<Self>, job: Job) {
        let mut slot = Some(job);
        WORKER.with(|w| {
            if let Some(ctx) = w.borrow().as_ref() {
                if Arc::ptr_eq(&ctx.shared, self) {
                    ctx.local.push(slot.take().expect("job present before local push"));
                }
            }
        });
        if let Some(job) = slot {
            self.injector.push(job);
        }
        self.notify();
    }

    fn notify(&self) {
        let _guard = self.sleep_lock.lock();
        self.sleep_cond.notify_all();
    }
}

thread_local! {
    /// Set for the lifetime of a worker thread: the pool it belongs to and
    /// its local deque. Lets `push` go to the local deque and `wait_latch`
    /// help by stealing instead of blocking (preventing nested-scope
    /// deadlock).
    static WORKER: std::cell::RefCell<Option<WorkerCtx>> = const { std::cell::RefCell::new(None) };
}

struct WorkerCtx {
    shared: Arc<Shared>,
    local: Deque<Job>,
}

/// A fixed-size work-stealing thread pool (the paper's per-node TBB runtime).
///
/// Dropping the pool shuts down its workers; every `scope` waits for its own
/// tasks before returning, so no user work can be lost by the shutdown.
pub struct ThreadPool {
    shared: Arc<Shared>,
    handles: Vec<std::thread::JoinHandle<()>>,
    threads: usize,
}

impl ThreadPool {
    /// Spawn a pool with `threads` workers (at least one).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let deques: Vec<Deque<Job>> = (0..threads).map(|_| Deque::new_fifo()).collect();
        let stealers = deques.iter().map(Deque::stealer).collect();
        let shared = Arc::new(Shared {
            injector: Injector::new(),
            stealers,
            sleep_lock: Mutex::new(()),
            sleep_cond: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let handles = deques
            .into_iter()
            .enumerate()
            .map(|(i, local)| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("triolet-worker-{i}"))
                    .spawn(move || worker_main(shared, local))
                    .expect("failed to spawn pool worker")
            })
            .collect();
        ThreadPool { shared, handles, threads }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Execute jobs or block until `latch` clears.
    fn wait_latch(&self, latch: &CountLatch) {
        let is_local_worker = WORKER.with(|w| {
            w.borrow().as_ref().is_some_and(|ctx| Arc::ptr_eq(&ctx.shared, &self.shared))
        });
        if is_local_worker {
            // Help-first waiting: keep the CPU busy with other tasks until
            // this scope's tasks are all done.
            while !latch.is_clear() {
                let job = WORKER.with(|w| {
                    let ctx = w.borrow();
                    let ctx = ctx.as_ref().expect("worker ctx");
                    self.shared.find_job(Some(&ctx.local))
                });
                match job {
                    Some(job) => job(),
                    None => std::thread::yield_now(),
                }
            }
        } else {
            latch.wait_blocking();
        }
    }

    /// Structured fork-join region.
    ///
    /// The closure may spawn tasks on the scope; `scope` returns only after
    /// every spawned task (transitively) completes. The first panic raised by
    /// any task is re-thrown here.
    pub fn scope<'scope, R>(&self, op: impl FnOnce(&Scope<'scope>) -> R) -> R {
        let latch = CountLatch::new();
        let panics = PanicStore::new();
        let scope = Scope {
            pool: self as *const ThreadPool,
            latch: &latch as *const CountLatch,
            panics: &panics as *const PanicStore,
            _marker: PhantomData,
        };
        let result = catch_unwind(AssertUnwindSafe(|| op(&scope)));
        self.wait_latch(&latch);
        panics.propagate();
        match result {
            Ok(r) => r,
            Err(p) => resume_unwind(p),
        }
    }

    /// Run two closures, potentially in parallel, returning both results.
    pub fn join<RA, RB>(
        &self,
        a: impl FnOnce() -> RA + Send,
        b: impl FnOnce() -> RB + Send,
    ) -> (RA, RB)
    where
        RA: Send,
        RB: Send,
    {
        let mut ra = None;
        let mut rb = None;
        {
            let ra = &mut ra;
            let rb = &mut rb;
            self.scope(|s| {
                s.spawn(move |_| *rb = Some(b()));
                *ra = Some(a());
            });
        }
        (ra.expect("task a completed"), rb.expect("task b completed"))
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.notify();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_main(shared: Arc<Shared>, local: Deque<Job>) {
    // Install the worker context; the deque lives in the thread-local for the
    // rest of the thread's life.
    WORKER.with(|w| {
        *w.borrow_mut() = Some(WorkerCtx { shared: Arc::clone(&shared), local });
    });
    loop {
        let job = WORKER.with(|w| {
            let ctx = w.borrow();
            let ctx = ctx.as_ref().expect("worker ctx installed above");
            shared.find_job(Some(&ctx.local))
        });
        match job {
            Some(job) => job(),
            None => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                // Park with a timeout: a lost wakeup only costs one tick.
                let mut guard = shared.sleep_lock.lock();
                shared.sleep_cond.wait_for(&mut guard, Duration::from_millis(1));
            }
        }
    }
    WORKER.with(|w| *w.borrow_mut() = None);
}

/// Handle for spawning tasks inside a [`ThreadPool::scope`] region.
///
/// Internally holds raw pointers to scope-local state; this is sound because
/// `scope` waits for its latch (all tasks done) before the stack frame — and
/// thus the pointed-to latch/panic store — is torn down.
pub struct Scope<'scope> {
    pool: *const ThreadPool,
    latch: *const CountLatch,
    panics: *const PanicStore,
    _marker: PhantomData<fn(&'scope ()) -> &'scope ()>,
}

// SAFETY: all pointed-to state (pool, latch, panic store) is itself Sync and
// outlives every task by the scope protocol described above.
unsafe impl Sync for Scope<'_> {}
unsafe impl Send for Scope<'_> {}

impl<'scope> Scope<'scope> {
    /// Spawn a task that may borrow data outliving the scope.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce(&Scope<'scope>) + Send + 'scope,
    {
        let (pool, latch, panics) = (self.pool, self.latch, self.panics);
        // SAFETY: the latch is live for the whole scope; incrementing before
        // the push guarantees `scope` cannot return before this task runs.
        unsafe { (*latch).increment() };
        let scope_copy =
            Scope { pool, latch, panics, _marker: PhantomData::<fn(&'scope ()) -> &'scope ()> };
        let job: Box<dyn FnOnce() + Send + 'scope> = Box::new(move || {
            let result = catch_unwind(AssertUnwindSafe(|| f(&scope_copy)));
            // SAFETY: pointers live until the latch clears; decrement last.
            unsafe {
                if let Err(p) = result {
                    (*scope_copy.panics).capture(p);
                }
                (*scope_copy.latch).decrement();
            }
        });
        // SAFETY: the lifetime is erased, but the scope protocol (wait before
        // return) guarantees every borrow in the job outlives the job.
        let job: Job = unsafe {
            std::mem::transmute::<Box<dyn FnOnce() + Send + 'scope>, Box<dyn FnOnce() + Send>>(job)
        };
        // SAFETY: the pool outlives the scope that borrows it.
        let pool_ref = unsafe { &*pool };
        pool_ref.shared.push(job);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn scope_runs_all_tasks() {
        let pool = ThreadPool::new(4);
        let counter = AtomicU64::new(0);
        pool.scope(|s| {
            for _ in 0..100 {
                s.spawn(|_| {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn scope_tasks_can_borrow_stack_data() {
        let pool = ThreadPool::new(2);
        let data = vec![1u64, 2, 3, 4, 5];
        let total = AtomicU64::new(0);
        pool.scope(|s| {
            for &x in &data {
                let total = &total;
                s.spawn(move |_| {
                    total.fetch_add(x, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 15);
    }

    #[test]
    fn nested_spawns_complete_before_scope_returns() {
        let pool = ThreadPool::new(3);
        let counter = AtomicU64::new(0);
        pool.scope(|s| {
            for _ in 0..10 {
                s.spawn(|s| {
                    counter.fetch_add(1, Ordering::Relaxed);
                    for _ in 0..10 {
                        s.spawn(|_| {
                            counter.fetch_add(1, Ordering::Relaxed);
                        });
                    }
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 110);
    }

    #[test]
    fn nested_scopes_do_not_deadlock() {
        let pool = ThreadPool::new(2);
        let counter = AtomicU64::new(0);
        pool.scope(|s| {
            for _ in 0..4 {
                s.spawn(|_| {
                    // A task that itself opens a scope on the same pool: the
                    // waiting worker must help, not block.
                    let pool2 = WORKER
                        .with(|w| w.borrow().as_ref().map(|ctx| Arc::clone(&ctx.shared)).is_some());
                    assert!(pool2);
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn join_returns_both_results() {
        let pool = ThreadPool::new(2);
        let (a, b) = pool.join(|| "left", || 7u32);
        assert_eq!(a, "left");
        assert_eq!(b, 7);
    }

    #[test]
    fn join_nests() {
        let pool = ThreadPool::new(4);
        fn fib(pool: &ThreadPool, n: u64) -> u64 {
            if n < 2 {
                return n;
            }
            let (a, b) = pool.join(|| fib_seq(n - 1), || fib_seq(n - 2));
            a + b
        }
        fn fib_seq(n: u64) -> u64 {
            if n < 2 {
                n
            } else {
                fib_seq(n - 1) + fib_seq(n - 2)
            }
        }
        assert_eq!(fib(&pool, 20), 6765);
    }

    #[test]
    fn panic_in_task_propagates() {
        let pool = ThreadPool::new(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| {
                s.spawn(|_| panic!("boom"));
            });
        }));
        assert!(result.is_err());
        // Pool must still be usable afterwards.
        let (a, b) = pool.join(|| 1, || 2);
        assert_eq!((a, b), (1, 2));
    }

    #[test]
    fn single_thread_pool_works() {
        let pool = ThreadPool::new(1);
        let counter = AtomicU64::new(0);
        pool.scope(|s| {
            for _ in 0..50 {
                s.spawn(|_| {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 50);
    }

    #[test]
    fn zero_thread_request_clamps_to_one() {
        let pool = ThreadPool::new(0);
        assert_eq!(pool.threads(), 1);
        let (a, _) = pool.join(|| 5, || ());
        assert_eq!(a, 5);
    }

    #[test]
    fn many_scopes_sequentially() {
        let pool = ThreadPool::new(2);
        let mut total = 0u64;
        for i in 0..100u64 {
            let (a, b) = pool.join(move || i, move || i * 2);
            total += a + b;
        }
        assert_eq!(total, 3 * (0..100u64).sum::<u64>());
    }
}
