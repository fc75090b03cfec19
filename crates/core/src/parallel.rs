//! Deterministic scoped worker pools for the simulation sweeps.
//!
//! The pipeline evaluates many independent simulations — layers within a
//! model, grid points within an `igo-sim sweep` — whose *results* must not
//! depend on execution order: reports are assembled in item order, never
//! in completion order.
//!
//! [`parallel_map_workers`] provides exactly that contract: results come
//! back in item order regardless of which worker finished first. Workers are plain
//! [`std::thread::scope`] threads (no external runtime), pulling items off
//! a shared atomic counter. Nested calls — a grid-point pool whose tasks
//! run a layer pool — run the inner map sequentially on the calling worker
//! instead of oversubscribing the machine.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

thread_local! {
    /// Set while the current thread is a pool worker: nested maps stay
    /// sequential instead of spawning threads-under-threads.
    static IN_POOL: Cell<bool> = const { Cell::new(false) };
}

/// True when called from inside a [`parallel_map_workers`] worker.
pub fn in_worker() -> bool {
    IN_POOL.with(Cell::get)
}

/// Environment variable overriding the default worker-pool size (used when
/// the caller passes `workers == 0`; see [`default_workers`]).
pub const THREADS_ENV: &str = "IGO_SIM_THREADS";

/// The most workers one pool starts. `igo-sim` rejects a `--jobs` or
/// `IGO_SIM_THREADS` value above it before any pool starts; a pool asked
/// for more through the library starts this many. It is a fixed ceiling,
/// not the hardware thread count: tests force more workers than the
/// machine has to drive the pool's cross-thread determinism.
pub const MAX_WORKERS: usize = 256;

/// The worker count the `IGO_SIM_THREADS` environment override asks for,
/// when it is set to a positive integer.
pub fn threads_override() -> Option<usize> {
    std::env::var(THREADS_ENV)
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
}

/// The worker count a `workers == 0` pool resolves to: the
/// `IGO_SIM_THREADS` environment override when set to a positive integer,
/// else one worker per hardware thread. Thread count never affects results
/// (the pool reduces in item order), only wall-clock time.
pub fn default_workers() -> usize {
    threads_override().unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Map `f` over `items` on up to `workers` workers, returning results in
/// item order. `init` runs once per worker (or once total on the
/// sequential path) and the state is threaded through every call that
/// worker makes. `workers` of `0` means [`default_workers`] (the
/// `IGO_SIM_THREADS` override or one per hardware thread); the map runs
/// inline when that is `1`, when there is at most one item, or when
/// already running inside a pool worker. At most [`MAX_WORKERS`] start.
/// Forcing more workers than hardware threads is how the tests drive the
/// pool's cross-thread determinism even on small machines.
pub fn parallel_map_workers<S, T, R>(
    items: &[T],
    workers: usize,
    init: impl Fn() -> S + Sync,
    f: impl Fn(&mut S, &T) -> R + Sync,
) -> Vec<R>
where
    T: Sync,
    R: Send,
{
    let workers = if workers == 0 {
        default_workers()
    } else {
        workers
    }
    .min(items.len())
    .min(MAX_WORKERS);
    if workers <= 1 || in_worker() {
        let mut state = init();
        return items.iter().map(|item| f(&mut state, item)).collect();
    }

    let next = AtomicUsize::new(0);
    let collected: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(items.len()));
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                IN_POOL.with(|flag| flag.set(true));
                let mut state = init();
                let mut local: Vec<(usize, R)> = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= items.len() {
                        break;
                    }
                    local.push((i, f(&mut state, &items[i])));
                }
                collected.lock().unwrap().append(&mut local);
            });
        }
    });
    let mut got = collected.into_inner().unwrap();
    debug_assert_eq!(got.len(), items.len());
    got.sort_unstable_by_key(|(i, _)| *i);
    got.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn results_are_in_item_order() {
        let items: Vec<u64> = (0..257).collect();
        // Force a real pool (even on a single-CPU machine) with skewed
        // per-item work so completion order differs from item order.
        let out = parallel_map_workers(
            &items,
            4,
            || (),
            |(), &x| {
                let spin = (x % 7) * 50;
                let mut acc = x;
                for i in 0..spin {
                    acc = std::hint::black_box(acc.wrapping_mul(31).wrapping_add(i));
                }
                let _ = acc;
                x * 2
            },
        );
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn nested_maps_run_sequentially() {
        let outer: Vec<u32> = (0..8).collect();
        let out = parallel_map_workers(
            &outer,
            4,
            || (),
            |(), &x| {
                assert!(in_worker(), "forced pool must run items on workers");
                let inner: Vec<u32> = (0..4).collect();
                parallel_map_workers(&inner, 4, || (), |(), &y| x * 10 + y)
            },
        );
        assert_eq!(out[3], vec![30, 31, 32, 33]);
        assert!(!in_worker(), "flag must not leak to the caller");
    }

    #[test]
    fn per_worker_state_sees_every_item_once() {
        let touched = AtomicU64::new(0);
        let items: Vec<u64> = (0..100).collect();
        let sums = parallel_map_workers(
            &items,
            4,
            || 0u64,
            |state, &x| {
                *state += 1;
                touched.fetch_add(x, Ordering::Relaxed);
                *state
            },
        );
        // Each worker's running count is positive and the global sum covers
        // every item exactly once.
        assert!(sums.iter().all(|&s| s > 0));
        assert_eq!(touched.load(Ordering::Relaxed), 99 * 100 / 2);
    }

    #[test]
    fn empty_and_single_item_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(parallel_map_workers(&empty, 4, || (), |(), &x: &u32| x).is_empty());
        assert_eq!(
            parallel_map_workers(&[41u32], 4, || (), |(), &x| x + 1),
            vec![42]
        );
    }

    #[test]
    fn results_identical_across_worker_counts() {
        // The determinism contract behind `--jobs` / `IGO_SIM_THREADS`:
        // any pool size yields the same result vector.
        let items: Vec<u64> = (0..137).collect();
        let run = |workers| {
            parallel_map_workers(
                &items,
                workers,
                || 0u64,
                |state, &x| {
                    *state = state.wrapping_mul(6364136223846793005).wrapping_add(x);
                    x * x + 7
                },
            )
        };
        let want = run(1);
        for workers in [2, 3, 5, 8, 16] {
            assert_eq!(run(workers), want, "worker count {workers} diverged");
        }
    }
}
