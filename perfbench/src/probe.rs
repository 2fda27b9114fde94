//! Resource probes that need no dependency beyond `std`: process CPU time,
//! peak resident memory, an allocation-counting global allocator, the
//! wall/CPU stopwatch the workloads time their rounds with, and the set-up
//! and round loops every workload shares.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

use crate::Args;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    // Resolved from the C library `std` already links.
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// CPU seconds (user + system) the whole process has used so far, over
/// every thread.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) that outlives the call, and the clock id is
    // a constant the kernel supports.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kib| kib / 1024.0)
        .unwrap_or(f64::NAN)
}

/// Wall and CPU time of one timed interval.
#[derive(Clone, Copy, Debug, Default)]
pub struct Span {
    pub wall_s: f64,
    pub cpu_s: f64,
}

impl Span {
    pub fn add(&mut self, other: Span) {
        self.wall_s += other.wall_s;
        self.cpu_s += other.cpu_s;
    }
}

/// Run `f`, returning its result with the wall and process-CPU time it
/// took.
pub fn measure<T>(f: impl FnOnce() -> T) -> (T, Span) {
    let cpu0 = process_cpu_s();
    let t0 = Instant::now();
    let out = f();
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = process_cpu_s() - cpu0;
    (out, Span { wall_s, cpu_s })
}

/// Run `f` `times` times (at least once) and keep the last result, with
/// the median wall time of the runs. Each earlier result is dropped before
/// the next run starts, outside the timing.
pub fn median_setup<T>(times: usize, mut f: impl FnMut() -> T) -> (T, f64) {
    let mut walls = Vec::new();
    let mut last = None;
    for _ in 0..times.max(1) {
        drop(last.take());
        let (out, span) = measure(&mut f);
        walls.push(span.wall_s);
        last = Some(out);
    }
    (
        last.expect("at least one set-up ran"),
        crate::report::median(&walls),
    )
}

/// The rounds of one run. Without `--trace`, an untimed warm-up round
/// runs first when `warmup` is set (it fills caches, the allocator's free
/// lists and the page tables, so the first timed round does not pay for
/// them), then timed rounds repeat until the next one would end past
/// `--seconds` of accumulated round wall time, warm-up included (always
/// at least one timed round); every round does the same work, so a run
/// attempts whole rounds only. The returned rounds start with the
/// warm-up; end-to-end metrics read `&rounds[usize::from(warmup)..]`.
/// With `--trace`, an untraced, a traced (the `scope-trace` tracer on)
/// and another untraced round run, and the second value is
/// `trace.overhead_pct`: the traced round's wall time over the mean of its
/// two untraced neighbours'. The tracer's leftover spans are dropped.
pub fn run_rounds<R>(
    args: &Args,
    warmup: bool,
    mut round: impl FnMut() -> (R, Span),
) -> (Vec<(R, Span)>, f64) {
    if args.trace {
        let before = round();
        scope_trace::set_enabled(true);
        let traced = round();
        scope_trace::set_enabled(false);
        drop(scope_trace::take_spans());
        let after = round();
        let untraced_s = (before.1.wall_s + after.1.wall_s) / 2.0;
        let overhead = 100.0 * (traced.1.wall_s / untraced_s - 1.0);
        return (vec![before, traced, after], overhead);
    }
    let mut out: Vec<(R, Span)> = Vec::new();
    let mut spent = 0.0;
    if warmup {
        let r = round();
        spent += r.1.wall_s;
        out.push(r);
    }
    loop {
        let (r, span) = round();
        spent += span.wall_s;
        out.push((r, span));
        if spent + span.wall_s > args.seconds {
            return (out, 0.0);
        }
    }
}

/// Seed mixing (SplitMix64 finalizer): derives independent streams from
/// the run's `--seed` and a per-use base constant.
pub fn mix(base: u64, seed: u64) -> u64 {
    let mut z = base ^ seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

// ---------------------------------------------------------------------
// Allocation counting
// ---------------------------------------------------------------------

/// Allocation-counting wrapper around the system allocator. Counting is
/// off unless a traced run switches it on, so untimed and end-to-end runs
/// pay one relaxed load per allocation.
struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters are statistics and publish no memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        }
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Bytes requested from the allocator while `f` ran (this process, all
/// threads; run it single-threaded to attribute the bytes to `f`).
pub fn allocated_bytes<T>(f: impl FnOnce() -> T) -> (T, u64) {
    COUNTING.store(true, Ordering::Relaxed);
    let before = ALLOC_BYTES.load(Ordering::Relaxed);
    let out = f();
    let bytes = ALLOC_BYTES.load(Ordering::Relaxed) - before;
    COUNTING.store(false, Ordering::Relaxed);
    (out, bytes)
}
