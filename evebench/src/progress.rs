//! Progress-aligned host timing.
//!
//! A deterministic simulation makes the same heap allocations, in the
//! same order, every time it runs the same input. This crate's global
//! allocator counts the calling thread's allocations and, while a
//! [`record`] is running, reads the CPU-time clock at every `every`-th
//! one. That splits one opaque call — `Runner::run` or `ClusterSim::run`
//! — into short progress segments that line up across repetitions of
//! the call, and [`SegmentMins`] keeps each segment's fastest
//! repetition.
//!
//! Why: other guests on the host slow the simulator for seconds to
//! minutes at a time (it shares caches and cores below the hypervisor,
//! out of sight of any clock in the guest), but in bursts, with
//! stretches of a few hundred microseconds running at full speed even
//! in slow phases. Over a few dozen repetitions nearly every
//! 100-microsecond segment meets one such stretch, while a whole
//! repetition of a second almost never does. The sum of the segment
//! minima is therefore the call's own cost with the interference
//! taken out, where the fastest whole repetition still carries the
//! slow phase it ran in.

use crate::util::cpu_seconds;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::{Cell, RefCell};

/// Segment length [`every_for`] aims at, in CPU seconds: long next to
/// the clock read (well under a microsecond), short next to the
/// host's slow bursts.
pub const SEGMENT_S: f64 = 100e-6;

/// Most timestamps one recording keeps. Later ones are dropped, which
/// happens at the same allocation on every repetition, so the last
/// segment then absorbs the rest of the call on every repetition alike.
const CAP: usize = 1 << 16;

thread_local! {
    /// Allocations this thread made since its recording started.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Allocations left before the next timestamp; 0 when not stamping.
    static COUNTDOWN: Cell<u64> = const { Cell::new(0) };
    /// Allocations between timestamps; 0 when not stamping.
    static EVERY: Cell<u64> = const { Cell::new(0) };
    /// Timestamps of this thread's recording. [`record`] reserves
    /// [`CAP`] before it starts stamping, so [`tick`] never grows it.
    static STAMPS: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

/// Counts one allocation of the calling thread and, when due, stamps
/// the CPU-time clock. Allocates nothing itself.
fn tick() {
    let _ = ALLOCS.try_with(|a| a.set(a.get() + 1));
    let _ = COUNTDOWN.try_with(|c| match c.get() {
        0 => {}
        1 => {
            c.set(EVERY.with(Cell::get));
            let _ = STAMPS.try_with(|s| {
                if let Ok(mut s) = s.try_borrow_mut() {
                    if s.len() < s.capacity() {
                        s.push(cpu_seconds());
                    }
                }
            });
        }
        n => c.set(n - 1),
    });
}

/// The system allocator with [`tick`] on every allocation.
pub struct CountingAlloc;

// SAFETY: every method forwards to `System` unchanged; `tick` only
// updates thread-local state and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tick();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tick();
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tick();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// One recorded call.
#[derive(Debug, Clone, PartialEq)]
pub struct Recording {
    /// CPU seconds of each progress segment, in order; they sum to
    /// the whole call.
    pub segments: Vec<f64>,
    /// Allocations the call made on this thread.
    pub allocs: u64,
}

impl Recording {
    /// CPU seconds of the whole call.
    #[must_use]
    pub fn seconds(&self) -> f64 {
        self.segments.iter().sum()
    }
}

/// Runs `f` on this thread and records its CPU time, stamped at every
/// `every`-th allocation it makes (`every == 0`: one segment). The
/// recording only sees this thread, so `f` must not hand its work to
/// other threads.
pub fn record<T>(every: u64, f: impl FnOnce() -> T) -> (T, Recording) {
    STAMPS.with(|s| {
        let mut s = s.borrow_mut();
        s.clear();
        s.reserve_exact(CAP);
    });
    EVERY.with(|e| e.set(every));
    ALLOCS.with(|a| a.set(0));
    let start = cpu_seconds();
    COUNTDOWN.with(|c| c.set(every));
    let out = f();
    COUNTDOWN.with(|c| c.set(0));
    let end = cpu_seconds();
    let allocs = ALLOCS.with(Cell::get);
    let segments = STAMPS.with(|s| {
        let stamps = s.borrow();
        let mut segments = Vec::with_capacity(stamps.len() + 1);
        let mut prev = start;
        for &t in stamps.iter().chain([end].iter()) {
            segments.push(t - prev);
            prev = t;
        }
        segments
    });
    (out, Recording { segments, allocs })
}

/// The stamping interval that cuts a call which made `allocs`
/// allocations in `seconds` into segments of about [`SEGMENT_S`]; 0
/// (one segment) for a call that does not allocate.
#[must_use]
pub fn every_for(allocs: u64, seconds: f64) -> u64 {
    if allocs == 0 || seconds <= 0.0 {
        return 0;
    }
    let per_segment = allocs as f64 * SEGMENT_S / seconds;
    (per_segment.round() as u64).clamp(1, allocs)
}

/// The timing of one call repeated through a run. Its first
/// repetition is the warm-up and calibrates the stamping interval;
/// later ones are recorded in progress segments. Spreading the
/// repetitions over the run, rather than making them back to back,
/// lets them meet the host's full-speed stretches.
#[derive(Debug, Clone, Default)]
pub struct Repeated {
    first: Option<f64>,
    every: u64,
    mins: SegmentMins,
}

impl Repeated {
    /// Runs `f` as the next repetition.
    pub fn run<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let (out, r) = record(self.every, f);
        if self.first.is_none() {
            self.first = Some(r.seconds());
            self.every = every_for(r.allocs, r.seconds());
        } else {
            self.mins.add(&r);
        }
        out
    }

    /// CPU seconds of one call: the sum of the segment minima of the
    /// recorded repetitions, or the warm-up when there were none; 0
    /// before any.
    #[must_use]
    pub fn seconds(&self) -> f64 {
        if self.mins.reps() == 0 {
            self.first.unwrap_or(0.0)
        } else {
            self.mins.seconds()
        }
    }

    /// False when recorded repetitions were cut into different numbers
    /// of segments, so [`Repeated::seconds`] fell back to the fastest
    /// whole one.
    #[must_use]
    pub fn aligned(&self) -> bool {
        self.mins.reps() == 0 || self.mins.aligned()
    }
}

/// The fastest time of each progress segment over repetitions of one
/// call, all recorded with the same interval.
#[derive(Debug, Clone, Default)]
pub struct SegmentMins {
    best: Vec<f64>,
    fastest_whole: f64,
    reps: usize,
    aligned: bool,
}

impl SegmentMins {
    /// Folds in one repetition.
    pub fn add(&mut self, r: &Recording) {
        let whole = r.seconds();
        if self.reps == 0 {
            self.best.clone_from(&r.segments);
            self.fastest_whole = whole;
            self.aligned = true;
        } else {
            self.fastest_whole = self.fastest_whole.min(whole);
            if r.segments.len() == self.best.len() {
                for (b, &s) in self.best.iter_mut().zip(&r.segments) {
                    *b = b.min(s);
                }
            } else {
                self.aligned = false;
            }
        }
        self.reps += 1;
    }

    /// Repetitions folded in.
    #[must_use]
    pub fn reps(&self) -> usize {
        self.reps
    }

    /// Whether every repetition was cut into the same number of
    /// segments, as a deterministic call is.
    #[must_use]
    pub fn aligned(&self) -> bool {
        self.aligned
    }

    /// The sum of the segment minima, or the fastest whole repetition
    /// when the repetitions did not line up; 0 before any.
    #[must_use]
    pub fn seconds(&self) -> f64 {
        if self.aligned {
            self.best.iter().sum()
        } else {
            self.fastest_whole
        }
    }
}
