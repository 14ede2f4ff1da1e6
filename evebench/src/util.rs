//! Measurement helpers shared by both stacks: a CPU-time clock, order
//! statistics, a stable output digest, process memory, and the metric
//! table.

use std::time::Instant;

/// Median of `xs` (mean of the middle pair for even lengths); 0 when
/// empty.
#[must_use]
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The `p`-quantile of `sorted` by the rounded-rank rule the cluster
/// report uses for its sojourn percentiles; 0 when empty.
#[must_use]
pub fn rank_quantile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[((sorted.len() - 1) as f64 * p).round() as usize]
}

/// `num / den`, or 0 when the denominator is 0 (an idle layer).
#[must_use]
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Seconds of CPU time this process has used, user and system.
///
/// Host time is measured on this clock rather than the wall clock: it
/// leaves out the time the process was not running — while another
/// process had its CPU, or while the hypervisor ran another guest,
/// which a paravirtualised Linux guest accounts as steal — so it
/// follows the program's own cost on a shared host. The benchmark is
/// single-threaded, so this is the time of the simulation itself.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
#[must_use]
pub fn cpu_seconds() -> f64 {
    /// `struct timespec` on 64-bit Linux.
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec`, and the
    // process CPU-time clock always exists on Linux.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Wall-clock stand-in for [`cpu_seconds`] where the process CPU-time
/// clock is not reachable without a dependency.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
#[must_use]
pub fn cpu_seconds() -> f64 {
    static EPOCH: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_secs_f64()
}

/// A stopwatch on [`cpu_seconds`].
#[derive(Debug, Clone, Copy)]
pub struct CpuTimer(f64);

impl CpuTimer {
    /// Starts timing now.
    #[must_use]
    pub fn start() -> Self {
        Self(cpu_seconds())
    }

    /// CPU seconds since [`CpuTimer::start`].
    #[must_use]
    pub fn seconds(self) -> f64 {
        cpu_seconds() - self.0
    }
}

/// Nanoseconds elapsed since `t`.
#[must_use]
pub fn ns_since(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// 64-bit FNV-1a: a dependency-free digest that is stable across
/// builds and platforms, so two commits' output digests compare.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds `bytes` into the digest.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// The digest so far.
    #[must_use]
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Digest of one byte string.
#[must_use]
pub fn digest(bytes: &[u8]) -> u64 {
    let mut h = Fnv::default();
    h.write(bytes);
    h.finish()
}

/// A `Vm*` field of `/proc/self/status` in MiB (0 where unavailable).
fn vm_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The process's resident-memory high-water mark in MiB.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    vm_mb("VmHWM:")
}

/// Resets the resident-memory high-water mark to the current resident
/// size (Linux `clear_refs` code 5), so a later [`peak_rss_mb`] reads
/// the peak of what ran since. Returns whether the kernel allowed it.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// The process's current resident memory in MiB.
#[must_use]
pub fn rss_mb() -> f64 {
    vm_mb("VmRSS:")
}

/// The end-to-end metrics every untraced run reports, with units.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("host_s", "s"),
    ("ns_per_inst", "ns"),
    ("ns_per_req", "ns"),
    ("peak_rss_mb", "MB"),
    ("availability", "ratio"),
    ("goodput", "ratio"),
    ("p50_sojourn_kcycles", "kcycles"),
    ("p99_sojourn_kcycles", "kcycles"),
];

/// The per-layer metrics every traced run reports, with units. A
/// layer that is not on a workload's path reads 0.
pub const PER_LAYER: [(&str, &str); 29] = [
    ("workloads.build_s", "s"),
    ("profile.measure_s", "s"),
    ("shape.new_s", "s"),
    ("isa.interp_ns_per_inst", "ns"),
    ("isa.characterize_ns_per_inst", "ns"),
    ("cpu.io_self_ns_per_inst", "ns"),
    ("cpu.o3_self_ns_per_inst", "ns"),
    ("mem.ns_per_access", "ns"),
    ("mem.accesses_per_inst", "ratio"),
    ("mem.l1d_miss_ratio", "ratio"),
    ("mem.l2_miss_ratio", "ratio"),
    ("mem.llc_miss_ratio", "ratio"),
    ("core.eve_ns_per_sim_cycle", "ns"),
    ("core.eve_ns_per_vinst", "ns"),
    ("vector.dv_ns_per_vinst", "ns"),
    ("core.uprog_cache_hit_ratio", "ratio"),
    ("net.heartbeats_per_req", "ratio"),
    ("net.msgs_per_req", "ratio"),
    ("net.retransmits_per_req", "ratio"),
    ("net.hedge_win_ratio", "ratio"),
    ("net.wasted_exec_ratio", "ratio"),
    ("net.suspicions", "count"),
    ("degrade.step_downs", "count"),
    ("cluster.run_s", "s"),
    ("batch.mean_size", "count"),
    ("queue.shed_share", "ratio"),
    ("cluster.rss_growth_mb", "MB"),
    ("profile.peak_rss_mb", "MB"),
    ("trace.overhead_ratio", "ratio"),
];
