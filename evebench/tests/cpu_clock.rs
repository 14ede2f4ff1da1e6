//! The host-time clock counts only the time the process runs. This is
//! the only test in its file, so no other test thread runs in the
//! process while it measures process CPU time.

use evebench::util::CpuTimer;
use std::time::{Duration, Instant};

#[test]
fn cpu_clock_counts_running_time_only() {
    let asleep = CpuTimer::start();
    std::thread::sleep(Duration::from_millis(200));
    let slept = asleep.seconds();
    assert!(slept < 0.1, "200 ms asleep cost {slept} CPU seconds");

    let busy = CpuTimer::start();
    let wall = Instant::now();
    let mut x = 1u64;
    while wall.elapsed() < Duration::from_millis(50) {
        x = std::hint::black_box(x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1));
    }
    assert!(busy.seconds() > 0.0, "a busy loop used no CPU time");
}
