//! The benchmark's clock: CPU time used by this process.
//!
//! Every time the benchmark reports is read from the process CPU-time
//! clock (`CLOCK_PROCESS_CPUTIME_ID`), not from the wall clock. On a
//! shared host the wall clock also counts the time the process waits
//! for a core: behind other processes, or while the hypervisor runs
//! another guest on its virtual CPU. That wait comes and goes with the
//! host's load, not with the program, and it made wall-clock figures
//! of the same code differ by half between runs. The CPU clock advances
//! only while the process runs (Linux leaves hypervisor steal time out
//! of it when it accounts steal time, `CONFIG_PARAVIRT_TIME_ACCOUNTING`).
//! The program is serial, so its CPU time is its time on one core.
//!
//! A read costs a system call (~0.35 us on a 2-core Xeon guest),
//! several times a wall-clock read. The most frequent reader is the
//! `serve_256` source, once per served-day record (one record is due
//! every ~13 us).

use std::sync::OnceLock;
use std::time::Instant;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// Nanoseconds of CPU time this process has used.
pub fn now_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// A point on the CPU-time clock.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct CpuInstant(u64);

impl CpuInstant {
    pub fn now() -> Self {
        CpuInstant(now_ns())
    }

    /// CPU seconds used since `self`.
    pub fn elapsed_s(self) -> f64 {
        (now_ns() - self.0) as f64 * 1e-9
    }

    pub fn ns(self) -> u64 {
        self.0
    }
}

/// A run stops adding timed units once its wall time passes this
/// multiple of `--seconds`: on a host so loaded that CPU time accrues
/// slowly, a run still ends well inside its time limit, with fewer
/// samples.
const WALL_CAP_PER_SECOND: f64 = 2.5;

static STARTED: OnceLock<Instant> = OnceLock::new();

/// Starts the wall clock that [`wall_s`] and [`wall_exhausted`] read.
pub fn start() {
    STARTED.get_or_init(Instant::now);
}

/// Wall seconds since [`start`].
pub fn wall_s() -> f64 {
    STARTED.get_or_init(Instant::now).elapsed().as_secs_f64()
}

/// True once a run of `seconds` has used its wall-clock cap.
pub fn wall_exhausted(seconds: f64) -> bool {
    wall_s() > WALL_CAP_PER_SECOND * seconds
}
