//! Host-speed correction of call times.
//!
//! The reference host is a 2-vCPU VM on a shared machine, and its speed
//! is not steady. From one fraction of a second to the next, code on it
//! runs up to about 1.7 times slower than at its fastest (most likely
//! another tenant on the same physical core, not stolen time:
//! `/proc/stat` shows under 1 % steal). How much of the time it is slow changes from minute to
//! minute. Uncorrected, runs of the same code a few minutes apart differ
//! by 10–35 % in every timing, more than a regression bound can absorb.
//!
//! So a run measures the host's speed next to every call into the
//! system. It times a fixed kernel right before each call and right after
//! it: floating-point arithmetic on a 2 KiB array that stays in the L1
//! cache and shares no code or data with the system. Each call is timed
//! on two clocks, the wall clock and the thread's CPU clock. Only the CPU
//! time runs at the host's speed; the rest of the wall time is spent
//! waiting for the disk (fsync, reads), which a busy core does not slow.
//! A call whose CPU time was `c` while the kernel took `p` µs (the mean of
//! the samples before and after the call) is reported as
//! `c × REFERENCE_US / p + (wall − c)`: the time it would have taken with
//! the host at the kernel's reference speed. The kernel does not depend
//! on what the system does, so a change to the system moves `c` or the
//! wait alone.

use std::ops::{Add, AddAssign};
use std::time::{Duration, Instant};

/// The kernel's time at the reference host's full speed, in µs (its
/// lowest readings there; typical ones are 1.1–1.7 times this).
pub const REFERENCE_US: f64 = 11.5;

/// Kernel passes per sample; the sample is the fastest, so an interrupt
/// that lands in one pass does not read as a slow host.
const PASSES: usize = 3;

/// Rounds over the array per pass.
const ROUNDS: u32 = 250;

/// The fixed kernel and its data.
#[derive(Debug, Clone)]
pub struct SpeedProbe {
    data: Vec<f64>,
}

impl Default for SpeedProbe {
    fn default() -> Self {
        Self::new()
    }
}

impl SpeedProbe {
    #[must_use]
    pub fn new() -> Self {
        Self {
            data: (0..256).map(|i| f64::from(i) * 0.5).collect(),
        }
    }

    /// One pass of the kernel, in µs.
    fn pass(&self) -> f64 {
        let data = std::hint::black_box(&self.data);
        let t = Instant::now();
        let mut acc = [0.0f64; 4];
        for r in 0..ROUNDS {
            let shift = f64::from(r);
            for lanes in data.chunks_exact(4) {
                for (a, &x) in acc.iter_mut().zip(lanes) {
                    let d = x - shift;
                    *a += d * d;
                }
            }
        }
        std::hint::black_box(acc);
        t.elapsed().as_secs_f64() * 1e6
    }

    /// The kernel's time now, in µs.
    #[must_use]
    pub fn sample(&self) -> f64 {
        (0..PASSES)
            .map(|_| self.pass())
            .fold(f64::INFINITY, f64::min)
    }
}

/// CPU time this thread has used.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn thread_cpu() -> Duration {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) that outlives the call.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the thread CPU clock exists on every Linux");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Without a thread CPU clock every moment counts as CPU time, so every
/// call is corrected in full.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn thread_cpu() -> Duration {
    use std::sync::OnceLock;
    static START: OnceLock<Instant> = OnceLock::new();
    START.get_or_init(Instant::now).elapsed()
}

/// A moment on both clocks.
#[derive(Debug, Clone, Copy)]
pub struct Mark {
    pub wall: Instant,
    cpu: Duration,
}

impl Mark {
    #[must_use]
    pub fn now() -> Self {
        Self {
            wall: Instant::now(),
            cpu: thread_cpu(),
        }
    }

    /// The time from `self` to `later` on both clocks.
    #[must_use]
    pub fn to(self, later: Mark) -> Elapsed {
        Elapsed {
            wall: later.wall - self.wall,
            cpu: later.cpu.saturating_sub(self.cpu),
        }
    }
}

/// A stretch of time on both clocks.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Elapsed {
    pub wall: Duration,
    pub cpu: Duration,
}

impl Add for Elapsed {
    type Output = Elapsed;

    fn add(self, o: Elapsed) -> Elapsed {
        Elapsed {
            wall: self.wall + o.wall,
            cpu: self.cpu + o.cpu,
        }
    }
}

impl AddAssign for Elapsed {
    fn add_assign(&mut self, o: Elapsed) {
        *self = *self + o;
    }
}

/// `e` in ms with its CPU time scaled to the reference speed, for a call
/// made between kernel samples `before` and `after` (µs).
#[must_use]
pub fn corrected(e: Elapsed, before: f64, after: f64) -> f64 {
    let cpu = e.cpu.min(e.wall);
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    ms(cpu) * REFERENCE_US * 2.0 / (before + after) + ms(e.wall - cpu)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn elapsed(wall_ms: u64, cpu_ms: u64) -> Elapsed {
        Elapsed {
            wall: Duration::from_millis(wall_ms),
            cpu: Duration::from_millis(cpu_ms),
        }
    }

    #[test]
    fn cpu_time_is_scaled_by_the_host_slowdown_around_it() {
        let close = |a: f64, b: f64| (a - b).abs() < 1e-9;
        // Kernel at reference speed: the time is unchanged.
        assert!(close(
            corrected(elapsed(4, 4), REFERENCE_US, REFERENCE_US),
            4.0
        ));
        // Host 1.5 times slower throughout: the call counts 1/1.5.
        let slow = REFERENCE_US * 1.5;
        assert!(close(corrected(elapsed(6, 6), slow, slow), 4.0));
        // Slowed only by the end of the call: the mean of the two.
        assert!(close(corrected(elapsed(5, 5), REFERENCE_US, slow), 4.0));
        // Waiting for the disk is not scaled.
        assert!(close(corrected(elapsed(9, 6), slow, slow), 7.0));
        // CPU time read a hair past the wall time counts as all CPU.
        assert!(close(corrected(elapsed(6, 7), slow, slow), 4.0));
    }

    #[test]
    fn the_thread_cpu_clock_counts_work_not_sleep() {
        let a = Mark::now();
        std::thread::sleep(Duration::from_millis(30));
        let slept = a.to(Mark::now());
        assert!(slept.wall >= Duration::from_millis(30));
        assert!(slept.cpu < Duration::from_millis(15), "{slept:?}");
        let b = Mark::now();
        let p = SpeedProbe::new();
        while b.wall.elapsed() < Duration::from_millis(30) {
            std::hint::black_box(p.sample());
        }
        let busy = b.to(Mark::now());
        assert!(busy.cpu > Duration::ZERO && busy.cpu <= busy.wall + Duration::from_millis(1));
        assert_eq!(
            slept + busy,
            Elapsed {
                wall: slept.wall + busy.wall,
                cpu: slept.cpu + busy.cpu
            }
        );
    }

    #[test]
    fn the_kernel_takes_microseconds() {
        let p = SpeedProbe::new();
        let t = p.sample();
        assert!(t > 0.0 && t < 10_000.0, "{t}");
    }
}
