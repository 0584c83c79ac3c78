//! Host CPU time, the clock every end-to-end timing reads.
//!
//! On a shared virtual machine the wall clock also counts the time the
//! process waited for a CPU: behind other runnable threads, or while
//! the host ran something else on this virtual CPU (steal time, which
//! the kernel leaves out of a task's CPU time under paravirtual time
//! accounting). Both come and go with the host's load, not with the
//! program. CPU time counts only the time the process ran.

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the CPU clock below is declared for 64-bit Linux");

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// Linux `CLOCK_PROCESS_CPUTIME_ID`: CPU time of every thread of the
/// process, the runner's workers included.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
/// Linux `CLOCK_THREAD_CPUTIME_ID`: CPU time of the calling thread.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// CPU seconds `clock` has counted so far.
fn cpu_s(clock: i32) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (its layout on
    // 64-bit Linux, the only target this module compiles for) for the
    // call's duration, and the call keeps no pointer to it.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU seconds since it was started, of the whole process or of the
/// thread that started it (read it on that thread).
#[derive(Debug, Clone, Copy)]
pub struct CpuTimer {
    clock: i32,
    start: f64,
}

impl CpuTimer {
    pub fn process() -> CpuTimer {
        CpuTimer {
            clock: CLOCK_PROCESS_CPUTIME_ID,
            start: cpu_s(CLOCK_PROCESS_CPUTIME_ID),
        }
    }

    pub fn thread() -> CpuTimer {
        CpuTimer {
            clock: CLOCK_THREAD_CPUTIME_ID,
            start: cpu_s(CLOCK_THREAD_CPUTIME_ID),
        }
    }

    pub fn elapsed(self) -> f64 {
        cpu_s(self.clock) - self.start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(secs: f64) {
        let t = CpuTimer::thread();
        let mut x = 0u64;
        while t.elapsed() < secs {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
        }
        std::hint::black_box(x);
    }

    #[test]
    fn cpu_time_advances_with_work_and_not_with_sleep() {
        let t = CpuTimer::thread();
        std::thread::sleep(std::time::Duration::from_millis(200));
        let slept = t.elapsed();
        assert!(slept < 0.05, "sleeping used {slept} CPU seconds");
        spin(0.05);
        assert!(t.elapsed() >= 0.05);
    }

    #[test]
    fn the_process_clock_counts_other_threads_and_the_thread_clock_does_not() {
        let process = CpuTimer::process();
        let thread = CpuTimer::thread();
        std::thread::spawn(|| spin(0.1)).join().unwrap();
        assert!(process.elapsed() >= 0.1);
        assert!(thread.elapsed() < 0.05);
    }
}
