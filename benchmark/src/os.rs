//! Process-level measurements and controls the standard library does not
//! expose: CPU time of the whole process (all threads, including ones
//! already joined), the peak resident set, and returning freed memory to
//! the kernel. Linux with glibc only.

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    fn malloc_trim(pad: usize) -> i32;
}

/// Return the allocator's free memory, in every arena, to the kernel.
pub fn release_free_memory() {
    // SAFETY: `malloc_trim` takes no pointers and only releases memory the
    // allocator already holds free.
    unsafe { malloc_trim(0) };
}

/// User + system CPU seconds consumed by this process so far, at
/// nanosecond resolution. The live runtime's spin/yield cost is invisible
/// in wall time; this is where it shows.
pub fn cpu_seconds() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `timespec` for the duration of the
    // call, and `clock_gettime` writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set size (`VmHWM`) of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

/// Hardware threads available to this process (reported with every
/// result that depends on threads).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
