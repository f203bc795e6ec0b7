//! Process memory figures from `/proc/self/status`.

fn status_kb(field: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

/// Peak resident set (VmHWM), kB; 0 where /proc is absent.
pub fn peak_rss_kb() -> u64 {
    status_kb("VmHWM:")
}

/// Current resident set (VmRSS), kB; 0 where /proc is absent.
pub fn rss_kb() -> u64 {
    status_kb("VmRSS:")
}

/// Serve every allocation of 128 KiB or more with its own mapping,
/// returned to the kernel when freed, for the whole process.
///
/// glibc otherwise raises this threshold each time a large mapped block
/// is freed, after which large blocks come from a heap that keeps freed
/// pages resident. A round would then set up in memory an earlier round
/// left behind, and the resident peak would depend on how small
/// allocations happened to pin the heap. With the threshold fixed,
/// every round builds its modules and tables in fresh memory, as a
/// process's first round does. Call before the first allocation.
pub fn fix_mmap_threshold() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        /// glibc's `M_MMAP_THRESHOLD` parameter number.
        const M_MMAP_THRESHOLD: i32 = -3;
        // SAFETY: mallopt takes two integers and only changes glibc
        // malloc's tuning; 128 KiB is within the parameter's range.
        unsafe {
            mallopt(M_MMAP_THRESHOLD, 128 * 1024);
        }
    }
}

/// The CPUs this process may run on, for pinning single-threaded
/// rounds in turn to each of them.
///
/// On a shared host the CPUs of one machine slow down independently of
/// each other (two runs of the same round on two CPUs at the same time
/// differ by 20 % and more, and which one is slower changes), while the
/// scheduler keeps a single busy thread on whichever CPU it started on.
/// Taking rounds on every CPU in turn makes a run's figure an average
/// over the machine instead of a draw of one CPU.
pub struct Cpus {
    #[cfg(target_os = "linux")]
    allowed: [u64; 16],
    #[cfg(target_os = "linux")]
    list: Vec<usize>,
}

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

impl Cpus {
    /// The calling thread's current CPU set.
    pub fn allowed() -> Cpus {
        #[cfg(target_os = "linux")]
        {
            let mut allowed = [0u64; 16];
            // SAFETY: the mask buffer is 128 bytes, the size passed, and
            // pid 0 names the calling thread.
            let ok = unsafe { sched_getaffinity(0, 128, allowed.as_mut_ptr()) } == 0;
            if !ok {
                allowed = [u64::MAX; 16];
            }
            let list = (0..1024)
                .filter(|&c| allowed[c / 64] >> (c % 64) & 1 == 1)
                .take(64)
                .collect();
            Cpus { allowed, list }
        }
        #[cfg(not(target_os = "linux"))]
        Cpus {}
    }

    /// Run the calling thread on the `i`-th allowed CPU (round robin).
    /// A failure leaves the thread where it was.
    pub fn pin(&self, i: usize) {
        #[cfg(target_os = "linux")]
        if let Some(&cpu) = self.list.get(i % self.list.len().max(1)) {
            let mut mask = [0u64; 16];
            mask[cpu / 64] = 1 << (cpu % 64);
            // SAFETY: as in `allowed`; the mask names one allowed CPU.
            unsafe { sched_setaffinity(0, 128, mask.as_ptr()) };
        }
        #[cfg(not(target_os = "linux"))]
        let _ = i;
    }

    /// Let the calling thread run on every allowed CPU again.
    pub fn unpin(&self) {
        #[cfg(target_os = "linux")]
        // SAFETY: as in `allowed`; the mask is the one read there.
        unsafe {
            sched_setaffinity(0, 128, self.allowed.as_ptr())
        };
    }
}
