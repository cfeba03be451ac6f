//! Host facts for the run manifest, peak memory, and the STREAM-triad
//! bandwidth probe.

use std::path::Path;
use std::time::Instant;

/// Worker threads the host offers.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn read(path: &str) -> Option<String> {
    std::fs::read_to_string(path).ok()
}

/// CPU model string from `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    read("/proc/cpuinfo")
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Last-level (L3) cache size in bytes, if sysfs reports one.
pub fn llc_bytes() -> Option<u64> {
    (0..8).find_map(|i| {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
        if read(&format!("{dir}/level"))?.trim() != "3" {
            return None;
        }
        let size = read(&format!("{dir}/size"))?;
        let size = size.trim();
        let (num, mult) = match size.as_bytes().last()? {
            b'K' => (&size[..size.len() - 1], 1 << 10),
            b'M' => (&size[..size.len() - 1], 1 << 20),
            _ => (size, 1),
        };
        num.parse::<u64>().ok().map(|n| n * mult)
    })
}

/// CPU frequency governor, when readable.
pub fn governor() -> String {
    read("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unreadable".into())
}

/// Peak resident set size (VmHWM) in MiB.
pub fn peak_rss_mib() -> f64 {
    read("/proc/self/status")
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU time the hypervisor has stolen from this host so far, in
/// seconds summed over CPUs (`/proc/stat`, 100 ticks per second).
pub fn steal_s() -> f64 {
    read("/proc/stat")
        .and_then(|s| {
            s.lines()
                .next()?
                .split_whitespace()
                .nth(8)?
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |ticks| ticks / 100.0)
}

/// CPU seconds this process has run, summed over its threads
/// (`CLOCK_PROCESS_CPUTIME_ID`). Time the hypervisor steals from the
/// host's CPUs is not counted, which is what keeps CPU-time figures
/// steady on a shared host where wall time is not.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn cpu_s() -> f64 {
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
    // SAFETY: `ts` is a live, writable timespec with the C layout of a
    // 64-bit Linux target, and clock_gettime writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("sitebench reads the process CPU clock through the 64-bit Linux ABI");

/// Pins glibc's mmap threshold at its documented 128 KiB default, which
/// also turns off its dynamic adjustment. Left dynamic, the threshold
/// rises after a large free, and whether a checkpoint's ~40 MiB of new
/// buffers come from retained, already faulted-in heap or from fresh
/// pages depends on allocation history: `site_worst_case` checkpoint
/// writes took ~60 or ~110 ms of CPU from run to run. Pinned, every
/// large buffer is mapped fresh, as in a new process, and freed memory
/// goes back to the system, so peak RSS holds no retained garbage.
#[cfg(target_env = "gnu")]
pub fn pin_allocator() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_MMAP_THRESHOLD: i32 = -3;
    // SAFETY: mallopt only sets a glibc allocator parameter; it is
    // called before the benchmark allocates anything large or spawns
    // threads.
    let ok = unsafe { mallopt(M_MMAP_THRESHOLD, 128 << 10) };
    assert_eq!(ok, 1, "mallopt(M_MMAP_THRESHOLD) failed");
}

/// Other C libraries have no dynamic threshold to pin.
#[cfg(not(target_env = "gnu"))]
pub fn pin_allocator() {}

/// The commit checked out in the working directory and whether the
/// tree is dirty, or `unknown` outside a git checkout. Git is consulted
/// only when `.git` sits in the working directory itself.
pub fn commit() -> (String, String) {
    let unknown = || ("unknown".to_string(), "unknown".to_string());
    if !Path::new(".git").exists() {
        return unknown();
    }
    let git = |args: &[&str]| {
        std::process::Command::new("git")
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    match (
        git(&["rev-parse", "HEAD"]),
        git(&["status", "--porcelain", "--untracked-files=no"]),
    ) {
        (Some(head), Some(status)) => (head, (!status.is_empty()).to_string()),
        _ => unknown(),
    }
}

/// The rustc that built this binary.
pub fn rustc() -> &'static str {
    env!("SITEBENCH_RUSTC")
}

/// Result of the STREAM-triad probe.
pub struct Triad {
    pub gbps: f64,
    pub array_mib: f64,
    pub llc_mib: f64,
}

impl Triad {
    /// Where the arrays live relative to the LLC.
    pub fn residency(&self) -> &'static str {
        if self.array_mib >= 4.0 * self.llc_mib {
            "DRAM"
        } else {
            "LLC"
        }
    }
}

/// STREAM triad `a = b + s·c` over three arrays of at least four times
/// the LLC each, split across `threads`. Reports the best of `reps`
/// passes, counting 24 bytes per element as STREAM does.
pub fn stream_triad(threads: usize, reps: usize) -> Triad {
    let llc = llc_bytes().unwrap_or(32 << 20);
    let n = (4 * llc / 8) as usize;
    let mut a = vec![0.0f64; n];
    let b = vec![1.0f64; n];
    let c = vec![2.0f64; n];
    let chunk = n.div_ceil(threads.max(1));
    let mut best = f64::INFINITY;
    for rep in 0..reps {
        let s = 3.0 + rep as f64;
        let start = Instant::now();
        std::thread::scope(|scope| {
            for ((a, b), c) in a
                .chunks_mut(chunk)
                .zip(b.chunks(chunk))
                .zip(c.chunks(chunk))
            {
                scope.spawn(move || {
                    for ((x, &y), &z) in a.iter_mut().zip(b).zip(c) {
                        *x = y + s * z;
                    }
                });
            }
        });
        best = best.min(start.elapsed().as_secs_f64());
        std::hint::black_box(&a);
    }
    assert_eq!(a[n - 1], 1.0 + (2.0 + reps as f64) * 2.0, "triad result");
    Triad {
        gbps: 24.0 * n as f64 / best / 1e9,
        array_mib: (n * 8) as f64 / (1 << 20) as f64,
        llc_mib: llc as f64 / (1 << 20) as f64,
    }
}
