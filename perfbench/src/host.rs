//! Facts about the host the run is on: memory high-water mark, last-level
//! cache size, core count, commit, and a STREAM-style copy bandwidth
//! ceiling measured in the same process.

use std::collections::BTreeSet;
use std::fs;
use std::hint::black_box;
use std::process::Command;
use std::time::Instant;

/// Peak resident set size of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    status_kib("VmHWM:").map_or(0.0, |kib| kib as f64 * 1024.0 / 1e6)
}

fn status_kib(key: &str) -> Option<u64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

/// Total bytes of the last-level caches (one per distinct sharing set of
/// CPUs), read from sysfs; `None` where sysfs does not say.
pub fn llc_bytes() -> Option<u64> {
    let mut best_level = 0u32;
    let mut caches: BTreeSet<(String, u64)> = BTreeSet::new();
    for cpu in fs::read_dir("/sys/devices/system/cpu").ok()?.flatten() {
        let name = cpu.file_name().to_string_lossy().into_owned();
        if !name.starts_with("cpu") || !name[3..].chars().all(|c| c.is_ascii_digit()) {
            continue;
        }
        let Ok(indices) = fs::read_dir(cpu.path().join("cache")) else {
            continue;
        };
        for index in indices.flatten() {
            let read = |f: &str| fs::read_to_string(index.path().join(f)).ok();
            let (Some(level), Some(size)) = (read("level"), read("size")) else {
                continue;
            };
            let Ok(level) = level.trim().parse::<u32>() else {
                continue;
            };
            let Some(bytes) = parse_size(size.trim()) else {
                continue;
            };
            let shared = read("shared_cpu_list").unwrap_or_else(|| name.clone());
            if level > best_level {
                best_level = level;
                caches.clear();
            }
            if level == best_level {
                caches.insert((shared.trim().to_string(), bytes));
            }
        }
    }
    let total: u64 = caches.iter().map(|(_, b)| b).sum();
    (total > 0).then_some(total)
}

fn parse_size(s: &str) -> Option<u64> {
    let (digits, mult) = match s.chars().last()? {
        'K' => (&s[..s.len() - 1], 1024),
        'M' => (&s[..s.len() - 1], 1024 * 1024),
        'G' => (&s[..s.len() - 1], 1024 * 1024 * 1024),
        _ => (s, 1),
    };
    digits.parse::<u64>().ok().map(|v| v * mult)
}

/// Wall-clock and process CPU time at one instant.
#[derive(Clone, Copy)]
pub struct Stamp {
    wall: Instant,
    cpu: f64,
}

/// Seconds between two [`Stamp`]s: wall clock, and CPU time summed over
/// every thread of the process.
#[derive(Clone, Copy, Default)]
pub struct Secs {
    pub wall: f64,
    pub cpu: f64,
}

impl Stamp {
    pub fn now() -> Self {
        Self {
            wall: Instant::now(),
            cpu: process_cpu_s(),
        }
    }

    pub fn elapsed(&self) -> Secs {
        let cpu = process_cpu_s();
        Secs {
            wall: self.wall.elapsed().as_secs_f64(),
            cpu: cpu - self.cpu,
        }
    }
}

/// User + system CPU seconds of every thread of this process so far,
/// exited threads included (`CLOCK_PROCESS_CPUTIME_ID`). On a virtual
/// machine this leaves out the time the hypervisor gave the vCPU to
/// another guest, which wall-clock time counts.
pub fn process_cpu_s() -> f64 {
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
    // SAFETY: `ts` is a live, writable timespec for the whole call, and
    // the clock id is a valid Linux clock.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Steal and total jiffies of all CPUs so far, from `/proc/stat`.
pub fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal [guest guest_nice],
    // where guest time is already counted in user time.
    let steal = *fields.get(7)?;
    let total = fields.iter().take(8).sum();
    Some((steal, total))
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The checked-out commit, when the working directory is a git checkout.
/// Only `./.git` is consulted, never a repository further up the tree.
pub fn commit() -> String {
    Command::new("git")
        .args(["--git-dir=.git", "rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

pub fn rustc() -> &'static str {
    env!("PERFBENCH_RUSTC")
}

/// Result of the copy-bandwidth probe.
pub struct CopyCeiling {
    /// Bytes of each of the two arrays.
    pub array_bytes: u64,
    /// Best-of-`reps` bandwidth, counting the read and the write
    /// (STREAM's convention: 2 × array bytes per copy).
    pub gbps: f64,
    /// Whether the destination held the source after the last copy.
    pub verified: bool,
}

/// STREAM-style copy between two arrays of `array_bytes` each (at least
/// four times the last-level cache, so the copy streams from DRAM).
pub fn copy_ceiling(array_bytes: u64, reps: usize) -> CopyCeiling {
    let words = (array_bytes / 8) as usize;
    let src: Vec<u64> = (0..words as u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .collect();
    let mut dst = vec![1u64; words];
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        dst.copy_from_slice(black_box(&src));
        black_box(&mut dst);
        best = best.min(t.elapsed().as_secs_f64());
    }
    let verified = (0..words)
        .step_by(4093)
        .chain([words - 1])
        .all(|i| dst[i] == src[i]);
    CopyCeiling {
        array_bytes: words as u64 * 8,
        gbps: 2.0 * (words * 8) as f64 / best / 1e9,
        verified,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sysfs_sizes_parse() {
        assert_eq!(parse_size("107520K"), Some(107_520 * 1024));
        assert_eq!(parse_size("32M"), Some(32 << 20));
        assert_eq!(parse_size("512"), Some(512));
        assert_eq!(parse_size("x"), None);
    }

    #[test]
    fn cpu_clock_advances() {
        let t = Stamp::now();
        let mut x = 0u64;
        while t.elapsed().cpu < 0.01 {
            x = black_box(x.wrapping_add(1));
        }
        assert!(t.elapsed().wall >= 0.005 && x > 0);
    }

    #[test]
    fn small_copy_verifies() {
        let c = copy_ceiling(1 << 16, 2);
        assert!(c.verified && c.gbps > 0.0);
    }
}
