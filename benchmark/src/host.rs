//! What the numbers were measured on: the host fingerprint written into
//! every record, peak RSS, and the noise sentinel.

use std::path::PathBuf;
use std::time::Instant;

use serde::{Deserialize, Serialize};

/// Host and toolchain identity; enough to tell whether two records may be
/// compared at all.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fingerprint {
    /// `git rev-parse HEAD`, or `unknown` outside a git checkout.
    pub git_commit: String,
    /// `rustc -V`.
    pub rustc: String,
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// First `model name` of `/proc/cpuinfo`.
    pub cpu_model: String,
    /// `/proc/sys/kernel/osrelease`.
    pub kernel: String,
}

/// This crate's directory: where `cargo run` says it is, or where it was
/// when the binary was built.
pub fn manifest_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    // The repository is the directory above this crate; git must not look
    // for one further up (the driver's checkout is not a repository, and
    // whatever encloses it is not what was measured).
    let repo = manifest_dir().join("..");
    let out = std::process::Command::new(program)
        .args(args)
        .current_dir(&repo)
        .env("GIT_CEILING_DIRECTORIES", repo.join(".."))
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn proc_field(path: &str, key: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    Some(line.split_once(':')?.1.trim().to_string())
}

pub fn fingerprint() -> Fingerprint {
    let unknown = || "unknown".to_string();
    Fingerprint {
        git_commit: command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(unknown),
        rustc: command_line("rustc", &["-V"]).unwrap_or_else(unknown),
        nproc: nproc(),
        cpu_model: proc_field("/proc/cpuinfo", "model name").unwrap_or_else(unknown),
        kernel: std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| unknown()),
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// One-minute load average, or 0 where `/proc/loadavg` is absent.
pub fn loadavg() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}

fn status_mb(key: &str) -> f64 {
    proc_field("/proc/self/status", key)
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Peak resident set (`VmHWM`) of this process, MB; 0 where `/proc` is
/// absent. Per process, which is why every workload runs in its own.
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM")
}

/// Resident set (`VmRSS`) of this process now, MB.
pub fn rss_mb() -> f64 {
    status_mb("VmRSS")
}

#[cfg(target_env = "gnu")]
extern "C" {
    /// glibc: return the free pages of every arena to the kernel.
    fn malloc_trim(pad: usize) -> i32;
}

/// Restart `VmHWM` from what is resident once set-up is over, so that the
/// peak is the workload's and not its input generator's (the corpus set-up
/// runs eight traced simulations; the server under test runs none). Free
/// heap pages go back to the kernel first: pages the allocator kept from
/// set-up would otherwise be reused without the resident set growing, and
/// the workload's memory would stay invisible up to the set-up's peak.
/// Returns false where the kernel does not offer the reset (`VmHWM` then
/// still covers set-up).
pub fn restart_peak_rss() -> bool {
    #[cfg(target_env = "gnu")]
    // SAFETY: `malloc_trim` takes no pointers and may be called at any time.
    unsafe {
        malloc_trim(0);
    }
    // 5 = reset the peak resident set size (proc(5), clear_refs).
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Steps of one burst of the sentinel's dependent xorshift chain; three
/// bursts are about 200 ms on the reference box (2.1 GHz Xeon). Fixed work,
/// so the *time* is the reading.
const CALIB_BURST: u64 = 36_000_000;

/// The host-noise sentinel: a fixed pure-CPU spin, timed. Run before and
/// after a workload; a reading that moves by more than 10 % says the host,
/// not the code, changed speed while the workload ran. The reading is three
/// times the fastest of three bursts: interference only ever adds time, and
/// one preempted burst should not cry wolf.
pub fn calib_ms() -> f64 {
    let mut x = std::hint::black_box(0x5eed_u64);
    let mut fastest = f64::INFINITY;
    for _ in 0..3 {
        let t0 = Instant::now();
        for _ in 0..CALIB_BURST {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        fastest = fastest.min(t0.elapsed().as_secs_f64());
    }
    std::hint::black_box(x);
    3.0 * fastest * 1e3
}

/// Whether two sentinel readings differ by more than 10 % of the smaller.
pub fn calib_disagrees(before: f64, after: f64) -> bool {
    let lo = before.min(after);
    lo > 0.0 && (before - after).abs() / lo > 0.10
}
