//! Small helpers shared by the workloads: clocks, seeds, scratch
//! directories and the process's peak memory.

use noc_telemetry::profclock;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// Reads the wall clock (through the workspace's sanctioned boundary).
pub fn now() -> Instant {
    profclock::now()
}

/// Seconds elapsed since `start`, with full resolution.
pub fn secs_since(start: Instant) -> f64 {
    profclock::ns_since(start) as f64 / 1e9
}

/// Milliseconds elapsed since `start`, with full resolution.
pub fn ms_since(start: Instant) -> f64 {
    profclock::ns_since(start) as f64 / 1e6
}

/// Perturbs a base seed by the benchmark seed. Seed 0 leaves it unchanged,
/// so the default seed reproduces the repository's own inputs exactly;
/// any other seed moves every stream to an unrelated one.
pub fn mix_seed(base: u64, seed: u64) -> u64 {
    base ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Runs `op` back to back until `seconds` have passed and it ran at least
/// `min_reps` times; returns every result and the process's peak resident
/// set read right after the first run: the peak of a process that does
/// the work once, as a user's does, whatever number of runs fit in
/// `seconds`. Logs the peak after the last run too, so that growth over
/// repeated runs stays visible. Reads the host probe after every run,
/// outside the run's own timing.
pub fn repeat_for<T>(
    seconds: f64,
    min_reps: usize,
    mut op: impl FnMut() -> T,
) -> (Vec<T>, Option<f64>) {
    let start = now();
    let mut out = Vec::new();
    let mut rss = None;
    while out.len() < min_reps || secs_since(start) < seconds {
        out.push(op());
        if out.len() == 1 {
            rss = peak_rss_mb();
        }
        let probe = host_probe_ms();
        PROBE_MS
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(probe);
    }
    eprintln!(
        "peak RSS: {:.2} MB after the first run, {:.2} MB after all {}",
        rss.unwrap_or(f64::NAN),
        peak_rss_mb().unwrap_or(f64::NAN),
        out.len()
    );
    (out, rss)
}

/// Steps of the host probe's kernel: about 5 ms on a 2-vCPU x86-64 VM.
const PROBE_STEPS: u32 = 1_000_000;

/// Every host probe reading this process took, in order.
static PROBE_MS: Mutex<Vec<f64>> = Mutex::new(Vec::new());

/// Milliseconds of a fixed kernel that belongs to the benchmark, not to
/// the program: xorshift steps with dependent loads and stores into a
/// 64 KiB table, the branchy, cache-resident mix a simulator cycle loop
/// runs. No change to the program moves it; a slower reading means a
/// slower host.
fn host_probe_ms() -> f64 {
    let mut table = vec![0u32; 1 << 14];
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let t = now();
    for _ in 0..PROBE_STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let i = (x as usize) & (table.len() - 1);
        table[i] = table[i].wrapping_add(x as u32);
        if table[i] & 1 == 0 {
            x = x.wrapping_add(u64::from(table[i]));
        }
    }
    std::hint::black_box((&table, x));
    ms_since(t)
}

/// The host probe readings [`repeat_for`] took so far.
pub fn probe_readings() -> Vec<f64> {
    PROBE_MS
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clone()
}

/// A fresh, empty directory `name` under `root`.
///
/// # Errors
///
/// The directory cannot be cleared or created.
pub fn fresh_dir(root: &Path, name: &str) -> Result<PathBuf, String> {
    let dir = root.join(name);
    if dir.exists() {
        fs::remove_dir_all(&dir).map_err(|e| format!("clear {}: {e}", dir.display()))?;
    }
    fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// The process's peak resident set (`VmHWM`) in MiB, if the platform
/// reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// The smallest step the clock behind [`now`] reports.
#[cfg(test)]
pub fn timer_resolution_s() -> f64 {
    (0..1000)
        .map(|_| {
            let t = now();
            loop {
                let d = secs_since(t);
                if d > 0.0 {
                    break d;
                }
            }
        })
        .fold(f64::INFINITY, f64::min)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_zero_keeps_the_base_and_others_move_it() {
        assert_eq!(mix_seed(0xDA7E, 0), 0xDA7E);
        assert_ne!(mix_seed(0xDA7E, 1), 0xDA7E);
        assert_ne!(mix_seed(0xDA7E, 1), mix_seed(0xDA7E, 2));
    }

    #[test]
    fn repeat_for_honours_the_minimum() {
        let mut calls = 0;
        let (out, rss) = repeat_for(0.0, 3, || {
            calls += 1;
            calls
        });
        assert_eq!(out, vec![1, 2, 3]);
        assert!(rss.is_some_and(|mb| mb > 0.0));
    }
}
