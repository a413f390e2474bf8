//! Host counters read from `/proc`: CPU time of this process and the
//! children it has reaped, and its peak resident set.

/// Kernel clock ticks per second (`USER_HZ`), 100 on every Linux ABI.
const TICKS_PER_S: f64 = 100.0;

/// CPU seconds so far, `(user, system)`, including reaped children
/// (distributed workers are reaped at the end of each verdict).
pub fn cpu_s() -> (f64, f64) {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name may hold spaces; fields are counted after it.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let f: Vec<f64> = after
        .split_whitespace()
        .map(|t| t.parse().unwrap_or(0.0))
        .collect();
    // After the name come state (field 3) …; utime, stime, cutime and
    // cstime are fields 14 to 17.
    let at = |field: usize| f.get(field - 3).copied().unwrap_or(0.0) / TICKS_PER_S;
    (at(14) + at(16), at(15) + at(17))
}

/// Peak resident set of this process, kB (`VmHWM`).
pub fn peak_rss_kb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}
