//! Process counters from `/proc/self` (Linux, std-only).

/// Clock ticks per second of `/proc/self/stat` times (`USER_HZ`, 100 on
/// every mainstream Linux target).
pub const TICKS_PER_S: f64 = 100.0;

/// Thread-group CPU time (utime + stime), in seconds. Includes threads
/// that have already exited, such as scoped workers. Resolution is one
/// tick (10 ms); 0 when `/proc` is unavailable.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name start at field 3
    // (state); utime and stime are fields 14 and 15.
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (tick(11) + tick(12)) as f64 / TICKS_PER_S
}

/// Peak resident set size (`VmHWM`), in MiB; 0 when unavailable.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// (steal, total) ticks of all CPUs from `/proc/stat`: time the
/// hypervisor ran other guests on this VM's CPUs. Diagnostic only; the
/// shared host's speed drift shows here.
pub fn host_steal() -> (f64, f64) {
    let Ok(stat) = std::fs::read_to_string("/proc/stat") else {
        return (0.0, 0.0);
    };
    let ticks: Vec<f64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    (
        ticks.get(7).copied().unwrap_or(0.0),
        ticks.iter().take(8).sum(),
    )
}
