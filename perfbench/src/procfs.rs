//! Process counters from `/proc/self`, read as before/after deltas
//! around a timed window.
//!
//! CPU time comes from `/proc/self/stat` (user + system, in the kernel's
//! fixed `USER_HZ` of 100 ticks per second), peak memory from `VmHWM`,
//! I/O syscalls from `/proc/self/io`, and context switches summed over
//! every thread's `/proc/self/task/<tid>/status`.

use std::fs;

/// `/proc` reports CPU time in `USER_HZ` ticks, 100 per second on Linux.
pub const USER_HZ: f64 = 100.0;

/// One reading of the process counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProcSample {
    /// User + system CPU ticks.
    pub cpu_ticks: u64,
    /// Peak resident set (`VmHWM`), KiB.
    pub vm_hwm_kb: u64,
    /// Threads in the process.
    pub threads: u64,
    pub syscr: u64,
    pub syscw: u64,
    /// Bytes passed to write-family syscalls.
    pub wchar: u64,
    /// Voluntary + involuntary context switches of the live threads.
    pub ctx_switches: u64,
}

impl ProcSample {
    /// Read every counter now.  A file the kernel does not provide reads
    /// as zeros.
    pub fn read() -> ProcSample {
        let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
        let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
        let io = fs::read_to_string("/proc/self/io").unwrap_or_default();
        let (syscr, syscw, wchar) = parse_io(&io);
        let mut ctx_switches = 0;
        if let Ok(tasks) = fs::read_dir("/proc/self/task") {
            for task in tasks.flatten() {
                if let Ok(text) = fs::read_to_string(task.path().join("status")) {
                    ctx_switches += context_switches(&text);
                }
            }
        }
        ProcSample {
            cpu_ticks: parse_stat_cpu(&stat).unwrap_or(0),
            vm_hwm_kb: status_value(&status, "VmHWM").unwrap_or(0),
            threads: status_value(&status, "Threads").unwrap_or(0),
            syscr,
            syscw,
            wchar,
            ctx_switches,
        }
    }

    /// CPU seconds between `self` (earlier) and `later`.
    pub fn cpu_s_until(&self, later: &ProcSample) -> f64 {
        later.cpu_ticks.saturating_sub(self.cpu_ticks) as f64 / USER_HZ
    }
}

/// `utime + stime` from `/proc/<pid>/stat`.  The command name in field 2
/// may hold spaces and parentheses, so fields are counted from the last
/// `)`.
pub fn parse_stat_cpu(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // After the name: state is field 3, utime field 14, stime field 15.
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some(utime + stime)
}

/// The number after `key:` in a `status`-style file.
pub fn status_value(text: &str, key: &str) -> Option<u64> {
    text.lines().find_map(|line| {
        let (k, v) = line.split_once(':')?;
        (k == key).then(|| v.split_whitespace().next()?.parse().ok())?
    })
}

/// Voluntary + involuntary context switches from one `status` file.
pub fn context_switches(status: &str) -> u64 {
    status_value(status, "voluntary_ctxt_switches").unwrap_or(0)
        + status_value(status, "nonvoluntary_ctxt_switches").unwrap_or(0)
}

/// `(syscr, syscw, wchar)` from `/proc/<pid>/io`.
pub fn parse_io(io: &str) -> (u64, u64, u64) {
    (
        status_value(io, "syscr").unwrap_or(0),
        status_value(io, "syscw").unwrap_or(0),
        status_value(io, "wchar").unwrap_or(0),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    const STAT: &str = "4242 (open meta) x) S 1 4242 4242 0 -1 4194560 1234 0 0 0 \
                        731 129 0 0 20 0 7 0 123456 98765432 2048 18446744073709551615";

    const STATUS: &str = "Name:\topenmeta-perfbench\nState:\tS (sleeping)\n\
                          VmPeak:\t  123456 kB\nVmHWM:\t   45678 kB\nVmRSS:\t   40000 kB\n\
                          Threads:\t7\nvoluntary_ctxt_switches:\t150\n\
                          nonvoluntary_ctxt_switches:\t12\n";

    const IO: &str = "rchar: 3980\nwchar: 1048576\nsyscr: 9\nsyscw: 2048\nread_bytes: 0\n\
                      write_bytes: 0\ncancelled_write_bytes: 0\n";

    #[test]
    fn parses_cpu_past_a_hostile_command_name() {
        assert_eq!(parse_stat_cpu(STAT), Some(731 + 129));
        assert_eq!(parse_stat_cpu("garbage"), None);
    }

    #[test]
    fn parses_status_and_io() {
        assert_eq!(status_value(STATUS, "VmHWM"), Some(45678));
        assert_eq!(status_value(STATUS, "VmPeak"), Some(123456));
        assert_eq!(status_value(STATUS, "Threads"), Some(7));
        assert_eq!(status_value(STATUS, "Missing"), None);
        assert_eq!(context_switches(STATUS), 162);
        assert_eq!(parse_io(IO), (9, 2048, 1_048_576));
        assert_eq!(parse_io(""), (0, 0, 0));
    }

    #[test]
    fn live_sample_is_plausible() {
        let a = ProcSample::read();
        assert!(a.vm_hwm_kb > 0 && a.threads >= 1);
        let b = ProcSample::read();
        assert!(b.cpu_ticks >= a.cpu_ticks);
    }
}
