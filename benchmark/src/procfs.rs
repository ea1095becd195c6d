//! The three `/proc` readings the benchmark takes: host steal time, this
//! process's CPU time and its peak resident set. Each parser takes the file's
//! text so it can be tested without a `/proc`.

use std::fs;
use std::time::Instant;

/// Kernel clock ticks per second as `/proc` reports them (`USER_HZ`, 100 on
/// every Linux ABI).
const TICKS_PER_SECOND: f64 = 100.0;

/// Steal ticks summed over all CPUs: the eighth value of the `cpu` line of
/// `/proc/stat`.
pub fn parse_steal_ticks(stat: &str) -> Option<u64> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    line.split_whitespace().nth(8)?.parse().ok()
}

/// `utime + stime` of `/proc/self/stat`, in ticks. The command name (field 2)
/// may contain spaces and parentheses, so fields are counted from the last
/// `)`.
pub fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    // `rest` starts at field 3 (state); utime and stime are fields 14 and 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// `VmHWM` of `/proc/self/status`, in KiB.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Seconds all CPUs together spent stolen by the hypervisor since boot
/// (`0.0` where `/proc/stat` is missing).
pub fn steal_seconds() -> f64 {
    fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| parse_steal_ticks(&s))
        .map_or(0.0, |t| t as f64 / TICKS_PER_SECOND)
}

/// Steal over an interval, as a share of its wall time.
#[derive(Debug, Clone, Copy)]
pub struct StealWatch {
    start: Instant,
    steal_s: f64,
}

impl StealWatch {
    /// Starts watching now.
    pub fn start() -> Self {
        StealWatch {
            start: Instant::now(),
            steal_s: steal_seconds(),
        }
    }

    /// Seconds stolen from all CPUs together per second of wall time since
    /// the start (so up to the number of CPUs). The steal clock ticks in
    /// 10 ms, which is the resolution of the numerator.
    pub fn share(&self) -> f64 {
        let wall = self.start.elapsed().as_secs_f64();
        if wall > 0.0 {
            (steal_seconds() - self.steal_s) / wall
        } else {
            0.0
        }
    }
}

/// CPU seconds this process (all threads, exited ones included) has used.
pub fn process_cpu_seconds() -> f64 {
    fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_cpu_ticks(&s))
        .map_or(0.0, |t| t as f64 / TICKS_PER_SECOND)
}

/// Peak resident set of this process in MiB (`0.0` where unavailable).
pub fn peak_rss_mib() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_vm_hwm_kib(&s))
        .map_or(0.0, |kib| kib as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steal_is_the_eighth_value_of_the_aggregate_line() {
        let stat = "cpu  3674858 0 92930 2336302 5724 0 1370 14864 0 0\n\
                    cpu0 1756577 0 46691 1245499 4194 0 742 7433 0 0\n\
                    intr 1 2 3\n";
        assert_eq!(parse_steal_ticks(stat), Some(14864));
        assert_eq!(parse_steal_ticks("cpu0 1 2 3 4 5 6 7 8\n"), None);
        // An old kernel without the steal column.
        assert_eq!(parse_steal_ticks("cpu  1 2 3 4 5 6 7\n"), None);
    }

    #[test]
    fn cpu_ticks_survive_a_hostile_command_name() {
        let stat = "4242 (a b) c) R 1 4242 4242 0 -1 4194304 500 0 0 0 \
                    731 19 0 0 20 0 3 0 100 1000 200 18446744073709551615";
        assert_eq!(parse_cpu_ticks(stat), Some(750));
        assert_eq!(parse_cpu_ticks("no parenthesis"), None);
        assert_eq!(parse_cpu_ticks("1 (x) R 1 2"), None);
    }

    #[test]
    fn vm_hwm_is_read_in_kib() {
        let status = "Name:\tbench\nVmPeak:\t  900000 kB\nVmHWM:\t  123456 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(123456));
        assert_eq!(parse_vm_hwm_kib("Name:\tbench\n"), None);
    }

    #[test]
    fn live_readers_do_not_fail_on_this_host() {
        assert!(steal_seconds() >= 0.0);
        assert!(process_cpu_seconds() >= 0.0);
        assert!(peak_rss_mib() >= 0.0);
    }
}
