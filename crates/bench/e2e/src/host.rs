//! Host diagnostics read from `/proc`: they tell host noise from a real
//! change (a slower iteration that burned no more CPU was descheduled,
//! not slowed).

use std::fs;

/// Kernel clock ticks per second as `/proc/self/stat` reports them;
/// `USER_HZ` is 100 on every Linux ABI this benchmark runs on.
const TICKS_PER_SEC: f64 = 100.0;

/// CPU seconds (user + system) this process has consumed so far,
/// including threads that already exited; `0.0` where `/proc` is
/// unavailable.
#[must_use]
pub fn cpu_seconds() -> f64 {
    fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|stat| parse_cpu_ticks(&stat))
        .map_or(0.0, |ticks| ticks as f64 / TICKS_PER_SEC)
}

/// `utime + stime` from one `/proc/<pid>/stat` line. The command name
/// (field 2) may contain spaces and parentheses, so fields are counted
/// from the *last* `)`: state is the first field after it, utime and
/// stime the 12th and 13th.
fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Peak resident set size (`VmHWM`) in MB; `0.0` where `/proc` is
/// unavailable.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| parse_vm_hwm_kb(&status))
        .map_or(0.0, |kb| kb as f64 / 1024.0)
}

fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_ascii_whitespace().nth(1)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_line_with_hostile_command_name_parses() {
        let stat = "42 (e2e) x (y) S 1 42 42 0 -1 4194304 100 0 0 0 \
                    250 50 0 0 20 0 3 0 12345 1000000 200 18446744073709551615";
        assert_eq!(parse_cpu_ticks(stat), Some(300));
        assert_eq!(parse_cpu_ticks("garbage"), None);
    }

    #[test]
    fn vm_hwm_parses_from_status() {
        let status = "Name:\te2e\nVmPeak:\t  9000 kB\nVmHWM:\t   2048 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(2048));
        assert_eq!(parse_vm_hwm_kb("Name:\te2e\n"), None);
    }

    #[test]
    fn live_readings_are_sane() {
        assert!(cpu_seconds() >= 0.0);
        assert!(peak_rss_mb() >= 0.0);
    }
}
