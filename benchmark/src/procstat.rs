//! Process accounting read from `/proc/self`: CPU time and peak resident
//! set. Linux only, like the rest of the benchmark's work-file handling.

/// Kernel clock ticks per second behind `utime`/`stime`. `USER_HZ` is 100 on
/// every Linux ABI the toolchain targets; reading it properly needs libc's
/// `sysconf`, which the package deliberately does not depend on.
const TICKS_PER_SECOND: f64 = 100.0;

/// `utime + stime` in seconds from the text of `/proc/<pid>/stat`. The
/// command name (field 2) may itself hold spaces and parentheses, so fields
/// are counted from the *last* `)`.
pub fn parse_cpu_seconds(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // After the command name: state is field 3, utime field 14, stime 15.
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / TICKS_PER_SECOND)
}

/// CPU seconds (user + system, all threads, dead ones included) this
/// process has used so far.
pub fn cpu_seconds() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_cpu_seconds(&s))
        .expect("/proc/self/stat is readable and well-formed on Linux")
}

/// `VmHWM` in MB from the text of `/proc/<pid>/status`.
pub fn parse_peak_rss_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_ascii_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Peak resident set of this process so far, in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_peak_rss_mb(&s))
        .expect("/proc/self/status carries VmHWM on Linux")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_fields_are_counted_from_the_last_parenthesis() {
        let plain = "4242 (campaign-bench) R 1 4242 4242 0 -1 4194304 900 0 0 0 \
                     1234 56 0 0 20 0 3 0 100 1000000 250 18446744073709551615";
        assert_eq!(parse_cpu_seconds(plain), Some(12.90));
        // A command name with spaces and a closing parenthesis inside.
        let nasty = "7 (a) b (c) S 1 7 7 0 -1 0 0 0 0 0 250 50 9 9 20 0 1 0 5 0 0";
        assert_eq!(parse_cpu_seconds(nasty), Some(3.0));
        assert_eq!(parse_cpu_seconds("garbage"), None);
        assert_eq!(parse_cpu_seconds("1 (x) R 1 2"), None);
    }

    #[test]
    fn peak_rss_is_vmhwm_in_megabytes() {
        let status = "Name:\tx\nVmPeak:\t  999999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_peak_rss_mb(status), Some(20.0));
        assert_eq!(parse_peak_rss_mb("Name:\tx\n"), None);
    }

    #[test]
    fn live_readings_are_sane() {
        assert!(cpu_seconds() >= 0.0);
        assert!(peak_rss_mb() > 0.1);
    }
}
