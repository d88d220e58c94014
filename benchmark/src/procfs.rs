//! What the battery reads from `/proc` (std only): CPU time of the
//! process and of the calling thread, the resident-set high-water mark,
//! and the machine shape printed beside every result.

use std::fs;

/// `USER_HZ`: the unit of `utime`/`stime` in `/proc/<pid>/stat`. Fixed at
/// 100 on every Linux ABI this benchmark runs on.
const CLOCK_TICKS_PER_S: f64 = 100.0;

/// On-CPU nanoseconds from a `schedstat` line (`<run_ns> <wait_ns>
/// <timeslices>`).
pub fn parse_schedstat(text: &str) -> Option<u64> {
    text.split_whitespace().next()?.parse().ok()
}

/// `utime + stime` in seconds from a `/proc/<pid>/stat` line. The command
/// name may itself contain spaces and parentheses, so fields are counted
/// from the last `)`.
pub fn parse_stat_cpu_s(text: &str) -> Option<f64> {
    let rest = &text[text.rfind(')')? + 1..];
    // After the command: state is field 3, utime field 14, stime field 15.
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / CLOCK_TICKS_PER_S)
}

/// `VmHWM` in MiB from `/proc/<pid>/status`.
pub fn parse_vm_hwm_mib(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// CPU seconds consumed so far by every thread of this process, exited
/// ones included. (`/proc/self/schedstat` would not do: it covers the
/// main thread only.)
pub fn process_cpu_s() -> f64 {
    fs::read_to_string("/proc/self/stat")
        .ok()
        .as_deref()
        .and_then(parse_stat_cpu_s)
        .unwrap_or(0.0)
}

/// CPU seconds consumed so far by the calling thread.
pub fn thread_cpu_s() -> f64 {
    fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .as_deref()
        .and_then(parse_schedstat)
        .map_or(0.0, |ns| ns as f64 / 1e9)
}

/// CPU seconds consumed so far by the threads of this process that are
/// still alive, at nanosecond resolution (exited threads drop out, so
/// this suits a persistent team only).
pub fn live_threads_cpu_s() -> f64 {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return 0.0;
    };
    tasks
        .flatten()
        .filter_map(|t| fs::read_to_string(t.path().join("schedstat")).ok())
        .filter_map(|text| parse_schedstat(&text))
        .sum::<u64>() as f64
        / 1e9
}

/// Resident-set high-water mark of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .as_deref()
        .and_then(parse_vm_hwm_mib)
        .unwrap_or(0.0)
}

/// Hardware threads this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The commit checked out at `repo`, read from `.git` without running
/// git; `None` outside a repository (the driver's checkout is not one).
pub fn git_sha(repo: &std::path::Path) -> Option<String> {
    let git = repo.join(".git");
    let head = fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(sha) = fs::read_to_string(git.join(reference)) {
        return Some(sha.trim().to_string());
    }
    let packed = fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|sha| sha.trim().to_string()))
}

/// First `model name` of `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|s| s.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedstat_takes_the_run_time_field() {
        assert_eq!(parse_schedstat("47196062 8909084 160\n"), Some(47_196_062));
        assert_eq!(parse_schedstat(""), None);
        assert_eq!(parse_schedstat("x 1 2"), None);
    }

    #[test]
    fn stat_cpu_survives_a_hostile_command_name() {
        let line = "12860 (a b) c) R 12853 12860 12853 0 -1 4194304 3942 303113 32 138 \
                    101 3 1507 85 20 0 1 0 127766 141631488 559";
        assert_eq!(parse_stat_cpu_s(line), Some(1.04));
        assert_eq!(parse_stat_cpu_s("1 (x) R 2 3"), None);
        assert_eq!(parse_stat_cpu_s("no parens"), None);
    }

    #[test]
    fn vm_hwm_converts_kib_to_mib() {
        let status = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t    3072 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_mib(status), Some(3.0));
        assert_eq!(parse_vm_hwm_mib("Name:\tx\n"), None);
    }

    #[test]
    fn live_readers_return_something_on_linux() {
        assert!(process_cpu_s() >= 0.0);
        assert!(live_threads_cpu_s() > 0.0);
        assert!(peak_rss_mib() > 0.0);
        assert!(nproc() >= 1);
    }
}
