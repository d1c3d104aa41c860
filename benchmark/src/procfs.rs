//! What the harness reads from the kernel: its CPU affinity, and the CPU
//! time, run-queue wait, memory high-water mark and write volume of the
//! processes it measures. The text parsers are separate from the file reads
//! so they can be tested on captured fixtures.

use std::fs;
use std::path::Path;

const MASK_WORDS: usize = 16;

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals and fourteen longs.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    rest: [i64; 14],
}

const RUSAGE_CHILDREN: i32 = -1;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

pub struct Affinity {
    /// CPUs the harness could run on before pinning.
    pub visible_cpus: usize,
    /// The one CPU everything now runs on, when pinning succeeded.
    pub cpu: Option<usize>,
}

/// Pin this process to the highest-numbered CPU of its current mask. Every
/// thread and process started afterwards inherits the mask, so the daemon,
/// the tools and the generator share one CPU and never run concurrently.
pub fn pin_to_highest_cpu() -> Affinity {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a live, writable buffer of exactly the size passed;
    // pid 0 is the calling thread.
    let got = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if got != 0 {
        return Affinity {
            visible_cpus: 0,
            cpu: None,
        };
    }
    let visible_cpus = mask.iter().map(|w| w.count_ones() as usize).sum();
    let Some(cpu) = (0..MASK_WORDS * 64)
        .rev()
        .find(|&c| mask[c / 64] & (1 << (c % 64)) != 0)
    else {
        return Affinity {
            visible_cpus,
            cpu: None,
        };
    };
    let mut one = [0u64; MASK_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a live buffer of exactly the size passed.
    let set = unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) };
    Affinity {
        visible_cpus,
        cpu: (set == 0).then_some(cpu),
    }
}

/// The `Cpus_allowed_list` of a process, as the kernel prints it.
pub fn cpus_allowed(pid: u32) -> Option<String> {
    let status = fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status_field(&status, "Cpus_allowed_list").map(str::to_string)
}

/// CPU time (user + system, ns) of every child this process has reaped.
pub fn reaped_children_cpu_ns() -> u64 {
    let mut ru = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        rest: [0; 14],
    };
    // SAFETY: `ru` is a live, writable `struct rusage` of the kernel's layout.
    if unsafe { getrusage(RUSAGE_CHILDREN, &mut ru) } != 0 {
        return 0;
    }
    let us = (ru.utime.sec + ru.stime.sec) * 1_000_000 + ru.utime.usec + ru.stime.usec;
    us.max(0) as u64 * 1000
}

/// `(on-CPU ns, run-queue wait ns)` from one `schedstat` line.
pub fn parse_schedstat(text: &str) -> Option<(u64, u64)> {
    let mut fields = text.split_whitespace();
    let run = fields.next()?.parse().ok()?;
    let wait = fields.next()?.parse().ok()?;
    Some((run, wait))
}

/// `utime + stime` in clock ticks from a `/proc/<pid>/stat` line. The command
/// name may hold spaces and parentheses, so fields are counted from the last
/// `)`.
pub fn parse_stat_ticks(text: &str) -> Option<u64> {
    let rest = &text[text.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// The value of a `Key:\tvalue` line of `/proc/<pid>/status` or `/proc/<pid>/io`.
pub fn status_field<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    text.lines().find_map(|line| {
        let (k, v) = line.split_once(':')?;
        (k == key).then_some(v.trim())
    })
}

/// A `status` field given in kB (`VmHWM`, `VmRSS`), in bytes.
pub fn status_kib_bytes(text: &str, key: &str) -> Option<u64> {
    let value = status_field(text, key)?;
    let kib: u64 = value.strip_suffix("kB")?.trim().parse().ok()?;
    Some(kib * 1024)
}

pub fn io_write_bytes(text: &str) -> Option<u64> {
    status_field(text, "write_bytes")?.parse().ok()
}

/// Ticks one CPU spent busy (user, nice, system, irq, softirq) or stolen by
/// the hypervisor, from the `cpuN` line of `/proc/stat`: everything that ran
/// there, ours or not.
pub fn parse_cpu_busy_ticks(stat: &str, cpu: usize) -> Option<u64> {
    let name = format!("cpu{cpu}");
    let line = stat.lines().find(|l| l.split(' ').next() == Some(&name))?;
    let f: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .map_while(|x| x.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal
    (f.len() >= 8).then(|| f[0] + f[1] + f[2] + f[5] + f[6] + f[7])
}

/// The same in ns (10 ms ticks), 0 when the CPU is unknown.
pub fn cpu_busy_ns(cpu: Option<usize>) -> u64 {
    let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
    cpu.and_then(|c| parse_cpu_busy_ticks(&stat, c))
        .unwrap_or(0)
        * 10_000_000
}

/// `(on-CPU ns, run-queue wait ns)` summed over the live threads of `pid`.
/// Without schedstats in the kernel, falls back to tick-granular `stat`
/// (10 ms ticks assumed) and reports no wait.
pub fn process_sched(pid: u32) -> (u64, u64) {
    let mut total = (0, 0);
    let mut seen = false;
    if let Ok(tasks) = fs::read_dir(format!("/proc/{pid}/task")) {
        for task in tasks.flatten() {
            let line = fs::read_to_string(task.path().join("schedstat")).unwrap_or_default();
            if let Some((run, wait)) = parse_schedstat(&line) {
                total.0 += run;
                total.1 += wait;
                seen = true;
            }
        }
    }
    if seen {
        return total;
    }
    let stat = fs::read_to_string(format!("/proc/{pid}/stat")).unwrap_or_default();
    (parse_stat_ticks(&stat).unwrap_or(0) * 10_000_000, 0)
}

/// On-CPU ns of the calling thread.
pub fn thread_cpu_ns() -> u64 {
    fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| parse_schedstat(&s))
        .map_or(0, |(run, _)| run)
}

pub fn process_status(pid: u32) -> String {
    fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default()
}

pub fn process_write_bytes(pid: u32) -> u64 {
    fs::read_to_string(format!("/proc/{pid}/io"))
        .ok()
        .and_then(|s| io_write_bytes(&s))
        .unwrap_or(0)
}

/// Bytes of every regular file under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    const STATUS: &str = include_str!("../fixtures/proc_status.txt");
    const IO: &str = include_str!("../fixtures/proc_io.txt");
    const STAT: &str = include_str!("../fixtures/proc_stat.txt");
    const SCHEDSTAT: &str = include_str!("../fixtures/proc_schedstat.txt");

    #[test]
    fn schedstat_gives_run_and_wait_ns() {
        assert_eq!(
            parse_schedstat(SCHEDSTAT),
            Some((8_412_337_512, 95_216_004))
        );
        assert_eq!(parse_schedstat(""), None);
        assert_eq!(parse_schedstat("12 x 3"), None);
    }

    #[test]
    fn stat_ticks_survive_a_hostile_command_name() {
        assert_eq!(parse_stat_ticks(STAT), Some(812 + 147));
        assert_eq!(parse_stat_ticks("1 (x"), None);
    }

    #[test]
    fn cpu_busy_ticks_leave_out_idle_and_iowait() {
        let stat = "cpu  30 0 10 500 7 0 2 1 0 0\ncpu0 10 0 5 250 3 0 1 0 0 0\ncpu1 20 1 5 250 4 2 1 1 0 0\ncpu10 9 9 9 9 9 9 9 9 0 0\nintr 5\n";
        assert_eq!(parse_cpu_busy_ticks(stat, 1), Some(20 + 1 + 5 + 2 + 1 + 1));
        assert_eq!(parse_cpu_busy_ticks(stat, 0), Some(16));
        assert_eq!(parse_cpu_busy_ticks(stat, 2), None);
    }

    #[test]
    fn status_fields_parse_with_units() {
        assert_eq!(status_kib_bytes(STATUS, "VmHWM"), Some(152_340 * 1024));
        assert_eq!(status_kib_bytes(STATUS, "VmRSS"), Some(150_112 * 1024));
        assert_eq!(status_field(STATUS, "Cpus_allowed_list"), Some("1"));
        assert_eq!(status_kib_bytes(STATUS, "VmNope"), None);
        assert_eq!(status_kib_bytes(STATUS, "Threads"), None, "no kB suffix");
    }

    #[test]
    fn io_write_bytes_is_not_confused_with_cancelled_write_bytes() {
        assert_eq!(io_write_bytes(IO), Some(183_500_800));
        assert_eq!(io_write_bytes("rchar: 1"), None);
    }

    #[test]
    fn dir_bytes_walks_subdirectories() {
        let dir = std::env::temp_dir().join(format!("hpcd-bench-dir-bytes-{}", std::process::id()));
        fs::create_dir_all(dir.join("sub")).unwrap();
        fs::write(dir.join("a"), [0u8; 10]).unwrap();
        fs::write(dir.join("sub/b"), [0u8; 5]).unwrap();
        assert_eq!(dir_bytes(&dir), 15);
        fs::remove_dir_all(&dir).unwrap();
    }
}
