//! Outside-in CPU and memory accounting from `/proc`.
//!
//! The CPU ledger attributes the process's CPU time by thread name, with
//! no help from the program: the collector's event loops are named
//! `collector-loop-*` and the fabric's receive pumps `prochlo-pump-*`
//! (the serving path), the benchmark's own load threads `bench-*` (the
//! harness), and everything else — the epoch manager, shuffle and
//! analyzer workers, the fabric shufflers and threads that have already
//! exited — is the pipeline remainder.

use std::fs;

/// `/proc` reports CPU in clock ticks of `USER_HZ`, which Linux fixes at
/// 100 per second for user space on every architecture it supports.
pub const TICKS_PER_SECOND: f64 = 100.0;

/// The fields of one `/proc/<pid>/task/<tid>/stat` line the ledger uses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskStat {
    pub tid: u64,
    pub comm: String,
    /// User plus system time, in clock ticks.
    pub cpu_ticks: u64,
}

/// Parses a `stat` line. The command name sits in parentheses and may
/// itself contain spaces and parentheses, so fields are counted from the
/// *last* `)`; `utime` and `stime` are fields 14 and 15 of the line.
pub fn parse_stat(line: &str) -> Option<TaskStat> {
    let open = line.find('(')?;
    let close = line.rfind(')')?;
    let tid = line[..open].trim().parse().ok()?;
    let comm = line.get(open + 1..close)?.to_string();
    // After ")": state is field 3, so utime (14) is index 11 here.
    let rest: Vec<&str> = line[close + 1..].split_whitespace().collect();
    let utime: u64 = rest.get(11)?.parse().ok()?;
    let stime: u64 = rest.get(12)?.parse().ok()?;
    Some(TaskStat {
        tid,
        comm,
        cpu_ticks: utime + stime,
    })
}

fn read_stat(path: &str) -> Option<TaskStat> {
    parse_stat(&fs::read_to_string(path).ok()?)
}

/// CPU ticks of the whole process, threads that have exited included.
pub fn process_ticks() -> u64 {
    read_stat("/proc/self/stat").map_or(0, |s| s.cpu_ticks)
}

/// CPU ticks of the calling thread.
pub fn thread_ticks() -> u64 {
    read_stat("/proc/thread-self/stat").map_or(0, |s| s.cpu_ticks)
}

/// Every live thread of the process.
pub fn threads() -> Vec<TaskStat> {
    let Ok(dir) = fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    dir.filter_map(|entry| {
        let path = entry.ok()?.path().join("stat");
        parse_stat(&fs::read_to_string(path).ok()?)
    })
    .collect()
}

/// Which ledger row a live thread's CPU belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Part {
    Serve,
    Gen,
    Pipeline,
}

/// Attribution by thread name (Linux truncates names to 15 bytes).
pub fn part_of(comm: &str) -> Part {
    if comm.starts_with("collector-loop") || comm.starts_with("prochlo-pump") {
        Part::Serve
    } else if comm.starts_with("bench-") {
        Part::Gen
    } else {
        Part::Pipeline
    }
}

/// Sum of live-thread ticks attributed to `part`.
pub fn live_ticks(part: Part) -> u64 {
    threads()
        .iter()
        .filter(|t| part_of(&t.comm) == part)
        .map(|t| t.cpu_ticks)
        .sum()
}

/// Peak resident set (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// CPU seconds per row over one measured window. `pipeline` is the
/// remainder, so it also holds whatever no thread name explains.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ledger {
    pub total: f64,
    pub serve: f64,
    pub gen: f64,
    pub pipeline: f64,
}

impl Ledger {
    /// Builds the ledger from tick deltas. Each live thread's reading is
    /// rounded to a tick on its own, so the attributed rows may overshoot
    /// the process total by up to one tick per thread; beyond that the
    /// attribution is inconsistent and the ledger is refused.
    pub fn from_ticks(total: u64, serve: u64, gen: u64, threads: usize) -> Result<Self, String> {
        let attributed = serve + gen;
        if attributed > total + threads as u64 {
            return Err(format!(
                "cpu ledger: serve {serve} + gen {gen} ticks exceed the process total {total}"
            ));
        }
        let secs = |t: u64| t as f64 / TICKS_PER_SECOND;
        Ok(Self {
            total: secs(total),
            serve: secs(serve),
            gen: secs(gen),
            pipeline: secs(total.saturating_sub(attributed)),
        })
    }

    /// `serve + gen + pipeline − total`, in seconds (zero up to rounding).
    pub fn imbalance(&self) -> f64 {
        self.serve + self.gen + self.pipeline - self.total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_stat_line_with_an_awkward_name() {
        let line = "4242 (bench-) gen (1)) S 1 2 3 0 -1 4194560 100 0 0 0 \
                    123 45 0 0 20 0 3 0 900 1000 200 18446744073709551615";
        let stat = parse_stat(line).unwrap();
        assert_eq!(stat.tid, 4242);
        assert_eq!(stat.comm, "bench-) gen (1)");
        assert_eq!(stat.cpu_ticks, 168);
    }

    #[test]
    fn rejects_truncated_lines() {
        assert_eq!(parse_stat("12 (x) S 1 2"), None);
        assert_eq!(parse_stat("garbage"), None);
    }

    #[test]
    fn reads_this_process() {
        assert!(!threads().is_empty());
        assert!(peak_rss_mb() > 0.0);
        let me = threads();
        assert!(me.iter().any(|t| t.tid > 0));
    }

    #[test]
    fn attributes_by_thread_name() {
        assert_eq!(part_of("collector-loop-"), Part::Serve);
        assert_eq!(part_of("prochlo-pump-fa"), Part::Serve);
        assert_eq!(part_of("bench-gen-0"), Part::Gen);
        assert_eq!(part_of("collector-epoch"), Part::Pipeline);
        assert_eq!(part_of("esabench"), Part::Pipeline);
    }

    #[test]
    fn ledger_parts_add_up_and_overshoot_is_refused() {
        let ledger = Ledger::from_ticks(1000, 150, 50, 4).unwrap();
        assert_eq!(ledger.pipeline, 8.0);
        assert!(ledger.imbalance().abs() < 1e-9);
        // Rounding slack: one tick per thread.
        let slack = Ledger::from_ticks(100, 60, 43, 4).unwrap();
        assert_eq!(slack.pipeline, 0.0);
        assert!(Ledger::from_ticks(100, 90, 20, 4).is_err());
    }
}
