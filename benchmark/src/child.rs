//! One workload in one process: set-up, checked cell executions and the
//! timed rounds. The simulator's node threads are the program; this
//! driver is single-threaded and runs one cell at a time.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use ccl_core::{recycle_trace_buffer, RunOutput};

use crate::metrics::{count, real, virt_ms, with_note, Row};
use crate::sys;
use crate::workloads::{fold_digest, Cell, Inputs, Workload, CRASH_FRACTION, VICTIM};

/// The deterministic outcome of one cell execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Virt {
    pub exec_ns: u64,
    pub log_bytes: u64,
    pub recovery_ns: Option<u64>,
}

/// Check one cell's output against the serial reference and the
/// operation's failure conditions.
pub fn verify(out: &RunOutput<u64>, cell: Cell, reference: u64) -> Result<Virt, String> {
    let digest = fold_digest(out.nodes.iter().map(|n| n.result));
    if digest != reference {
        return Err(format!(
            "digest {digest:#018x} differs from the serial reference {reference:#018x}"
        ));
    }
    let dropped: u64 = out.nodes.iter().map(|n| n.trace_dropped).sum();
    if dropped > 0 {
        return Err(format!("{dropped} trace events dropped"));
    }
    let degraded = out.degraded_nodes();
    if !degraded.is_empty() {
        return Err(format!("log device failed on nodes {degraded:?}"));
    }
    let recovery_ns = out.recovery_time().map(|d| d.as_nanos());
    if cell.crashes() && recovery_ns.is_none() {
        return Err("crash cell finished without a recovery time".to_string());
    }
    Ok(Virt {
        exec_ns: out.exec_time().as_nanos(),
        log_bytes: out.total_log_bytes(),
        recovery_ns,
    })
}

pub fn recycle(out: RunOutput<u64>) {
    for n in out.nodes {
        recycle_trace_buffer(n.trace);
    }
}

/// A workload with its inputs generated, its reference computed and its
/// operations counted.
pub struct Session {
    pub workload: Workload,
    pub inputs: Inputs,
    pub reference: u64,
    pub serial_ref_ms: f64,
    /// First verified outcome per cell; every later execution of the
    /// cell must reproduce it exactly.
    pub baseline: [Option<Virt>; 5],
    pub attempted: u64,
    pub failed: u64,
}

impl Session {
    /// Generate inputs from the seed and compute the serial reference.
    /// `poison` corrupts the reference on purpose (the bench's own test
    /// that a wrong output is caught).
    pub fn new(workload: Workload, seed: u64, poison: bool) -> Session {
        let inputs = Inputs::generate(workload, seed);
        let t0 = Instant::now();
        let reference = fold_digest(workload.reference(&inputs)) ^ poison as u64;
        Session {
            workload,
            inputs,
            reference,
            serial_ref_ms: t0.elapsed().as_secs_f64() * 1e3,
            baseline: [None; 5],
            attempted: 0,
            failed: 0,
        }
    }

    /// Execute one cell: one operation. Returns the wall time of
    /// `run_program` and the output, or `None` if the operation failed.
    pub fn run_cell(&mut self, cell: Cell) -> Option<(f64, RunOutput<u64>)> {
        self.attempted += 1;
        let (workload, inputs) = (self.workload, &self.inputs);
        let t0 = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| workload.run(cell, inputs)));
        let host_ms = t0.elapsed().as_secs_f64() * 1e3;
        let checked = match result {
            Ok(out) => verify(&out, cell, self.reference).map(|virt| (out, virt)),
            Err(_) => Err("run_program panicked (or tripped the router watchdog)".to_string()),
        };
        let checked =
            checked.and_then(
                |(out, virt)| match self.baseline[cell.index()].get_or_insert(virt) {
                    first if *first == virt => Ok(out),
                    first => Err(format!("not deterministic: {virt:?} after {first:?}")),
                },
            );
        match checked {
            Ok(out) => Some((host_ms, out)),
            Err(why) => {
                self.failed += 1;
                eprintln!("FAILED {} {}: {why}", self.workload.name(), cell.label());
                None
            }
        }
    }

    /// One untimed round: fixes the crash point from the failure-free
    /// run and fills `BufferPool`, the trace-buffer pool and the heap.
    pub fn warm_up(&mut self) {
        for cell in Cell::ALL {
            if let Some((_, out)) = self.run_cell(cell) {
                if cell == Cell::None {
                    self.inputs.set_crash_point(&out);
                }
                recycle(out);
            } else if cell == Cell::None {
                // No crash point without the failure-free run.
                self.finish(&[]);
            }
        }
    }

    pub fn virt(&self, cell: Cell) -> Option<Virt> {
        self.baseline[cell.index()]
    }

    /// All five cells' outcomes, in `Cell::ALL` order, once each has run.
    pub fn all_virt(&self) -> Option<[Virt; 5]> {
        let b = &self.baseline;
        Some([b[0]?, b[1]?, b[2]?, b[3]?, b[4]?])
    }

    /// The nine virtual end-to-end metrics.
    pub fn virtual_rows(&self) -> Vec<Row> {
        let mut rows = Vec::new();
        for cell in [Cell::None, Cell::Ml, Cell::Ccl] {
            if let Some(v) = self.virt(cell) {
                rows.push(virt_ms(&format!("exec_ms.{}", cell.label()), v.exec_ns));
            }
        }
        for cell in [Cell::Ml, Cell::Ccl] {
            if let Some(v) = self.virt(cell) {
                let mib = v.log_bytes as f64 / (1u64 << 20) as f64;
                let name = format!("log_mb.{}", cell.label());
                rows.push(Row::new(&name, format!("{mib:.6}")));
            }
        }
        for (cell, proto) in [(Cell::MlCrash, "ml"), (Cell::CclCrash, "ccl")] {
            if let Some(v) = self.virt(cell) {
                let recovery = v.recovery_ns.expect("verified crash cell");
                rows.push(virt_ms(&format!("recovery_ms.{proto}"), recovery));
                rows.push(virt_ms(&format!("crash_exec_ms.{proto}"), v.exec_ns));
            }
        }
        rows
    }

    /// Print the rows and the operation counts, and end the process:
    /// non-zero if any operation failed.
    pub fn finish(&self, rows: &[Row]) -> ! {
        let name = self.workload.name();
        for row in rows {
            println!("{}", row.line(name));
        }
        let ops = |metric, v: u64| Row::aux(metric, v.to_string(), "count").line(name);
        println!("{}", ops("ops.attempted", self.attempted));
        println!("{}", ops("ops.failed", self.failed));
        std::process::exit(if self.failed == 0 { 0 } else { 1 });
    }
}

/// When the timed rounds stop.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    Rounds(usize),
    Seconds(f64),
}

/// Seconds since the parent spawned this process; `spawned_at` is the
/// parent's stamp (`--spawned-at-ns`, time since the epoch), so process
/// start-up is counted.
fn since_spawn_s(spawned_at: Duration) -> f64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0.0, |now| now.saturating_sub(spawned_at).as_secs_f64())
}

pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The sample at `index floor(n * q)` of the sorted samples.
fn at(sorted: &[f64], q: f64) -> f64 {
    sorted[((sorted.len() as f64 * q) as usize).min(sorted.len() - 1)]
}

pub fn median(samples: &[f64]) -> f64 {
    at(&sorted(samples), 0.5)
}

/// p10 over rounds — not the median, because competing load on a shared
/// box only ever slows a round down — with the rest printed beside it.
fn host_row(metric: &str, samples: &[f64]) -> Option<Row> {
    if samples.is_empty() {
        return None;
    }
    let s = sorted(samples);
    let note = format!(
        "p10 of n={} median={:.3} q1={:.3} q3={:.3}",
        s.len(),
        at(&s, 0.5),
        at(&s, 0.25),
        at(&s, 0.75)
    );
    Some(with_note(real(metric, at(&s, 0.1)), note))
}

/// Set-up, then nothing else: one more sample of `setup_s`.
pub fn setup_only(workload: Workload, seed: u64, spawned_at: Duration) -> ! {
    let mut session = Session::new(workload, seed, false);
    session.warm_up();
    let rows = [real("setup_s", since_spawn_s(spawned_at))];
    session.finish(&rows);
}

/// Set-up, then interleaved timed rounds of all five cells. Timed rounds
/// touch nothing but `run_program`, the output check and
/// `recycle_trace_buffer`.
pub fn timed(
    workload: Workload,
    seed: u64,
    budget: Budget,
    spawned_at: Duration,
    poison: bool,
) -> ! {
    let mut session = Session::new(workload, seed, poison);
    session.warm_up();
    let setup_s = since_spawn_s(spawned_at);
    println!(
        "# {} seed {seed}: node {VICTIM} fails after barrier {} ({CRASH_FRACTION} of its barriers)",
        workload.name(),
        session.inputs.crash_barrier
    );

    let mut host: [Vec<f64>; 5] = Default::default();
    let mut crash_pair = Vec::new();
    let mut rounds = 0usize;
    let mut cpu_ms = Vec::new();
    let t0 = Instant::now();
    loop {
        let go_on = match budget {
            Budget::Rounds(n) => rounds < n,
            // Stop where another round would overshoot more than it
            // undershoots; always measure at least one.
            Budget::Seconds(s) => {
                let mean = t0.elapsed().as_secs_f64() / rounds.max(1) as f64;
                rounds == 0 || t0.elapsed().as_secs_f64() + mean / 2.0 < s
            }
        };
        if !go_on {
            break;
        }
        let cpu_t0 = sys::cpu_ms();
        let mut ms_of = [None; 5];
        for cell in Cell::ALL {
            if let Some((ms, out)) = session.run_cell(cell) {
                recycle(out);
                host[cell.index()].push(ms);
                ms_of[cell.index()] = Some(ms);
            }
        }
        if let (Some(ml), Some(ccl)) = (ms_of[Cell::MlCrash.index()], ms_of[Cell::CclCrash.index()])
        {
            crash_pair.push(ml + ccl);
        }
        rounds += 1;
        cpu_ms.push(sys::cpu_ms() - cpu_t0);
    }

    let mut rows = session.virtual_rows();
    for cell in [Cell::None, Cell::Ml, Cell::Ccl] {
        rows.extend(host_row(
            &format!("host_ms.{}", cell.label()),
            &host[cell.index()],
        ));
    }
    rows.extend(host_row("host_ms.crash", &crash_pair));
    rows.push(real("peak_rss_mb", sys::peak_rss_mb()));
    rows.push(real("setup_s", setup_s));
    for cell in [Cell::MlCrash, Cell::CclCrash] {
        rows.extend(host_row(
            &format!("core.run_host_ms.{}", cell.label()),
            &host[cell.index()],
        ));
    }
    rows.push(with_note(
        real("core.cpu_ms", median(&cpu_ms)),
        "utime+stime per round, median".to_string(),
    ));
    rows.push(real("apps.serial_ref_host_ms", session.serial_ref_ms));
    rows.push(count("bench.rounds", rounds as u64));
    rows.push(real("bench.load_avg", sys::load_avg()));
    // What the traced run's `core.run_program` spans are compared with.
    let untraced: f64 = host
        .iter()
        .filter(|h| !h.is_empty())
        .map(|h| median(h))
        .sum();
    rows.push(Row::aux(
        "bench.untraced_round_host_ms",
        format!("{untraced:.4}"),
        "ms",
    ));
    session.finish(&rows);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p10_is_the_sample_at_floor_n_over_ten() {
        let samples: Vec<f64> = (0..31).rev().map(f64::from).collect();
        let row = host_row("host_ms.none", &samples).unwrap();
        assert_eq!(row.value(), 3.0);
        assert!(row.note.starts_with("p10 of n=31 median=15.000"));
        let few = host_row("host_ms.none", &[9.0, 7.0, 8.0]).unwrap();
        assert_eq!(few.value(), 7.0);
        assert!(host_row("host_ms.none", &[]).is_none());
    }
}
