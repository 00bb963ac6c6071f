//! The repo's benchmark. Two clocks: the paper's metrics in virtual time
//! (bit-reproducible), the simulator's cost in host time (noisy). Five
//! workloads, each run under five cells in its own child process; one
//! traced run per workload for the per-layer ledger. See `README.md`.

mod child;
mod kernels;
mod metrics;
mod spans;
mod suite;
mod sys;
mod traced;
mod workloads;

use std::time::Duration;

use suite::Options;
use workloads::Workload;

/// `run_seconds` of `BENCHMARK.json`: how long one driver run measures.
const RUN_SECONDS: u64 = 10;

const USAGE: &str =
    "usage: benchmark/run.sh [--workload NAME] [--seed N] [--rounds N | --seconds S]
                        [--trace 0|1] [--agree]
  --workload NAME  one of fft-failfree shallow-crash water-matrix multiwriter-matrix
                   scale-128 (default: all five); prints the contract's JSON line last
  --seed N         input seed (default 0: the committed tables, exactly)
  --rounds N       timed rounds per workload (default: the README table)
  --seconds S      instead of a round count, as many whole rounds as fit in S seconds
  --trace 0|1      1 (default) adds the traced run and the per-layer metrics
  --agree          run everything twice on this build and compare within the bounds";

struct Args {
    opts: Options,
    agree: bool,
    contract: bool,
    child: Option<String>,
    spawned_at: Option<Duration>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        opts: Options {
            workload: None,
            seed: 0,
            rounds: None,
            seconds: None,
            trace: true,
            poison: false,
        },
        agree: false,
        contract: false,
        child: None,
        spawned_at: None,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        fn num<T: std::str::FromStr>(flag: &str, v: String) -> Result<T, String> {
            v.parse().map_err(|_| format!("{flag}: not a number: {v}"))
        }
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let w = Workload::from_name(&name).ok_or(format!("unknown workload {name}"))?;
                args.opts.workload = Some(w);
            }
            "--seed" => args.opts.seed = num(&flag, value()?)?,
            "--rounds" => {
                let n: usize = num(&flag, value()?)?;
                if n == 0 {
                    return Err("--rounds must be at least 1".to_string());
                }
                args.opts.rounds = Some(n);
            }
            "--seconds" => {
                let s: f64 = num(&flag, value()?)?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".to_string());
                }
                args.opts.seconds = Some(s);
            }
            "--trace" => {
                args.opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--agree" => args.agree = true,
            // Not for users: the bench's own test that a wrong output
            // is caught, the generator of BENCHMARK.json, and the
            // parent-to-child protocol.
            "--poison-reference" => args.opts.poison = true,
            "--contract" => args.contract = true,
            "--child" => args.child = Some(value()?),
            "--spawned-at-ns" => {
                args.spawned_at = Some(Duration::from_nanos(num(&flag, value()?)?));
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(why) => {
            if !why.is_empty() {
                eprintln!("error: {why}");
            }
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    };
    if args.contract {
        print!("{}", metrics::contract_json(RUN_SECONDS));
        return;
    }
    let opts = &args.opts;
    let code = match (args.child.as_deref(), opts.workload, args.spawned_at) {
        (Some(mode), Some(w), Some(spawned_at)) => match mode {
            "setup" => child::setup_only(w, opts.seed, spawned_at),
            "timed" => child::timed(w, opts.seed, opts.budget(w), spawned_at, opts.poison),
            "traced" => traced::traced(w, opts.seed),
            other => {
                eprintln!("error: unknown child mode {other}");
                2
            }
        },
        (Some(_), ..) => {
            eprintln!("error: --child needs --workload and --spawned-at-ns");
            2
        }
        (None, ..) if args.agree => suite::agree(opts),
        (None, ..) => suite::run(opts),
    };
    std::process::exit(code);
}
