//! Command-line options.

use crate::workloads::Workload;

/// Parsed options of one benchmark run.
#[derive(Debug, Clone, PartialEq)]
pub struct Opts {
    /// Workload to run.
    pub workload: Workload,
    /// Input seed; `None` runs the repository presets.
    pub seed: Option<u64>,
    /// Seconds of timed iterations (at least one iteration runs).
    pub seconds: u64,
    /// Also run the traced iteration and print per-layer metrics.
    pub trace: bool,
}

/// Usage text.
pub const USAGE: &str = "usage: scioto-perfbench --workload uts_deep|uts_wide|apps|obs \
[--seed N] [--seconds N] [--trace 0|1]";

fn number<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
    v.parse()
        .map_err(|_| format!("{flag} expects a non-negative integer, got {v:?}"))
}

/// Parse `args` (without the program name).
pub fn parse(args: &[String]) -> Result<Opts, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = match flag.as_str() {
            "--workload" | "--seed" | "--seconds" | "--trace" => {
                it.next().ok_or_else(|| format!("{flag} needs a value"))?
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(number(flag, value)?),
            "--seconds" => seconds = number(flag, value)?,
            _ => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace expects 0 or 1, got {value:?}")),
                }
            }
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Opts {
        workload,
        seed,
        seconds,
        trace,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let c = parse(&args("--workload obs --seed 7 --seconds 3 --trace 1")).unwrap();
        assert_eq!(
            c,
            Opts {
                workload: Workload::Obs,
                seed: Some(7),
                seconds: 3,
                trace: true,
            }
        );
    }

    #[test]
    fn rejects_bad_input() {
        for bad in [
            "",
            "--workload nope",
            "--workload obs --seed x",
            "--workload obs --trace 2",
            "--workload obs --sed 1",
            "--workload",
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad:?} accepted");
        }
    }
}
