//! Output checks: the simulated statistics of a campaign report, and the
//! values pinned for known seeds in `pins.txt`.

use voltboot::recover::crc64;
use voltboot::telemetry::{json::Value, parse};

/// The simulated statistics of one campaign report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    /// CRC-64/XZ of the rendered report bytes.
    pub crc: u64,
    pub reps: u64,
    pub success: u64,
    pub degraded: u64,
    pub failed: u64,
    pub timed_out: u64,
    pub repaired: u64,
    pub unresolved: u64,
}

impl Digest {
    /// Parses `report` (a `CampaignResult::to_json` rendering) and checks
    /// that its status tallies add up to its rep count.
    pub fn of_report(report: &str) -> Result<Digest, String> {
        let doc = parse::parse(report).map_err(|e| format!("report does not parse: {e}"))?;
        let summary = doc.get("summary").ok_or("report has no summary")?;
        let field = |k: &str| {
            summary.get(k).and_then(Value::as_u64).ok_or(format!("summary.{k} is not a u64"))
        };
        let d = Digest {
            crc: crc64(report.as_bytes()),
            reps: field("reps")?,
            success: field("successes")?,
            degraded: field("degraded")?,
            failed: field("failures")?,
            timed_out: field("timed_out")?,
            repaired: field("bits_repaired")?,
            unresolved: field("bits_unresolved")?,
        };
        let records = doc.get("records").and_then(Value::as_array).map_or(0, |r| r.len());
        if d.success + d.degraded + d.failed + d.timed_out != d.reps || records as u64 != d.reps {
            return Err(format!("status tallies do not add up to {} reps: {d:?}", d.reps));
        }
        Ok(d)
    }

    /// The digest as a `pins.txt` line for `workload`, `seed` and `key`.
    pub fn pin_line(&self, workload: &str, seed: u64, key: &str) -> String {
        format!(
            "{workload} {seed} {key} {:016x} {} {} {} {} {} {}",
            self.crc,
            self.success,
            self.degraded,
            self.failed,
            self.timed_out,
            self.repaired,
            self.unresolved
        )
    }
}

/// Simulated statistics summed over the reports of a run.
#[derive(Debug, Default)]
pub struct Totals {
    reports: u64,
    /// Reps, success, degraded, failed, timed out, repaired, unresolved.
    sum: [u64; 7],
}

impl Totals {
    pub fn add(&mut self, d: &Digest) {
        self.reports += 1;
        let parts =
            [d.reps, d.success, d.degraded, d.failed, d.timed_out, d.repaired, d.unresolved];
        for (acc, v) in self.sum.iter_mut().zip(parts) {
            *acc += v;
        }
    }
}

impl std::fmt::Display for Totals {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let [reps, success, degraded, failed, timed_out, repaired, unresolved] = self.sum;
        write!(
            f,
            "{reps} reps over {} checked reports: {success} success / {degraded} degraded / \
             {failed} failed / {timed_out} timed out; {repaired} bits repaired, {unresolved} unresolved",
            self.reports
        )
    }
}

/// The values recorded for known seeds, one report per line:
/// `workload seed key crc64 success degraded failed timed_out repaired unresolved`.
const PINS: &str = include_str!("../pins.txt");

/// Compares `digest` against the pinned line for `(workload, seed, key)`,
/// if there is one.
pub fn against_pins(workload: &str, seed: u64, key: &str, digest: &Digest) -> Result<(), String> {
    check_pins(PINS, workload, seed, key, digest)
}

fn check_pins(
    pins: &str,
    workload: &str,
    seed: u64,
    key: &str,
    digest: &Digest,
) -> Result<(), String> {
    let want = digest.pin_line(workload, seed, key);
    let prefix = format!("{workload} {seed} {key} ");
    match pins.lines().map(str::trim).find(|l| l.starts_with(&prefix)) {
        Some(line) if line != want => Err(format!("pinned {line:?}, got {want:?}")),
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const REPORT: &str = r#"{"fault_seed": 1, "summary": {"reps": 2, "successes": 1,
        "degraded": 1, "failures": 0, "timed_out": 0, "bits_repaired": 5,
        "bits_unresolved": 0}, "records": [{}, {}]}"#;

    #[test]
    fn digest_reads_the_summary() {
        let d = Digest::of_report(REPORT).unwrap();
        assert_eq!((d.reps, d.success, d.degraded, d.repaired), (2, 1, 1, 5));
        assert_eq!(d.crc, crc64(REPORT.as_bytes()));
    }

    #[test]
    fn digest_rejects_tallies_that_do_not_add_up() {
        let bad = REPORT.replace("\"degraded\": 1", "\"degraded\": 0");
        assert!(Digest::of_report(&bad).unwrap_err().contains("do not add up"));
        assert!(Digest::of_report("{").is_err());
    }

    #[test]
    fn pins_match_mismatch_and_absent() {
        let d = Digest::of_report(REPORT).unwrap();
        let pins = format!("# comment\n{}\n", d.pin_line("w", 1, "k0"));
        let other = Digest { repaired: 6, ..d };
        assert_eq!(check_pins(&pins, "w", 1, "k0", &d), Ok(()));
        assert!(check_pins(&pins, "w", 1, "k0", &other).unwrap_err().contains("pinned"));
        // Unpinned seeds and keys pass.
        assert_eq!(check_pins(&pins, "w", 2, "k0", &other), Ok(()));
        assert_eq!(check_pins(&pins, "w", 1, "k1", &other), Ok(()));
    }
}
