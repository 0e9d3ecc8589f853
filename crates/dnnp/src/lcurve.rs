//! The training-curve artifact (`lcurve.out`).
//!
//! DeePMD-kit writes a whitespace-separated learning-curve file during
//! training; the paper's evaluation workflow (§2.2.4) reads **the last
//! values of the `rmse_e_val` and `rmse_f_val` columns** as the two fitness
//! objectives. This module reproduces that artifact and its parsing.

use std::fmt::Write as _;

/// One displayed training step.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LcurveRow {
    /// Training step index.
    pub step: usize,
    /// Validation energy RMSE (eV/atom).
    pub rmse_e_val: f64,
    /// Training-batch energy RMSE (eV/atom).
    pub rmse_e_trn: f64,
    /// Validation force RMSE (eV/Å).
    pub rmse_f_val: f64,
    /// Training-batch force RMSE (eV/Å).
    pub rmse_f_trn: f64,
    /// Learning rate at this step.
    pub lr: f64,
}

/// A training curve: ordered display rows.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Lcurve {
    rows: Vec<LcurveRow>,
}

impl Lcurve {
    /// An empty curve.
    pub fn new() -> Self {
        Lcurve { rows: Vec::new() }
    }

    /// Append a row.
    pub fn push(&mut self, row: LcurveRow) {
        self.rows.push(row);
    }

    /// All rows in order.
    pub fn rows(&self) -> &[LcurveRow] {
        &self.rows
    }

    /// The last row, if any.
    pub fn last(&self) -> Option<&LcurveRow> {
        self.rows.last()
    }

    /// The paper's fitness extraction: last `(rmse_e_val, rmse_f_val)`.
    pub fn final_losses(&self) -> Option<(f64, f64)> {
        self.last().map(|r| (r.rmse_e_val, r.rmse_f_val))
    }

    /// The last `n` rows (all rows when fewer exist) — the "lcurve tail"
    /// journaled per evaluation so a resumed campaign can reproduce the
    /// convergence evidence without rerunning training.
    pub fn tail(&self, n: usize) -> &[LcurveRow] {
        let start = self.rows.len().saturating_sub(n);
        &self.rows[start..]
    }

    /// Render in DeePMD's `lcurve.out` layout.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(
            "#  step      rmse_e_val    rmse_e_trn    rmse_f_val    rmse_f_trn            lr\n",
        );
        for r in &self.rows {
            let _ = writeln!(
                out,
                "{:>7}    {:>12.6e}  {:>12.6e}  {:>12.6e}  {:>12.6e}  {:>12.6e}",
                r.step, r.rmse_e_val, r.rmse_e_trn, r.rmse_f_val, r.rmse_f_trn, r.lr
            );
        }
        out
    }

    /// Parse text produced by [`Lcurve::to_text`] (or a DeePMD file with
    /// the same column order). Ignores comment lines; any malformed row is
    /// an error (see [`Lcurve::parse_tolerant`] for crash-tail tolerance),
    /// and so is a last row without its newline: a file cut inside its
    /// final number would otherwise read as a different, valid curve.
    pub fn parse(text: &str) -> Result<Lcurve, String> {
        Ok(Lcurve { rows: rows_of(text).collect::<Result<_, _>>()? })
    }

    /// As [`Lcurve::parse`], but tolerant of a torn tail: parsing stops at
    /// the first malformed (or unterminated) row and returns everything
    /// before it. This is the journal's durability rule applied to
    /// `lcurve.out` — a process killed mid-`write` leaves a truncated final
    /// line, which must not invalidate the completed rows above it. An empty
    /// or header-only file parses to an empty curve.
    pub fn parse_tolerant(text: &str) -> Lcurve {
        Lcurve { rows: rows_of(text).map_while(Result::ok).collect() }
    }
}

/// The data rows of an `lcurve.out` text, each parsed or refused.
fn rows_of(text: &str) -> impl Iterator<Item = Result<LcurveRow, String>> + '_ {
    text.split_inclusive('\n').enumerate().filter_map(|(lineno, raw)| {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            None
        } else if !raw.ends_with('\n') {
            Some(Err(format!("line {}: row without a newline (torn tail)", lineno + 1)))
        } else {
            Some(parse_row(lineno, line))
        }
    })
}

/// Parse one non-comment `lcurve.out` row (exactly 6 whitespace-separated
/// columns).
fn parse_row(lineno: usize, line: &str) -> Result<LcurveRow, String> {
    let fields: Vec<&str> = line.split_whitespace().collect();
    if fields.len() != 6 {
        return Err(format!("line {}: expected 6 columns, got {}", lineno + 1, fields.len()));
    }
    let parse_f = |s: &str| -> Result<f64, String> {
        s.parse::<f64>().map_err(|_| format!("line {}: bad number '{s}'", lineno + 1))
    };
    Ok(LcurveRow {
        step: fields[0]
            .parse::<usize>()
            .map_err(|_| format!("line {}: bad step '{}'", lineno + 1, fields[0]))?,
        rmse_e_val: parse_f(fields[1])?,
        rmse_e_trn: parse_f(fields[2])?,
        rmse_f_val: parse_f(fields[3])?,
        rmse_f_trn: parse_f(fields[4])?,
        lr: parse_f(fields[5])?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Lcurve {
        let mut c = Lcurve::new();
        c.push(LcurveRow { step: 0, rmse_e_val: 0.5, rmse_e_trn: 0.6, rmse_f_val: 1.2, rmse_f_trn: 1.3, lr: 1e-3 });
        c.push(LcurveRow { step: 50, rmse_e_val: 0.0016, rmse_e_trn: 0.002, rmse_f_val: 0.0357, rmse_f_trn: 0.04, lr: 1e-5 });
        c
    }

    #[test]
    fn final_losses_read_last_row() {
        let c = sample();
        let (e, f) = c.final_losses().unwrap();
        assert_eq!(e, 0.0016);
        assert_eq!(f, 0.0357);
    }

    #[test]
    fn empty_curve_has_no_losses() {
        assert!(Lcurve::new().final_losses().is_none());
    }

    #[test]
    fn text_round_trips() {
        let c = sample();
        let text = c.to_text();
        assert!(text.starts_with('#'), "needs a header comment");
        let parsed = Lcurve::parse(&text).unwrap();
        assert_eq!(parsed.rows().len(), 2);
        for (a, b) in parsed.rows().iter().zip(c.rows()) {
            assert_eq!(a.step, b.step);
            assert!((a.rmse_f_val - b.rmse_f_val).abs() < 1e-12);
            assert!((a.lr - b.lr).abs() < 1e-18);
        }
    }

    #[test]
    fn tail_clamps_to_available_rows() {
        let c = sample();
        assert_eq!(c.tail(1).len(), 1);
        assert_eq!(c.tail(1)[0].step, 50);
        assert_eq!(c.tail(10).len(), 2);
        assert!(Lcurve::new().tail(3).is_empty());
    }

    #[test]
    fn parse_rejects_malformed_rows() {
        assert!(Lcurve::parse("1 2 3").is_err());
        assert!(Lcurve::parse("x 1 2 3 4 5").is_err());
        assert!(Lcurve::parse("1 2 3 4 5 hello").is_err());
        // Comments and blank lines are fine.
        assert_eq!(Lcurve::parse("# header\n\n").unwrap().rows().len(), 0);
    }

    #[test]
    fn tolerant_parse_of_empty_file() {
        assert!(Lcurve::parse_tolerant("").rows().is_empty());
        assert!(Lcurve::parse_tolerant("\n\n").rows().is_empty());
    }

    #[test]
    fn tolerant_parse_of_header_only_file() {
        let header = "#  step      rmse_e_val    rmse_e_trn    rmse_f_val    rmse_f_trn            lr\n";
        assert!(Lcurve::parse_tolerant(header).rows().is_empty());
        // The strict parser agrees: a header is not an error.
        assert!(Lcurve::parse(header).unwrap().rows().is_empty());
    }

    #[test]
    fn tolerant_parse_recovers_rows_before_a_torn_last_line() {
        let full = sample().to_text();
        // Simulate a crash mid-write: cut the file inside the last row.
        let torn = &full[..full.len() - 20];
        assert!(Lcurve::parse(torn).is_err(), "strict parser must reject the torn tail");
        let recovered = Lcurve::parse_tolerant(torn);
        assert_eq!(recovered.rows().len(), 1);
        assert_eq!(recovered.rows()[0].step, 0);
        // An intact file parses identically under both parsers.
        assert_eq!(Lcurve::parse_tolerant(&full), Lcurve::parse(&full).unwrap());
    }
}
