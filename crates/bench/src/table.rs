//! Paper-style result tables.

use serde::Serialize;

/// One row of an experiment series (one iteration of a figure).
#[derive(Debug, Clone, Serialize)]
pub struct Row {
    /// The x-axis value (number of machines, data size, …).
    pub x: f64,
    /// The series label (algorithm or query size).
    pub series: String,
    /// Modeled runtime in seconds — the run's deterministic
    /// `elapsed_model_s`, the quantity the paper's runtime figures plot.
    pub runtime_s: f64,
    /// Measured wall-clock seconds of the run.
    pub wall_s: f64,
    /// Total network traffic in bytes.
    pub bytes: usize,
    /// Total work units (node × sub-query evaluations).
    pub work: u64,
    /// Maximum number of visits to any one site.
    pub max_visits: usize,
}

impl Row {
    /// Builds a row from an outcome.
    pub fn from_outcome(x: f64, series: impl Into<String>, out: &parbox_core::EvalOutcome) -> Row {
        Row {
            x,
            series: series.into(),
            runtime_s: out.report.elapsed_model_s,
            wall_s: out.report.elapsed_wall_s,
            bytes: out.report.total_bytes(),
            work: out.report.total_work(),
            max_visits: out.report.max_visits(),
        }
    }
}

/// Prints a series table in the style of the paper's figures: one line
/// per x value, one column per series.
pub fn print_table(title: &str, x_label: &str, rows: &[Row]) {
    println!("## {title}");
    let mut series: Vec<String> = rows.iter().map(|r| r.series.clone()).collect();
    series.sort();
    series.dedup();
    let mut xs: Vec<f64> = rows.iter().map(|r| r.x).collect();
    xs.sort_by(f64::total_cmp);
    xs.dedup();
    print!("{x_label:>14}");
    for s in &series {
        print!("  {s:>18}");
    }
    println!();
    for &x in &xs {
        print!("{x:>14.2}");
        for s in &series {
            match rows.iter().find(|r| r.x == x && &r.series == s) {
                Some(r) => print!("  {:>15.4}s  ", r.runtime_s),
                None => print!("  {:>18}", "-"),
            }
        }
        println!();
    }
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(x: f64, s: &str) -> Row {
        Row {
            x,
            series: s.into(),
            runtime_s: 1.5,
            wall_s: 0.1,
            bytes: 10,
            work: 5,
            max_visits: 1,
        }
    }

    #[test]
    fn print_table_does_not_panic() {
        let rows = vec![row(1.0, "ParBoX"), row(2.0, "ParBoX"), row(1.0, "Central")];
        print_table("test", "machines", &rows);
    }
}
