#![warn(missing_docs)]

//! # bench — figure reproduction
//!
//! One harness per figure of the paper's evaluation (Figures 3–20 — the
//! paper has no numbered tables). Each `figNN()` returns a [`Series`] whose
//! rows mirror the data series the corresponding figure plots; the `repro`
//! binary prints them. (Performance measurement lives in the standalone
//! `benchmark/` crate, see `docs/BENCHMARKS.md`.)
//!
//! Shape expectations (paper vs. this reproduction) are recorded in
//! `EXPERIMENTS.md`.

pub mod ablations;
pub mod alloc;
pub mod critpath;
pub mod explore;
pub mod figures;
pub mod micro;
pub mod runner;
pub mod serve;
pub mod sim;
pub mod tracecap;

/// A named harness entry point producing one [`Series`].
pub type HarnessFn = fn() -> Series;

/// Which family a harness belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize)]
pub enum HarnessKind {
    /// A paper-figure reproduction (figures 3–20).
    Figure,
    /// An ablation / extra study (DESIGN.md §6).
    Ablation,
}

/// One registry entry: a harness plus the metadata the runner reports.
#[derive(Debug, Clone, Copy)]
pub struct Harness {
    /// Harness identifier, e.g. `"fig05"`.
    pub id: &'static str,
    /// Figure or ablation.
    pub kind: HarnessKind,
    /// Simulated ranks/agents the harness spins up (largest configuration).
    pub ranks: usize,
    /// The entry point.
    pub run: HarnessFn,
}

impl Harness {
    /// Registry constructor.
    pub const fn new(id: &'static str, kind: HarnessKind, ranks: usize, run: HarnessFn) -> Self {
        Harness {
            id,
            kind,
            ranks,
            run,
        }
    }
}

/// A printable data series: the reproduction of one figure.
#[derive(Debug, Clone, serde::Serialize)]
pub struct Series {
    /// Figure identifier, e.g. `"fig05"`.
    pub id: &'static str,
    /// What the paper's figure shows.
    pub title: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Data rows, stringified.
    pub rows: Vec<Vec<String>>,
}

impl Series {
    /// Render as an aligned text table.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut s = String::new();
        let _ = writeln!(s, "== {} — {} ==", self.id, self.title);
        let header: Vec<String> = self
            .columns
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect();
        let _ = writeln!(s, "{}", header.join("  "));
        for row in &self.rows {
            let line: Vec<String> = row
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect();
            let _ = writeln!(s, "{}", line.join("  "));
        }
        s
    }
}

/// Format a percentage.
pub fn pct(v: f64) -> String {
    format!("{v:.1}")
}

/// Format microseconds.
pub fn f_us(ns: f64) -> String {
    format!("{:.1}", ns / 1e3)
}

/// Format milliseconds.
pub fn f_ms(v: f64) -> String {
    format!("{v:.2}")
}
