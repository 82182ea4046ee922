//! The result record: metrics, the checks' verdict and provenance. The
//! last stdout line is the result object; the full record, provenance
//! included, is also written to `perfbench-results/`.

use std::fmt::Write as _;
use std::process::Command;

use crate::check::Verdict;
use crate::workload::Params;
use crate::Args;

pub struct Report {
    provenance: Vec<(&'static str, String)>,
    metrics: Vec<(String, String, f64)>,
    notes: Vec<String>,
    correct: bool,
    attempted: u64,
    failed: u64,
    file: String,
}

impl Report {
    pub fn new(args: &Args, params: &Params, digest: &str) -> Report {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".to_string());
        let trace = if args.trace { "1" } else { "0" };
        Report {
            provenance: vec![
                ("workload", params.name.to_string()),
                ("seed", args.seed.to_string()),
                ("seconds", args.seconds.to_string()),
                ("trace", trace.to_string()),
                ("digest", digest.to_string()),
                ("nproc", nproc.to_string()),
                ("rustc", stdout_of("rustc", &["-V"])),
                ("kernel", kernel),
                // The benchmark's checkout need not be a git repository.
                ("commit", stdout_of("git", &["rev-parse", "HEAD"])),
            ],
            metrics: Vec::new(),
            notes: Vec::new(),
            correct: true,
            attempted: 0,
            failed: 0,
            file: format!("{}-seed{}-trace{trace}.json", params.name, args.seed),
        }
    }

    /// A metric; one that could not be measured makes the run incorrect.
    pub fn metric(&mut self, name: &str, unit: &str, value: Option<f64>) {
        match value.filter(|v| v.is_finite()) {
            Some(v) => self.metrics.push((name.to_string(), unit.to_string(), v)),
            None => {
                self.correct = false;
                self.notes
                    .push(format!("metric {name} could not be measured"));
                self.metrics
                    .push((name.to_string(), unit.to_string(), -1.0));
            }
        }
    }

    pub fn note(&mut self, note: String) {
        self.notes.push(note);
    }

    /// A failed check (the traced run's reconciliation) makes the run
    /// incorrect.
    pub fn fail(&mut self, note: String) {
        self.correct = false;
        self.notes.push(note);
    }

    pub fn check(&mut self, verdict: &Verdict) {
        self.attempted = verdict.attempted;
        self.failed = verdict.failed;
        if verdict.failed > 0 {
            self.correct = false;
        }
        self.notes
            .extend(verdict.notes.iter().map(|n| format!("check failed: {n}")));
        self.notes.push(format!(
            "checked {} replies: {} failed, {} fits admitted, {} rejected as the oracle predicted",
            verdict.attempted, verdict.failed, verdict.admitted, verdict.rejected
        ));
    }

    fn metrics_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, unit, v)) in self.metrics.iter().enumerate() {
            let sep = if i > 0 { ", " } else { "" };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push('}');
        out
    }

    /// Writes the record file, the provenance line and, last, the result.
    pub fn emit(&self) {
        let provenance: Vec<String> = self
            .provenance
            .iter()
            .map(|(k, v)| format!("\"{k}\": {}", json_string(v)))
            .collect();
        let notes: Vec<String> = self.notes.iter().map(|n| json_string(n)).collect();
        let result = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            self.metrics_json()
        );
        let record = format!(
            "{{\"provenance\": {{{}}},\n \"notes\": [{}],\n \"result\": {result}}}\n",
            provenance.join(", "),
            notes.join(", ")
        );
        let _ = std::fs::create_dir_all(RESULTS_DIR)
            .and_then(|_| std::fs::write(format!("{RESULTS_DIR}/{}", self.file), &record));
        for n in &self.notes {
            eprintln!("perfbench: {n}");
        }
        println!("{{\"provenance\": {{{}}}}}", provenance.join(", "));
        println!("{result}");
    }
}

const RESULTS_DIR: &str = "perfbench-results";

/// A command's trimmed standard output, or `unknown`.
fn stdout_of(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A string field of a record written by [`Report::emit`].
fn field<'a>(record: &'a str, key: &str) -> Option<&'a str> {
    let start = record.find(&format!("\"{key}\": \""))? + key.len() + 5;
    let len = record[start..].find('"')?;
    Some(&record[start..start + len])
}

/// `(name, value)` pairs of a record's metrics.
fn metric_values(record: &str) -> Vec<(String, f64)> {
    let Some(start) = record.find("\"metrics\": {") else {
        return Vec::new();
    };
    let mut out = Vec::new();
    let mut rest = &record[start + 12..];
    while let Some(q) = rest.find("\": {\"value\": ") {
        let name_start = rest[..q].rfind('"').map_or(0, |i| i + 1);
        let name = rest[name_start..q].to_string();
        let after = &rest[q + 13..];
        let end = after.find(',').unwrap_or(after.len());
        if let Ok(v) = after[..end].trim().parse() {
            out.push((name, v));
        }
        rest = &after[end..];
    }
    out
}

/// Compares two records metric by metric; refuses unless both were
/// measured on the same inputs (workload, seed, seconds and digest).
pub fn compare(files: &[String]) -> Result<(), String> {
    let [a, b] = files else {
        return Err("usage: perfbench compare A.json B.json".into());
    };
    let read = |f: &String| std::fs::read_to_string(f).map_err(|e| format!("{f}: {e}"));
    let (ra, rb) = (read(a)?, read(b)?);
    for key in ["workload", "seed", "seconds", "trace", "digest"] {
        let (va, vb) = (field(&ra, key), field(&rb, key));
        if va.is_none() || va != vb {
            return Err(format!(
                "refusing to compare: {key} differs ({va:?} vs {vb:?}), so the inputs differ"
            ));
        }
    }
    let theirs = metric_values(&rb);
    for (name, va) in metric_values(&ra) {
        if let Some((_, vb)) = theirs.iter().find(|(n, _)| *n == name) {
            println!("{name}: {va} -> {vb} ({:+.1}%)", (vb / va - 1.0) * 100.0);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const RECORD: &str = "{\"provenance\": {\"workload\": \"mixed-small\", \"seed\": \"1\", \
        \"seconds\": \"20\", \"trace\": \"0\", \"digest\": \"00ff\"},\n \"notes\": [],\n \
        \"result\": {\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
        {\"fit_p50_us\": {\"value\": 12.5, \"unit\": \"us\"}, \"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}}";

    #[test]
    fn records_parse_back() {
        assert_eq!(field(RECORD, "digest"), Some("00ff"));
        assert_eq!(
            metric_values(RECORD),
            vec![
                ("fit_p50_us".to_string(), 12.5),
                ("setup_s".to_string(), 0.25)
            ]
        );
    }

    #[test]
    fn compare_refuses_records_of_different_inputs() {
        let dir = std::path::PathBuf::from(crate::WORK_DIR)
            .join(format!("compare-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (a, b, c) = (dir.join("a"), dir.join("b"), dir.join("c"));
        std::fs::write(&a, RECORD).unwrap();
        std::fs::write(&b, RECORD.replace("12.5", "11.0")).unwrap();
        std::fs::write(&c, RECORD.replace("00ff", "0f0f")).unwrap();
        let s = |p: &std::path::Path| p.display().to_string();
        assert!(compare(&[s(&a), s(&b)]).is_ok());
        let err = compare(&[s(&a), s(&c)]).unwrap_err();
        assert!(err.contains("digest"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
        let _ = std::fs::remove_dir(crate::WORK_DIR);
    }
}
