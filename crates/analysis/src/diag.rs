//! The diagnostics data model: stable codes, severities, source
//! locations, and a renderable [`Report`].
//!
//! Every check in this crate emits [`Diagnostic`]s rather than erroring
//! out: a single `pas check` run reports *all* problems it can find, not
//! just the first, and the caller decides (via [`Report::has_errors`] /
//! `--deny-warnings`) whether the input is accepted.

use serde::Serialize;
use std::fmt;

/// How bad a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize)]
pub enum Severity {
    /// Informational only — never affects the exit status.
    Info,
    /// The input is suspicious or degenerate but simulable; rejected
    /// only under `--deny-warnings`.
    Warning,
    /// The input is invalid or statically infeasible; always rejected.
    Error,
}

impl Severity {
    /// The lowercase label used in human-readable output.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Stable diagnostic codes.
///
/// The numeric ranges partition by subject: `PAS00xx` graph
/// well-formedness, `PAS01xx` platform/plan parameters, `PAS02xx` fault
/// plans, `PAS03xx` feasibility, `PAS04xx` plan-artifact verification,
/// `PAS05xx` service request lifecycle (`pas serve`: ingest rejection,
/// back-pressure shedding, deadline/panic containment, stale-plan
/// degradation), `PAS06xx` symbolic energy/timing bounds
/// (`pas check --bounds`). Codes are append-only: once published a
/// code keeps its meaning forever (tests snapshot them), and retired
/// checks leave holes rather than renumbering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
#[allow(missing_docs)] // Each variant is documented by `description()`.
pub enum Code {
    Pas0001,
    Pas0002,
    Pas0003,
    Pas0004,
    Pas0005,
    Pas0006,
    Pas0007,
    Pas0008,
    Pas0009,
    Pas0010,
    Pas0011,
    Pas0012,
    Pas0013,
    Pas0101,
    Pas0102,
    Pas0103,
    Pas0104,
    Pas0105,
    Pas0106,
    Pas0107,
    Pas0108,
    Pas0201,
    Pas0202,
    Pas0203,
    Pas0204,
    Pas0205,
    Pas0206,
    Pas0301,
    Pas0302,
    Pas0303,
    Pas0401,
    Pas0402,
    Pas0403,
    Pas0404,
    Pas0405,
    Pas0406,
    Pas0407,
    Pas0408,
    Pas0409,
    Pas0501,
    Pas0502,
    Pas0503,
    Pas0504,
    Pas0505,
    Pas0506,
    Pas0507,
    Pas0508,
    Pas0509,
    Pas0601,
    Pas0602,
    Pas0603,
    Pas0604,
    Pas0605,
}

impl Code {
    /// Every code in the catalog, in numeric order. Documentation sync
    /// tests iterate this to ensure `docs/diagnostics.md` covers the
    /// whole catalog — a new variant that is not added here fails the
    /// `all_is_exhaustive` test below.
    pub const ALL: [Code; 53] = [
        Code::Pas0001,
        Code::Pas0002,
        Code::Pas0003,
        Code::Pas0004,
        Code::Pas0005,
        Code::Pas0006,
        Code::Pas0007,
        Code::Pas0008,
        Code::Pas0009,
        Code::Pas0010,
        Code::Pas0011,
        Code::Pas0012,
        Code::Pas0013,
        Code::Pas0101,
        Code::Pas0102,
        Code::Pas0103,
        Code::Pas0104,
        Code::Pas0105,
        Code::Pas0106,
        Code::Pas0107,
        Code::Pas0108,
        Code::Pas0201,
        Code::Pas0202,
        Code::Pas0203,
        Code::Pas0204,
        Code::Pas0205,
        Code::Pas0206,
        Code::Pas0301,
        Code::Pas0302,
        Code::Pas0303,
        Code::Pas0401,
        Code::Pas0402,
        Code::Pas0403,
        Code::Pas0404,
        Code::Pas0405,
        Code::Pas0406,
        Code::Pas0407,
        Code::Pas0408,
        Code::Pas0409,
        Code::Pas0501,
        Code::Pas0502,
        Code::Pas0503,
        Code::Pas0504,
        Code::Pas0505,
        Code::Pas0506,
        Code::Pas0507,
        Code::Pas0508,
        Code::Pas0509,
        Code::Pas0601,
        Code::Pas0602,
        Code::Pas0603,
        Code::Pas0604,
        Code::Pas0605,
    ];
    /// The stable wire form, e.g. `"PAS0009"`.
    pub fn as_str(self) -> &'static str {
        match self {
            Code::Pas0001 => "PAS0001",
            Code::Pas0002 => "PAS0002",
            Code::Pas0003 => "PAS0003",
            Code::Pas0004 => "PAS0004",
            Code::Pas0005 => "PAS0005",
            Code::Pas0006 => "PAS0006",
            Code::Pas0007 => "PAS0007",
            Code::Pas0008 => "PAS0008",
            Code::Pas0009 => "PAS0009",
            Code::Pas0010 => "PAS0010",
            Code::Pas0011 => "PAS0011",
            Code::Pas0012 => "PAS0012",
            Code::Pas0013 => "PAS0013",
            Code::Pas0101 => "PAS0101",
            Code::Pas0102 => "PAS0102",
            Code::Pas0103 => "PAS0103",
            Code::Pas0104 => "PAS0104",
            Code::Pas0105 => "PAS0105",
            Code::Pas0106 => "PAS0106",
            Code::Pas0107 => "PAS0107",
            Code::Pas0108 => "PAS0108",
            Code::Pas0201 => "PAS0201",
            Code::Pas0202 => "PAS0202",
            Code::Pas0203 => "PAS0203",
            Code::Pas0204 => "PAS0204",
            Code::Pas0205 => "PAS0205",
            Code::Pas0206 => "PAS0206",
            Code::Pas0301 => "PAS0301",
            Code::Pas0302 => "PAS0302",
            Code::Pas0303 => "PAS0303",
            Code::Pas0401 => "PAS0401",
            Code::Pas0402 => "PAS0402",
            Code::Pas0403 => "PAS0403",
            Code::Pas0404 => "PAS0404",
            Code::Pas0405 => "PAS0405",
            Code::Pas0406 => "PAS0406",
            Code::Pas0407 => "PAS0407",
            Code::Pas0408 => "PAS0408",
            Code::Pas0409 => "PAS0409",
            Code::Pas0501 => "PAS0501",
            Code::Pas0502 => "PAS0502",
            Code::Pas0503 => "PAS0503",
            Code::Pas0504 => "PAS0504",
            Code::Pas0505 => "PAS0505",
            Code::Pas0506 => "PAS0506",
            Code::Pas0507 => "PAS0507",
            Code::Pas0508 => "PAS0508",
            Code::Pas0509 => "PAS0509",
            Code::Pas0601 => "PAS0601",
            Code::Pas0602 => "PAS0602",
            Code::Pas0603 => "PAS0603",
            Code::Pas0604 => "PAS0604",
            Code::Pas0605 => "PAS0605",
        }
    }

    /// The default severity this code is emitted at.
    pub fn severity(self) -> Severity {
        use Severity::*;
        match self {
            Code::Pas0001
            | Code::Pas0002
            | Code::Pas0003
            | Code::Pas0004
            | Code::Pas0005
            | Code::Pas0006
            | Code::Pas0007
            | Code::Pas0008
            | Code::Pas0009
            | Code::Pas0010
            | Code::Pas0011
            | Code::Pas0101
            | Code::Pas0102
            | Code::Pas0103
            | Code::Pas0105
            | Code::Pas0106
            | Code::Pas0107
            | Code::Pas0201
            | Code::Pas0202
            | Code::Pas0203
            | Code::Pas0301
            | Code::Pas0401
            | Code::Pas0402
            | Code::Pas0403
            | Code::Pas0404
            | Code::Pas0405
            | Code::Pas0406
            | Code::Pas0407
            | Code::Pas0408
            | Code::Pas0409
            | Code::Pas0501
            | Code::Pas0502
            | Code::Pas0503
            | Code::Pas0505
            | Code::Pas0506
            | Code::Pas0508
            | Code::Pas0509
            | Code::Pas0601 => Error,
            Code::Pas0012
            | Code::Pas0013
            | Code::Pas0104
            | Code::Pas0108
            | Code::Pas0204
            | Code::Pas0205
            | Code::Pas0302
            | Code::Pas0504
            | Code::Pas0507
            | Code::Pas0605 => Warning,
            Code::Pas0206 | Code::Pas0303 | Code::Pas0602 | Code::Pas0603 | Code::Pas0604 => Info,
        }
    }

    /// One-line description of what the check verifies (the catalog
    /// entry; see DESIGN.md §3e).
    pub fn description(self) -> &'static str {
        match self {
            Code::Pas0001 => "graph has no nodes",
            Code::Pas0002 => "edge endpoint references a node that does not exist",
            Code::Pas0003 => "successor/predecessor adjacency lists disagree",
            Code::Pas0004 => "self loop",
            Code::Pas0005 => "duplicate edge",
            Code::Pas0006 => "execution times must satisfy 0 < acet <= wcet and be finite",
            Code::Pas0007 => "OR branch-probability count differs from successor count",
            Code::Pas0008 => "OR branch probability outside (0, 1]",
            Code::Pas0009 => "OR branch probabilities do not sum to 1",
            Code::Pas0010 => "graph contains a cycle",
            Code::Pas0011 => "OR-seriality / program-section structure violation",
            Code::Pas0012 => "node unreachable from any source",
            Code::Pas0013 => "isolated node (no predecessors or successors)",
            Code::Pas0101 => "unknown platform specification",
            Code::Pas0102 => "invalid speed-level table",
            Code::Pas0103 => "speed levels not monotone (frequency up, voltage non-decreasing)",
            Code::Pas0104 => "level table deviates from the published table of the same name",
            Code::Pas0105 => "overhead parameters must be finite and non-negative",
            Code::Pas0106 => "processor count must be positive",
            Code::Pas0107 => "deadline must be finite and positive",
            Code::Pas0108 => "SS(2) switch time falls outside [0, D]",
            Code::Pas0201 => "fault probability outside [0, 1]",
            Code::Pas0202 => "overrun factor must be finite and >= 1",
            Code::Pas0203 => "stall duration must be finite and non-negative",
            Code::Pas0204 => "positive stall probability with zero stall duration",
            Code::Pas0205 => "fault plan targets a graph with no computation nodes",
            Code::Pas0206 => "fault plan injects nothing",
            Code::Pas0301 => "statically infeasible: worst-case path misses the deadline at f_max",
            Code::Pas0302 => "zero static slack: the worst case finishes exactly at the deadline",
            Code::Pas0303 => {
                "OR-path count exceeds the enumeration threshold; conservative bound used"
            }
            Code::Pas0401 => "plan artifact has an unsupported schema version",
            Code::Pas0402 => "plan artifact does not fit the workload (shape mismatch)",
            Code::Pas0403 => "plan canonical schedule differs from independent re-derivation",
            Code::Pas0404 => "plan latest start time differs from independent re-derivation",
            Code::Pas0405 => "plan timing statistics differ from independent re-derivation",
            Code::Pas0406 => "plan scheme parameters differ from independent re-derivation",
            Code::Pas0407 => "SS(2) switch time violates the valid switch window",
            Code::Pas0408 => "speculative speed undercuts the GSS-guaranteed floor",
            Code::Pas0409 => "plan deadline is infeasible for the workload",
            Code::Pas0501 => "service request is not valid JSON",
            Code::Pas0502 => "service request has an unknown kind",
            Code::Pas0503 => "service request is missing a field or has an invalid parameter",
            Code::Pas0504 => "service queue is full; request shed with a retry-after hint",
            Code::Pas0505 => "service request exceeded its deadline and was cancelled",
            Code::Pas0506 => "service request handler panicked; the worker recovered",
            Code::Pas0507 => "service served a stale cached plan after re-derivation failed",
            Code::Pas0508 => "service request failed during planning or simulation",
            Code::Pas0509 => "service request line exceeds the byte cap; the connection was closed",
            Code::Pas0601 => "symbolic bounds derivation failed its internal soundness self-check",
            Code::Pas0602 => {
                "OR-path count exceeds the enumeration threshold; bounds use the DAG fallback"
            }
            Code::Pas0603 => "symbolic energy/makespan interval for one scheme (with witnesses)",
            Code::Pas0604 => "optimality gap: scheme worst case vs. the theoretical minimum energy",
            Code::Pas0605 => {
                "under the fault envelope the worst-case makespan exceeds the deadline"
            }
        }
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Where a diagnostic points: which source (file path or builtin name)
/// and, optionally, which node/field inside it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Loc {
    /// The source label: a file path, or a builtin spec such as
    /// `synthetic` or `transmeta`.
    pub source: String,
    /// Path inside the source, e.g. `nodes[3]` or `overrun_prob`.
    /// Empty when the diagnostic concerns the source as a whole.
    pub path: String,
}

impl Loc {
    /// A location naming the whole source.
    pub fn whole(source: &str) -> Self {
        Loc {
            source: source.to_string(),
            path: String::new(),
        }
    }

    /// A location naming a node or field inside the source.
    pub fn at(source: &str, path: impl Into<String>) -> Self {
        Loc {
            source: source.to_string(),
            path: path.into(),
        }
    }
}

impl fmt::Display for Loc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.path.is_empty() {
            f.write_str(&self.source)
        } else {
            write!(f, "{}:{}", self.source, self.path)
        }
    }
}

/// One finding.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Diagnostic {
    /// Stable code.
    pub code: Code,
    /// Severity (normally `code.severity()`, but kept explicit so a
    /// future `--warn-as-error`-style remap stays representable).
    pub severity: Severity,
    /// Where the problem is.
    pub loc: Loc,
    /// Specific, human-readable message with the offending values.
    pub message: String,
}

impl Diagnostic {
    /// Builds a diagnostic at the code's default severity.
    pub fn new(code: Code, loc: Loc, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: code.severity(),
            loc,
            message: message.into(),
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] {}: {}",
            self.severity, self.code, self.loc, self.message
        )
    }
}

/// An ordered collection of diagnostics from one or more checks.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct Report {
    /// The findings, in emission order (source order, then check order).
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// An empty report.
    pub fn new() -> Self {
        Report::default()
    }

    /// Appends a finding.
    pub fn push(&mut self, d: Diagnostic) {
        self.diagnostics.push(d);
    }

    /// Appends all findings of another report.
    pub fn merge(&mut self, other: Report) {
        self.diagnostics.extend(other.diagnostics);
    }

    /// True when no diagnostics at all were emitted.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// True when at least one `Error` was emitted.
    pub fn has_errors(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error)
    }

    /// True when at least one `Warning` was emitted.
    pub fn has_warnings(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == Severity::Warning)
    }

    /// `(errors, warnings, infos)` counts.
    pub fn counts(&self) -> (usize, usize, usize) {
        let mut c = (0, 0, 0);
        for d in &self.diagnostics {
            match d.severity {
                Severity::Error => c.0 += 1,
                Severity::Warning => c.1 += 1,
                Severity::Info => c.2 += 1,
            }
        }
        c
    }

    /// Whether the checked inputs should be rejected.
    pub fn rejects(&self, deny_warnings: bool) -> bool {
        self.has_errors() || (deny_warnings && self.has_warnings())
    }

    /// Renders the human-readable form: one line per diagnostic plus a
    /// summary line.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.to_string());
            out.push('\n');
        }
        let (e, w, i) = self.counts();
        if self.is_clean() {
            out.push_str("check passed: no diagnostics\n");
        } else {
            out.push_str(&format!(
                "check found {e} error(s), {w} warning(s), {i} info(s)\n"
            ));
        }
        out
    }

    /// Renders the machine-readable JSON form.
    pub fn render_json(&self) -> String {
        // Owned structs: the offline serde shim does not derive for
        // lifetime-generic types.
        #[derive(Serialize)]
        struct WireDiag {
            code: String,
            severity: String,
            source: String,
            path: String,
            message: String,
        }
        #[derive(Serialize)]
        struct Wire {
            errors: usize,
            warnings: usize,
            infos: usize,
            diagnostics: Vec<WireDiag>,
        }
        let (errors, warnings, infos) = self.counts();
        let wire = Wire {
            errors,
            warnings,
            infos,
            diagnostics: self
                .diagnostics
                .iter()
                .map(|d| WireDiag {
                    code: d.code.as_str().to_string(),
                    severity: d.severity.label().to_string(),
                    source: d.loc.source.clone(),
                    path: d.loc.path.clone(),
                    message: d.message.clone(),
                })
                .collect(),
        };
        serde_json::to_string_pretty(&wire).unwrap_or_else(|_| "{}".to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_is_exhaustive() {
        // Strictly ascending wire forms ⇒ no duplicates and numeric order.
        for pair in Code::ALL.windows(2) {
            assert!(
                pair[0].as_str() < pair[1].as_str(),
                "{} must precede {}",
                pair[0],
                pair[1]
            );
        }
        // Every code has a nonempty description and a severity.
        for c in Code::ALL {
            assert!(!c.description().is_empty(), "{c}");
            let _ = c.severity();
        }
    }

    #[test]
    fn codes_round_trip_and_sort() {
        assert_eq!(Code::Pas0009.as_str(), "PAS0009");
        assert_eq!(Code::Pas0301.severity(), Severity::Error);
        assert_eq!(Code::Pas0302.severity(), Severity::Warning);
        assert_eq!(Code::Pas0303.severity(), Severity::Info);
        assert!(Severity::Error > Severity::Warning);
    }

    #[test]
    fn report_counts_and_render() {
        let mut r = Report::new();
        assert!(r.is_clean());
        r.push(Diagnostic::new(
            Code::Pas0010,
            Loc::whole("w.json"),
            "graph contains a cycle",
        ));
        r.push(Diagnostic::new(
            Code::Pas0302,
            Loc::whole("w.json"),
            "zero static slack",
        ));
        assert_eq!(r.counts(), (1, 1, 0));
        assert!(r.has_errors());
        assert!(r.rejects(false));
        let human = r.render_human();
        assert!(human.contains("error[PAS0010] w.json: graph contains a cycle"));
        assert!(human.contains("1 error(s), 1 warning(s)"));
        let json = r.render_json();
        assert!(json.contains("\"PAS0010\""));
        assert!(json.contains("\"errors\": 1"));
    }

    #[test]
    fn deny_warnings_rejects_warning_only_reports() {
        let mut r = Report::new();
        r.push(Diagnostic::new(
            Code::Pas0302,
            Loc::whole("w.json"),
            "zero static slack",
        ));
        assert!(!r.rejects(false));
        assert!(r.rejects(true));
    }
}
