//! Machine- and human-readable lint output.
//!
//! Findings reuse [`cloudless_hcl::Diagnostic`] (same spans, same codes) so
//! the CLI renders lint results through the exact pretty-printer `validate`
//! uses. The JSON form round-trips through serde; [`LintReport::to_sarif`]
//! emits a SARIF-style document (runs → tool.driver.rules + results) for CI
//! annotation tooling.

use cloudless_hcl::{Diagnostic, Diagnostics, Severity, SourceMap};
use serde::{Deserialize, Serialize};

use crate::rules::{rule, LintConfig, RULES};

/// One rule violation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Finding {
    /// Kebab-case rule name (`unused-variable`); the id is the
    /// diagnostic's `code`.
    pub rule: String,
    pub diagnostic: Diagnostic,
}

/// The result of a lint run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct LintReport {
    pub findings: Vec<Finding>,
    /// Number of findings suppressed by the allow list.
    pub suppressed: usize,
}

impl LintReport {
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    pub fn count(&self, sev: Severity) -> usize {
        self.findings
            .iter()
            .filter(|f| f.diagnostic.severity == sev)
            .count()
    }

    /// Whether the run fails under the config's `fail_on` threshold.
    pub fn fails(&self, config: &LintConfig) -> bool {
        self.findings
            .iter()
            .any(|f| f.diagnostic.severity >= config.fail_on)
    }

    /// Findings at or above the failing severity.
    pub fn deny_level(&self, config: &LintConfig) -> usize {
        self.findings
            .iter()
            .filter(|f| f.diagnostic.severity >= config.fail_on)
            .count()
    }

    /// The findings as a [`Diagnostics`] batch (for the shared renderer).
    pub fn diagnostics(&self) -> Diagnostics {
        let mut d = Diagnostics::new();
        for f in &self.findings {
            d.push(f.diagnostic.clone());
        }
        d
    }

    /// Human-readable output through the unified span pretty-printer.
    pub fn render_text(&self, sources: &SourceMap) -> String {
        if self.findings.is_empty() {
            return "ok: no findings\n".to_owned();
        }
        let mut out = self.diagnostics().render_pretty(sources);
        out.push_str(&format!(
            "\n\n{} finding(s): {} error(s), {} warning(s), {} note(s)\n",
            self.findings.len(),
            self.count(Severity::Error),
            self.count(Severity::Warning),
            self.count(Severity::Note),
        ));
        out
    }

    /// Machine output; round-trips through [`LintReport::from_json`].
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serializes")
    }

    pub fn from_json(s: &str) -> Result<Self, String> {
        serde_json::from_str(s).map_err(|e| format!("{e:?}"))
    }

    /// SARIF-style output (static analysis interchange: one run, the rule
    /// registry as `tool.driver.rules`, findings as `results`).
    pub fn to_sarif(&self) -> String {
        #[derive(Serialize)]
        struct Run {
            tool: Tool,
            results: Vec<SarifResult>,
        }
        #[derive(Serialize)]
        struct Tool {
            driver: Driver,
        }
        #[derive(Serialize)]
        struct Driver {
            name: String,
            rules: Vec<SarifRule>,
        }
        #[allow(non_snake_case)]
        #[derive(Serialize)]
        struct SarifRule {
            id: String,
            name: String,
            shortDescription: Text,
        }
        #[derive(Serialize)]
        struct Text {
            text: String,
        }
        #[allow(non_snake_case)]
        #[derive(Serialize)]
        struct SarifResult {
            ruleId: String,
            level: String,
            message: Text,
            locations: Vec<Location>,
        }
        #[allow(non_snake_case)]
        #[derive(Serialize)]
        struct Location {
            physicalLocation: PhysicalLocation,
        }
        #[allow(non_snake_case)]
        #[derive(Serialize)]
        struct PhysicalLocation {
            artifactLocation: Artifact,
            region: Region,
        }
        #[derive(Serialize)]
        struct Artifact {
            uri: String,
        }
        #[allow(non_snake_case)]
        #[derive(Serialize)]
        struct Region {
            startLine: u32,
            startColumn: u32,
            endLine: u32,
            endColumn: u32,
        }

        let runs = vec![Run {
            tool: Tool {
                driver: Driver {
                    name: "cloudless-analyze".to_owned(),
                    rules: RULES
                        .iter()
                        .map(|r| SarifRule {
                            id: r.id.to_owned(),
                            name: r.name.to_owned(),
                            shortDescription: Text {
                                text: r.summary.to_owned(),
                            },
                        })
                        .collect(),
                },
            },
            results: self
                .findings
                .iter()
                .map(|f| SarifResult {
                    ruleId: f.diagnostic.code.clone(),
                    level: match f.diagnostic.severity {
                        Severity::Error => "error",
                        Severity::Warning => "warning",
                        Severity::Note => "note",
                    }
                    .to_owned(),
                    message: Text {
                        text: f.diagnostic.message.clone(),
                    },
                    locations: vec![Location {
                        physicalLocation: PhysicalLocation {
                            artifactLocation: Artifact {
                                uri: f.diagnostic.file.clone(),
                            },
                            region: Region {
                                startLine: f.diagnostic.span.start.line,
                                startColumn: f.diagnostic.span.start.col,
                                endLine: f.diagnostic.span.end.line,
                                endColumn: f.diagnostic.span.end.col,
                            },
                        },
                    }],
                })
                .collect(),
        }];
        // The vendored serde derive has no field-level rename, and
        // `$schema` is not a legal Rust identifier — write the top-level
        // object by hand.
        let mut out = String::new();
        let mut w = serde::Writer::pretty(&mut out);
        w.begin_obj();
        w.key(true, "$schema");
        "https://json.schemastore.org/sarif-2.1.0.json".ser(&mut w);
        w.key(false, "version");
        "2.1.0".ser(&mut w);
        w.key(false, "runs");
        runs.ser(&mut w);
        w.end_obj(false);
        out
    }
}

/// The vendored structural subset of the SARIF 2.1.0 schema, baked into
/// the binary so CI needs no network.
pub const SARIF_SCHEMA: &str = include_str!("../schema/sarif-schema-2.1.0.json");

/// Validate a SARIF document against the vendored 2.1.0 schema subset
/// plus one semantic rule the schema cannot express: every `result.ruleId`
/// must be declared in `tool.driver.rules`.
///
/// The checker interprets the subset of JSON Schema the vendored file
/// uses — `type`, `required`, `properties`, `items`, `enum`, `minItems`,
/// `minimum` — which keeps validation offline and dependency-free.
pub fn validate_sarif(doc: &str) -> Result<(), Vec<String>> {
    use serde::Json;

    let value: Json = serde_json::from_str(doc).map_err(|e| vec![format!("not JSON: {e}")])?;
    let schema: Json = serde_json::from_str(SARIF_SCHEMA).expect("vendored schema parses");
    let mut errs = Vec::new();
    check_schema(&value, &schema, "$", &mut errs);

    // Semantic: results may only cite declared rules.
    fn arr(j: Option<&Json>) -> &[Json] {
        match j {
            Some(Json::Arr(a)) => a,
            _ => &[],
        }
    }
    fn string(j: Option<&Json>) -> Option<&str> {
        match j {
            Some(Json::Str(s)) => Some(s),
            _ => None,
        }
    }
    for (ri, run) in arr(value.get("runs")).iter().enumerate() {
        let declared: std::collections::BTreeSet<&str> = arr(run
            .get("tool")
            .and_then(|t| t.get("driver"))
            .and_then(|d| d.get("rules")))
        .iter()
        .filter_map(|r| string(r.get("id")))
        .collect();
        for (i, res) in arr(run.get("results")).iter().enumerate() {
            if let Some(id) = string(res.get("ruleId")) {
                if !declared.contains(id) {
                    errs.push(format!(
                        "$.runs[{ri}].results[{i}]: ruleId {id:?} not declared in tool.driver.rules"
                    ));
                }
            }
        }
    }

    if errs.is_empty() {
        Ok(())
    } else {
        Err(errs)
    }
}

fn check_schema(value: &serde::Json, schema: &serde::Json, path: &str, errs: &mut Vec<String>) {
    use serde::Json;
    if let Some(Json::Arr(allowed)) = schema.get("enum") {
        if !allowed.contains(value) {
            errs.push(format!("{path}: {value:?} not one of {allowed:?}"));
        }
        return;
    }
    if let Some(Json::Str(ty)) = schema.get("type") {
        let ok = match ty.as_str() {
            "object" => matches!(value, Json::Obj(_)),
            "array" => matches!(value, Json::Arr(_)),
            "string" => matches!(value, Json::Str(_)),
            "integer" => matches!(value, Json::I64(_) | Json::U64(_)),
            "number" => matches!(value, Json::I64(_) | Json::U64(_) | Json::F64(_)),
            "boolean" => matches!(value, Json::Bool(_)),
            other => {
                errs.push(format!("{path}: schema uses unsupported type {other:?}"));
                return;
            }
        };
        if !ok {
            errs.push(format!("{path}: expected {ty}"));
            return;
        }
    }
    match value {
        Json::Obj(map) => {
            if let Some(Json::Arr(req)) = schema.get("required") {
                for key in req {
                    if let Json::Str(key) = key {
                        if !map.iter().any(|(k, _)| k == key) {
                            errs.push(format!("{path}: missing required property {key:?}"));
                        }
                    }
                }
            }
            if let Some(Json::Obj(props)) = schema.get("properties") {
                for (key, sub) in props {
                    if let Some(v) = value.get(key) {
                        check_schema(v, sub, &format!("{path}.{key}"), errs);
                    }
                }
            }
        }
        Json::Arr(items) => {
            let min = match schema.get("minItems") {
                Some(Json::U64(m)) => *m,
                Some(Json::I64(m)) => (*m).max(0) as u64,
                _ => 0,
            };
            if (items.len() as u64) < min {
                errs.push(format!("{path}: fewer than {min} item(s)"));
            }
            if let Some(sub) = schema.get("items") {
                for (i, v) in items.iter().enumerate() {
                    check_schema(v, sub, &format!("{path}[{i}]"), errs);
                }
            }
        }
        Json::I64(_) | Json::U64(_) => {
            let v = match value {
                Json::I64(n) => *n,
                Json::U64(n) => *n as i64,
                _ => unreachable!(),
            };
            let min = match schema.get("minimum") {
                Some(Json::U64(m)) => Some(*m as i64),
                Some(Json::I64(m)) => Some(*m),
                _ => None,
            };
            if let Some(min) = min {
                if v < min {
                    errs.push(format!("{path}: {v} below minimum {min}"));
                }
            }
        }
        _ => {}
    }
}

/// Finding collector used by the passes: applies the allow list and the
/// deny escalation as findings are emitted.
pub(crate) struct Sink<'c> {
    config: &'c LintConfig,
    pub report: LintReport,
}

impl<'c> Sink<'c> {
    pub fn new(config: &'c LintConfig) -> Self {
        Sink {
            config,
            report: LintReport::default(),
        }
    }

    /// Emit a finding for `rule_id` unless the config suppresses it.
    pub fn emit(
        &mut self,
        rule_id: &str,
        file: &str,
        span: cloudless_types::Span,
        message: String,
        suggestion: Option<&str>,
    ) {
        let info = rule(rule_id).expect("emit uses registered rule ids");
        self.emit_with(
            info,
            self.config.severity_of(info),
            file,
            span,
            message,
            suggestion,
        );
    }

    /// Emit at an explicit base severity (for "possible" findings below a
    /// rule's default level). Deny-listing the rule still escalates.
    pub fn emit_at(
        &mut self,
        rule_id: &str,
        severity: Severity,
        file: &str,
        span: cloudless_types::Span,
        message: String,
        suggestion: Option<&str>,
    ) {
        let info = rule(rule_id).expect("emit uses registered rule ids");
        let sev = severity.max(match self.config.severity_of(info) {
            Severity::Error if info.severity != Severity::Error => Severity::Error,
            _ => Severity::Note,
        });
        self.emit_with(info, sev, file, span, message, suggestion);
    }

    fn emit_with(
        &mut self,
        info: &'static crate::rules::RuleInfo,
        severity: Severity,
        file: &str,
        span: cloudless_types::Span,
        message: String,
        suggestion: Option<&str>,
    ) {
        if self.config.allows(info) {
            self.report.suppressed += 1;
            return;
        }
        let mut d = match severity {
            Severity::Error => Diagnostic::error(info.id, file, span, message),
            Severity::Warning => Diagnostic::warning(info.id, file, span, message),
            Severity::Note => Diagnostic::note(info.id, file, span, message),
        };
        if let Some(s) = suggestion {
            d = d.with_suggestion(s);
        }
        self.report.findings.push(Finding {
            rule: info.name.to_owned(),
            diagnostic: d,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudless_types::{SourcePos, Span};

    fn sample() -> LintReport {
        let cfg = LintConfig::default();
        let mut sink = Sink::new(&cfg);
        sink.emit(
            "ANA101",
            "main.tf",
            Span::new(SourcePos::new(2, 1, 10), SourcePos::new(2, 8, 17)),
            "variable \"unused\" is never referenced".to_owned(),
            Some("remove it"),
        );
        sink.report
    }

    #[test]
    fn json_round_trips() {
        let report = sample();
        let json = report.to_json();
        let back = LintReport::from_json(&json).expect("parse back");
        assert_eq!(report, back);
    }

    #[test]
    fn sarif_has_rules_and_results() {
        let sarif = sample().to_sarif();
        assert!(sarif.contains("\"version\""));
        assert!(sarif.contains("\"$schema\""));
        assert!(sarif.contains("cloudless-analyze"));
        assert!(sarif.contains("ANA101"));
        assert!(sarif.contains("startLine"));
    }

    #[test]
    fn sarif_validates_against_vendored_schema() {
        validate_sarif(&sample().to_sarif()).expect("emitted SARIF is schema-valid");
        validate_sarif(&LintReport::default().to_sarif()).expect("empty report is schema-valid");
    }

    #[test]
    fn schema_rejects_malformed_documents() {
        let errs = validate_sarif("{}").unwrap_err();
        assert!(errs.iter().any(|e| e.contains("version")), "{errs:?}");
        assert!(errs.iter().any(|e| e.contains("runs")), "{errs:?}");

        let bad_version = r#"{"version":"9.9.9","runs":[]}"#;
        let errs = validate_sarif(bad_version).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("9.9.9")), "{errs:?}");
        assert!(errs.iter().any(|e| e.contains("fewer than 1")), "{errs:?}");

        // Undeclared ruleId is the semantic check beyond the schema.
        let undeclared = r#"{
          "version": "2.1.0",
          "runs": [{
            "tool": { "driver": { "name": "x", "rules": [] } },
            "results": [{
              "ruleId": "GHOST1",
              "level": "error",
              "message": { "text": "m" },
              "locations": [{ "physicalLocation": {
                "artifactLocation": { "uri": "a.tf" },
                "region": { "startLine": 1 } } }]
            }]
          }]
        }"#;
        let errs = validate_sarif(undeclared).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("GHOST1")), "{errs:?}");

        // Region lines are 1-based.
        let zero_line = r#"{
          "version": "2.1.0",
          "runs": [{
            "tool": { "driver": { "name": "x", "rules": [
              { "id": "R1", "name": "r-one", "shortDescription": { "text": "s" } }
            ] } },
            "results": [{
              "ruleId": "R1",
              "level": "note",
              "message": { "text": "m" },
              "locations": [{ "physicalLocation": {
                "artifactLocation": { "uri": "a.tf" },
                "region": { "startLine": 0 } } }]
            }]
          }]
        }"#;
        let errs = validate_sarif(zero_line).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("below minimum")), "{errs:?}");
    }

    #[test]
    fn fail_threshold() {
        let report = sample(); // one warning
        let mut cfg = LintConfig::default();
        assert!(!report.fails(&cfg), "warnings pass under fail_on=Error");
        cfg.fail_on = Severity::Warning;
        assert!(report.fails(&cfg));
        assert_eq!(report.deny_level(&cfg), 1);
    }
}
