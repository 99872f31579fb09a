//! Diagnostics with source locations.
//!
//! Diagnostics flow out of every phase (lexing, parsing, analysis,
//! evaluation, validation) in the same shape so the CLI and the repair
//! engine (§3.5) can render them uniformly:
//!
//! ```text
//! error[HCL012] main.tf:15:3: reference to undeclared resource "aws_nic.n2"
//! ```

use std::fmt;

use cloudless_types::Span;
use serde::{Deserialize, Serialize};

/// How severe a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Severity {
    /// Informational note (e.g. a suggestion from the porting optimizer).
    Note,
    /// Suspicious but not fatal; the program still deploys.
    Warning,
    /// The program cannot be deployed.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Note => f.write_str("note"),
            Severity::Warning => f.write_str("warning"),
            Severity::Error => f.write_str("error"),
        }
    }
}

/// A single diagnostic message anchored to a source span.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Diagnostic {
    pub severity: Severity,
    /// Stable machine-readable code, e.g. `HCL001`, `VAL103`.
    pub code: String,
    /// File the span refers to.
    pub file: String,
    pub span: Span,
    /// Human-readable message.
    pub message: String,
    /// Optional fix-it suggestion shown to the user.
    pub suggestion: Option<String>,
}

impl Diagnostic {
    pub fn error(code: &str, file: &str, span: Span, message: impl Into<String>) -> Self {
        Diagnostic {
            severity: Severity::Error,
            code: code.to_owned(),
            file: file.to_owned(),
            span,
            message: message.into(),
            suggestion: None,
        }
    }

    pub fn warning(code: &str, file: &str, span: Span, message: impl Into<String>) -> Self {
        Diagnostic {
            severity: Severity::Warning,
            ..Diagnostic::error(code, file, span, message)
        }
    }

    pub fn note(code: &str, file: &str, span: Span, message: impl Into<String>) -> Self {
        Diagnostic {
            severity: Severity::Note,
            ..Diagnostic::error(code, file, span, message)
        }
    }

    /// Attach a fix-it suggestion.
    pub fn with_suggestion(mut self, s: impl Into<String>) -> Self {
        self.suggestion = Some(s.into());
        self
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] {}:{}: {}",
            self.severity, self.code, self.file, self.span, self.message
        )?;
        if let Some(s) = &self.suggestion {
            write!(f, "\n  = help: {s}")?;
        }
        Ok(())
    }
}

impl std::error::Error for Diagnostic {}

/// A collection of diagnostics; `Err(Diagnostics)` is the failure type of
/// the front-end phases.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Diagnostics {
    pub items: Vec<Diagnostic>,
}

impl Diagnostics {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn push(&mut self, d: Diagnostic) {
        self.items.push(d);
    }

    pub fn extend(&mut self, other: Diagnostics) {
        self.items.extend(other.items);
    }

    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether any diagnostic is an error.
    pub fn has_errors(&self) -> bool {
        self.items.iter().any(|d| d.severity == Severity::Error)
    }

    /// Count diagnostics at exactly `sev`.
    pub fn count(&self, sev: Severity) -> usize {
        self.items.iter().filter(|d| d.severity == sev).count()
    }

    /// Turn into a `Result`: `Err(self)` if any errors are present.
    pub fn into_result<T>(self, ok: T) -> Result<T, Diagnostics> {
        if self.has_errors() {
            Err(self)
        } else {
            Ok(ok)
        }
    }

    pub fn iter(&self) -> impl Iterator<Item = &Diagnostic> {
        self.items.iter()
    }
}

impl fmt::Display for Diagnostics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, d) in self.items.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{d}")?;
        }
        Ok(())
    }
}

impl std::error::Error for Diagnostics {}

/// Sources for the pretty renderer, keyed by the filename diagnostics carry.
#[derive(Debug, Clone, Default)]
pub struct SourceMap {
    files: std::collections::BTreeMap<String, String>,
}

impl SourceMap {
    pub fn new() -> Self {
        Self::default()
    }

    /// A map with a single file — the common CLI case.
    pub fn single(filename: impl Into<String>, source: impl Into<String>) -> Self {
        let mut m = Self::default();
        m.insert(filename, source);
        m
    }

    pub fn insert(&mut self, filename: impl Into<String>, source: impl Into<String>) -> &mut Self {
        self.files.insert(filename.into(), source.into());
        self
    }

    fn line(&self, file: &str, line: u32) -> Option<&str> {
        let src = self.files.get(file)?;
        src.lines().nth(line.saturating_sub(1) as usize)
    }
}

/// Most characters of a source line (and carets under it) one rendered
/// diagnostic shows; the rest of a longer line is cut, with `…` marks.
const EXCERPT_WIDTH: usize = 160;

impl Diagnostic {
    /// Render with a source excerpt and caret underline:
    ///
    /// ```text
    /// error[VAL302] main.tf:15:3: admin_password is set but …
    ///    15 |   admin_password = "hunter2"
    ///       |   ^^^^^^^^^^^^^^
    ///    = help: add `disable_password_authentication = false`
    /// ```
    ///
    /// This is the *single* span pretty-printer: `cloudless validate`,
    /// `cloudless lint` and the analyze report all render through it.
    pub fn render_pretty(&self, sources: &SourceMap) -> String {
        let mut out = format!(
            "{}[{}] {}:{}: {}",
            self.severity, self.code, self.file, self.span, self.message
        );
        if !self.span.is_synthetic() {
            if let Some(line) = sources.line(&self.file, self.span.start.line) {
                let lineno = self.span.start.line.to_string();
                let gutter = " ".repeat(lineno.len());
                let len = line.chars().count();
                // caret run: from start.col to end.col on single-line spans,
                // to the end of the line otherwise (cols are 1-based)
                let mut from = (self.span.start.col.saturating_sub(1)) as usize;
                let to = if self.span.end.line == self.span.start.line
                    && self.span.end.col > self.span.start.col
                {
                    (self.span.end.col.saturating_sub(1)) as usize
                } else {
                    len
                };
                // a line over the cap (machine-written, or damaged) is shown
                // through a window that opens a little before the span
                let mut lo = 0;
                if len > EXCERPT_WIDTH {
                    from = from.min(len);
                    lo = from.saturating_sub(EXCERPT_WIDTH / 4);
                }
                let hi = (lo + EXCERPT_WIDTH).min(len);
                let cut = |there: bool| if there { "…" } else { "" };
                let (pre, post) = (cut(lo > 0), cut(hi < len));
                let shown: String = line.chars().skip(lo).take(hi - lo).collect();
                out.push_str(&format!("\n   {lineno} | {pre}{shown}{post}"));
                let room = hi.saturating_sub(from).max(1);
                let width = to.saturating_sub(from).clamp(1, room);
                out.push_str(&format!(
                    "\n   {gutter} | {}{}",
                    " ".repeat(from - lo + pre.chars().count()),
                    "^".repeat(width)
                ));
            }
        }
        if let Some(s) = &self.suggestion {
            out.push_str(&format!("\n   = help: {s}"));
        }
        out
    }
}

impl Diagnostics {
    /// Render every diagnostic through [`Diagnostic::render_pretty`],
    /// separated by blank lines.
    pub fn render_pretty(&self, sources: &SourceMap) -> String {
        let mut out = String::new();
        for (i, d) in self.items.iter().enumerate() {
            if i > 0 {
                out.push_str("\n\n");
            }
            out.push_str(&d.render_pretty(sources));
        }
        out
    }
}

impl From<Diagnostic> for Diagnostics {
    fn from(d: Diagnostic) -> Self {
        Diagnostics { items: vec![d] }
    }
}

impl IntoIterator for Diagnostics {
    type Item = Diagnostic;
    type IntoIter = std::vec::IntoIter<Diagnostic>;
    fn into_iter(self) -> Self::IntoIter {
        self.items.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudless_types::{SourcePos, Span};

    fn span() -> Span {
        Span::new(SourcePos::new(15, 3, 100), SourcePos::new(15, 20, 117))
    }

    #[test]
    fn display_format() {
        let d = Diagnostic::error("HCL012", "main.tf", span(), "undeclared resource");
        assert_eq!(
            d.to_string(),
            "error[HCL012] main.tf:15:3: undeclared resource"
        );
        let d = d.with_suggestion("declare it first");
        assert!(d.to_string().contains("help: declare it first"));
    }

    #[test]
    fn severity_ordering() {
        assert!(Severity::Note < Severity::Warning);
        assert!(Severity::Warning < Severity::Error);
    }

    #[test]
    fn has_errors_and_counts() {
        let mut ds = Diagnostics::new();
        assert!(!ds.has_errors());
        ds.push(Diagnostic::warning("W1", "f", span(), "w"));
        assert!(!ds.has_errors());
        ds.push(Diagnostic::error("E1", "f", span(), "e"));
        assert!(ds.has_errors());
        assert_eq!(ds.count(Severity::Warning), 1);
        assert_eq!(ds.count(Severity::Error), 1);
        assert_eq!(ds.len(), 2);
    }

    #[test]
    fn a_long_line_is_excerpted_around_the_span() {
        let line = format!("x = {}\"oops", "[".repeat(6_000_000));
        let at = line.find('"').unwrap() as u32;
        let span = Span::new(
            SourcePos::new(1, at + 1, at),
            SourcePos::new(1, at + 6, at + 5),
        );
        let d = Diagnostic::error("HCL001", "main.tf", span, "unterminated string literal");
        let pretty = d.render_pretty(&SourceMap::single("main.tf", line));
        assert!(pretty.len() < 1_000, "{} bytes", pretty.len());
        let rows: Vec<&str> = pretty.lines().collect();
        assert!(rows[1].starts_with("   1 | …[[[") && rows[1].ends_with("[\"oops"));
        let caret = rows[2].find('^').unwrap() - "     | ".len();
        assert_eq!(rows[1]["   1 | ".len()..].chars().nth(caret), Some('"'));
        assert!(rows[2].ends_with("^^^^^") && !rows[2].ends_with("^^^^^^"));
        // a multi-line span on a long line underlines to the cut, not past it
        let open = Span::new(SourcePos::new(1, 5, 4), SourcePos::new(2, 1, 0));
        let d = Diagnostic::error("HCL002", "main.tf", open, "unclosed");
        let pretty = d.render_pretty(&SourceMap::single("main.tf", "x = [".repeat(2_000)));
        let rows: Vec<&str> = pretty.lines().collect();
        assert!(rows[1].starts_with("   1 | x = [x") && rows[1].ends_with('…'));
        assert_eq!(rows[2].matches('^').count(), EXCERPT_WIDTH - 4);
    }

    #[test]
    fn into_result() {
        let ok = Diagnostics::new().into_result(42);
        assert_eq!(ok.unwrap(), 42);
        let mut ds = Diagnostics::new();
        ds.push(Diagnostic::error("E", "f", span(), "boom"));
        assert!(ds.into_result(42).is_err());
    }
}
