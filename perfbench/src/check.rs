//! The correctness gate: every reply's per-file verdict must match the
//! generator's label, and sampled replies must be byte-identical to a
//! one-shot in-process scan of the same files.

use std::collections::HashMap;

use pnew_detector::cliopts::expand_inputs;
use pnew_detector::emit::{render_json, FileRecord};
use pnew_detector::server::{parse_json, JsonNode};
use pnew_detector::{Analyzer, BatchEngine};

use crate::wire::field;

/// `(path, flagged at Warning or above)` for every file of a
/// `pncheck-report/1` envelope, in envelope order.
pub fn verdicts(payload: &str) -> Result<Vec<(String, bool)>, String> {
    let Ok(JsonNode::Obj(envelope)) = parse_json(payload) else {
        return Err("payload is not a JSON object".into());
    };
    let Some(JsonNode::Arr(files)) = field(&envelope, "files") else {
        return Err("envelope has no files array".into());
    };
    files
        .iter()
        .map(|file| {
            let JsonNode::Obj(file) = file else {
                return Err("file entry is not an object".to_owned());
            };
            let Some(JsonNode::Str(path)) = field(file, "path") else {
                return Err("file entry has no path".to_owned());
            };
            if matches!(field(file, "errors"), Some(JsonNode::Arr(e)) if !e.is_empty()) {
                return Err(format!("{path}: parse errors"));
            }
            let Some(JsonNode::Arr(findings)) = field(file, "findings") else {
                return Err(format!("{path}: no findings array"));
            };
            let flagged = findings.iter().any(|f| match f {
                JsonNode::Obj(f) => matches!(
                    field(f, "severity"),
                    Some(JsonNode::Str(s)) if s == "warning" || s == "error"
                ),
                _ => false,
            });
            Ok((path.clone(), flagged))
        })
        .collect()
}

/// Checks that `payload` covers exactly `paths` and that each file's
/// verdict matches its label.
pub fn check_labels(
    payload: &str,
    paths: &[String],
    labels: &HashMap<String, bool>,
) -> Result<(), String> {
    let got = verdicts(payload)?;
    if got.len() != paths.len() || got.iter().zip(paths).any(|((p, _), want)| p != want) {
        return Err(format!("reply covers {} files, not the {} requested", got.len(), paths.len()));
    }
    for (path, flagged) in got {
        match labels.get(&path) {
            Some(&label) if label == flagged => {}
            Some(&label) => {
                return Err(format!("{path}: flagged={flagged}, generator label={label}"))
            }
            None => return Err(format!("{path}: not a generated file")),
        }
    }
    Ok(())
}

/// The envelope a fresh one-shot scan (no warm state, no disk tier)
/// renders for `inputs` — what `pncheck --format json` prints.
pub fn one_shot(inputs: &[String]) -> Result<String, String> {
    let (paths, errors) = expand_inputs(inputs);
    if !errors.is_empty() {
        return Err(errors.join("; "));
    }
    let sources = paths
        .iter()
        .map(|p| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}")))
        .collect::<Result<Vec<String>, String>>()?;
    let engine = BatchEngine::new(Analyzer::new()).with_jobs(1);
    let (outcomes, _) = engine.scan_sources_with_stats(&sources);
    let records: Vec<FileRecord> = paths
        .into_iter()
        .zip(outcomes)
        .map(|(path, o)| FileRecord { path, report: o.report, errors: o.errors })
        .collect();
    Ok(render_json(&records, None, None))
}

#[cfg(test)]
mod tests {
    use super::*;

    const ENVELOPE: &str = r#"{"schema":"pncheck-report/1","files":[
        {"path":"/a.pnx","program":"x","findings":[{"severity":"info"}],"errors":[]},
        {"path":"/b.pnx","program":"y","findings":[{"severity":"info"},{"severity":"error"}],"errors":[]}
    ]}"#;

    #[test]
    fn verdicts_count_only_warning_and_above() {
        assert_eq!(
            verdicts(ENVELOPE).unwrap(),
            vec![("/a.pnx".to_owned(), false), ("/b.pnx".to_owned(), true)]
        );
    }

    #[test]
    fn labels_must_match_and_cover_the_request() {
        let paths = vec!["/a.pnx".to_owned(), "/b.pnx".to_owned()];
        let mut labels = HashMap::from([("/a.pnx".to_owned(), false), ("/b.pnx".to_owned(), true)]);
        assert_eq!(check_labels(ENVELOPE, &paths, &labels), Ok(()));
        assert!(check_labels(ENVELOPE, &paths[..1], &labels).is_err());
        labels.insert("/a.pnx".to_owned(), true);
        assert!(check_labels(ENVELOPE, &paths, &labels).unwrap_err().contains("/a.pnx"));
    }
}
