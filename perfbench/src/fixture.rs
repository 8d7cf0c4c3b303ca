//! A workload's on-disk world: the generated corpus, its labels, the
//! daemon's cache directory, and (for `ci-scan`) the cache left by the
//! previous revision plus the edits of each new one.

use std::collections::HashMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use pnew_detector::{Analyzer, AnalyzerConfig, BatchEngine, PersistentCache};

use crate::check;
use crate::wire::{self, Reply};
use crate::workload::{self, Step, Workload};

pub struct Fixture {
    pub workload: Workload,
    pub seed: u64,
    /// The corpus directory, canonical, as the daemon will report it.
    pub corpus_dir: String,
    /// Every corpus file, canonical, in file order.
    pub paths: Vec<String>,
    /// Generator label (flagged at Warning or above) per path.
    pub labels: HashMap<String, bool>,
    /// Texts without the edit slot (`edit-delta`, `ci-scan`: to write
    /// edits).
    pub base_texts: Vec<String>,
    /// Slot knobs at the start of every session (`edit-delta`), or of
    /// the current revision (`ci-scan`).
    pub knobs: Vec<u16>,
    /// The job the inputs on disk are for: the `ci-scan` revision (the
    /// cache holds revision − 1), or the `edit-delta` session.
    pub job: u64,
    /// The daemon's cache directory.
    pub cache_dir: PathBuf,
    /// The whole-project envelope every `edit-delta` reply must equal,
    /// from a one-shot scan (edits never change it: the slot holds no
    /// placement and keeps its byte length).
    pub expected: Option<String>,
}

impl Fixture {
    /// Generates the workload's inputs under `root` from `seed`.
    pub fn build(workload: Workload, seed: u64, root: &Path) -> io::Result<Fixture> {
        let corpus = root.join("corpus");
        fs::create_dir_all(&corpus)?;
        let corpus = fs::canonicalize(&corpus)?;
        let cache_dir = root.join("cache");
        let paths: Vec<String> = (0..file_count(workload))
            .map(|i| corpus.join(workload::file_name(i)).to_string_lossy().into_owned())
            .collect();
        let mut fixture = Fixture {
            workload,
            seed,
            corpus_dir: corpus.to_string_lossy().into_owned(),
            paths,
            labels: HashMap::new(),
            base_texts: Vec::new(),
            knobs: Vec::new(),
            job: 0,
            cache_dir,
            expected: None,
        };
        let labels = match workload {
            Workload::WarmQuery => {
                let c = workload::base_corpus(seed, workload::WARM_FILES);
                for (path, text) in fixture.paths.iter().zip(&c.texts) {
                    fs::write(path, text)?;
                }
                c.labels
            }
            Workload::EditDelta => {
                let (c, knobs) = workload::edit_project(seed);
                fixture.base_texts = c.texts;
                fixture.knobs = knobs;
                fixture.write_project()?;
                let expected =
                    check::one_shot(&[fixture.corpus_dir.clone()]).map_err(io::Error::other)?;
                fixture.expected = Some(expected);
                c.labels
            }
            Workload::CiScan => {
                let (c, knobs) = workload::ci_corpus(seed);
                let texts: Vec<String> = c
                    .texts
                    .iter()
                    .zip(&knobs)
                    .map(|(t, &k)| format!("{t}{}", workload::slot(k)))
                    .collect();
                for (path, text) in fixture.paths.iter().zip(&texts) {
                    fs::write(path, text)?;
                }
                cache_revision(&fixture.cache_dir, &texts)?;
                drop(texts);
                fixture.base_texts = c.texts;
                fixture.knobs = knobs;
                fixture.next_revision()?;
                c.labels
            }
        };
        fixture.labels = fixture.paths.iter().cloned().zip(labels).collect();
        if let Some(expected) = &fixture.expected {
            check::check_labels(expected, &fixture.paths, &fixture.labels)
                .map_err(|e| io::Error::other(format!("one-shot envelope: {e}")))?;
        }
        Ok(fixture)
    }

    /// The request that warms a fresh daemon before timing, if any.
    pub fn priming_line(&self) -> Option<String> {
        let dir = [self.corpus_dir.clone()];
        match self.workload {
            Workload::WarmQuery => Some(wire::analyze_line(0, &dir)),
            Workload::EditDelta => Some(wire::delta_line(0, &dir, None)),
            Workload::CiScan => None,
        }
    }

    /// Checks the priming reply: every file labelled correctly, and for
    /// `edit-delta` the exact one-shot envelope.
    pub fn check_priming(&self, payload: &str) -> Result<(), String> {
        check::check_labels(payload, &self.paths, &self.labels)?;
        match &self.expected {
            Some(expected) if expected != payload => {
                Err("priming envelope differs from the one-shot scan".into())
            }
            _ => Ok(()),
        }
    }

    /// Prepares one step: writes an edit to disk when the step carries
    /// one, and returns the request line plus the files it covers.
    pub fn request(&self, step: &Step, id: u64) -> io::Result<(String, Vec<String>)> {
        match step {
            Step::Analyze(files) => {
                let paths: Vec<String> = files.iter().map(|&i| self.paths[i].clone()).collect();
                Ok((wire::analyze_line(id, &paths), paths))
            }
            Step::Edit { file, knob } => {
                let path = &self.paths[*file];
                fs::write(path, format!("{}{}", self.base_texts[*file], workload::slot(*knob)))?;
                let line = wire::delta_line(
                    id,
                    std::slice::from_ref(&self.corpus_dir),
                    Some(std::slice::from_ref(path)),
                );
                Ok((line, self.paths.clone()))
            }
        }
    }

    /// Readies the inputs of the next job: the next `ci-scan` revision,
    /// or the `edit-delta` project back at the texts every session
    /// starts from.
    pub fn next_job(&mut self) -> io::Result<()> {
        match self.workload {
            Workload::WarmQuery => Ok(()),
            Workload::EditDelta => {
                self.job += 1;
                self.write_project()
            }
            Workload::CiScan => self.next_revision(),
        }
    }

    /// Writes every file with its starting slot knob.
    fn write_project(&self) -> io::Result<()> {
        for ((path, text), &knob) in self.paths.iter().zip(&self.base_texts).zip(&self.knobs) {
            fs::write(path, format!("{text}{}", workload::slot(knob)))?;
        }
        Ok(())
    }

    /// Writes the next `ci-scan` revision: one file in every
    /// [`workload::CI_CHANGE_EVERY`] gets a new slot knob. The job that
    /// scanned the current revision has left its entries in the cache.
    pub fn next_revision(&mut self) -> io::Result<()> {
        self.job += 1;
        for i in workload::ci_next_revision(&mut self.knobs, self.seed, self.job) {
            let text = format!("{}{}", self.base_texts[i], workload::slot(self.knobs[i]));
            fs::write(&self.paths[i], text)?;
        }
        Ok(())
    }

    /// Checks one timed reply. An `edit-delta` envelope is the same for
    /// every knob, so its header must also show that the edit was seen:
    /// one changed file and at least one function re-analyzed.
    pub fn check_reply(&self, reply: &Reply, paths: &[String]) -> Result<(), String> {
        let Some(expected) = &self.expected else {
            return check::check_labels(&reply.payload, paths, &self.labels);
        };
        let changed = reply.delta_counter("changed");
        let reanalyzed = reply.delta_counter("functions_reanalyzed");
        if changed != 1 || reanalyzed == 0 {
            return Err(format!(
                "delta header: {changed} changed files and {reanalyzed} functions re-analyzed, \
                 not 1 and at least 1"
            ));
        }
        if *expected != reply.payload {
            return Err("delta envelope differs from the one-shot scan".into());
        }
        Ok(())
    }

    /// Daemon counters that must move by exactly this much per completed
    /// request over a job: a warm daemon serves every file from the
    /// source tier and parses and touches disk for nothing; a CI request
    /// loads its unchanged files from the disk tier and parses and stores
    /// its changed ones.
    pub fn exact_counts(&self) -> Vec<(&'static str, u64)> {
        let changed = (workload::CI_BATCH / workload::CI_CHANGE_EVERY) as u64;
        match self.workload {
            Workload::WarmQuery => vec![
                ("fingerprint_hits", workload::WARM_BATCH as u64),
                ("parses", 0),
                ("persistent_hits", 0),
                ("persistent_stores", 0),
            ],
            Workload::EditDelta => Vec::new(),
            Workload::CiScan => vec![
                ("parses", changed),
                ("persistent_hits", workload::CI_BATCH as u64 - changed),
                ("persistent_stores", changed),
            ],
        }
    }
}

fn file_count(workload: Workload) -> usize {
    match workload {
        Workload::WarmQuery => workload::WARM_FILES,
        Workload::EditDelta => workload::EDIT_FILES,
        Workload::CiScan => workload::CI_FILES,
    }
}

/// Writes the cache a CI run of revision 0 leaves behind: the same
/// `.pnc` entries the daemon's engine writes, through the same cache
/// code and analyzer configuration.
fn cache_revision(dir: &Path, texts: &[String]) -> io::Result<()> {
    let config = AnalyzerConfig::default();
    let engine = BatchEngine::new(Analyzer::with_config(config.clone()))
        .with_persistent_cache(PersistentCache::open(dir, &config)?);
    let (_, stats) = engine.scan_sources_with_stats(texts);
    if stats.persistent_write_errors > 0 || stats.parses != texts.len() as u64 {
        return Err(io::Error::other("caching revision 0 failed"));
    }
    Ok(())
}
